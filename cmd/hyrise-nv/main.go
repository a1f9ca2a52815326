// Command hyrise-nv is the interactive counterpart of the paper's demo:
// load a dataset into a database directory, run transactions against it,
// optionally "pull the plug" mid-transaction, and restart it while
// measuring time-to-first-query.
//
// Typical session reproducing the demo:
//
//	hyrise-nv load    -dir /tmp/db-nvm -mode nvm -rows 200000
//	hyrise-nv load    -dir /tmp/db-log -mode log -rows 200000
//	hyrise-nv crash   -dir /tmp/db-nvm -mode nvm   # exits mid-transaction
//	hyrise-nv recover -dir /tmp/db-nvm -mode nvm   # < a few ms
//	hyrise-nv recover -dir /tmp/db-log -mode log   # grows with -rows
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"hyrisenv/internal/core"
	"hyrisenv/internal/csvio"
	"hyrisenv/internal/disk"
	"hyrisenv/internal/shard"
	"hyrisenv/internal/txn"
	"hyrisenv/internal/workload"
)

func main() {
	log.SetFlags(0)
	if len(os.Args) < 2 {
		usage()
	}
	cmd := os.Args[1]
	if cmd == "connect" {
		// Network mode: the same tooling, over the wire against a
		// running hyrise-nvd (no -dir; the daemon owns the data).
		runConnect(os.Args[2:])
		return
	}
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	dir := fs.String("dir", "", "database directory")
	modeName := fs.String("mode", "nvm", "durability mode: nvm or log")
	rows := fs.Int("rows", 100000, "dataset rows (load)")
	ops := fs.Int("ops", 20000, "operations (run)")
	threads := fs.Int("threads", 4, "worker goroutines (run)")
	write := fs.Bool("write", false, "use the write-heavy mix (run)")
	ssd := fs.Bool("ssd", false, "model a 2016-era SSD for the log device")
	table := fs.String("table", "orders", "table name (import/export)")
	input := fs.String("i", "", "input CSV file (import)")
	output := fs.String("o", "", "output CSV file (export; default stdout)")
	indexed := fs.String("indexed", "", "comma-separated columns to index (import into new table)")
	fs.Parse(os.Args[2:])
	if *dir == "" && fs.NArg() > 0 {
		// fsck (and friends) also accept the database directory as a
		// positional argument: hyrise-nv fsck /path/to/db
		*dir = fs.Arg(0)
	}
	if *dir == "" {
		log.Fatal("-dir is required")
	}

	mode := txn.ModeNVM
	if *modeName == "log" {
		mode = txn.ModeLog
	} else if *modeName != "nvm" {
		log.Fatalf("unknown mode %q", *modeName)
	}
	model := disk.Model{}
	if *ssd {
		model = disk.SSD2016
	}

	// Every subcommand opens the database at the shard count it was
	// created with; a new directory is a fleet of one.
	shards, err := shard.RecordedShards(*dir)
	if err != nil {
		log.Fatal(err)
	}
	open := func() *shard.Engine {
		e, err := shard.Open(shard.Config{
			Config: core.Config{
				Mode: mode, Dir: *dir,
				NVMHeapSize: 256<<20 + uint64(*rows)*2000,
				DiskModel:   model,
			},
			Shards: shards,
		})
		if err != nil {
			log.Fatal(err)
		}
		return e
	}

	switch cmd {
	case "load":
		e := open()
		start := time.Now()
		if _, err := workload.Load(e, "orders", workload.DefaultSpec(*rows)); err != nil {
			log.Fatal(err)
		}
		if mode == txn.ModeLog {
			if err := e.Checkpoint(); err != nil {
				log.Fatal(err)
			}
		}
		fmt.Printf("loaded %d rows in %s (%s mode)\n", *rows, time.Since(start).Round(time.Millisecond), mode)
		if err := e.Close(); err != nil {
			log.Fatal(err)
		}

	case "run":
		e := open()
		defer e.Close()
		tbl, err := e.Table("orders")
		if err != nil {
			log.Fatal(err)
		}
		mix := workload.ReadHeavy
		if *write {
			mix = workload.WriteHeavy
		}
		spec := workload.DefaultSpec(*rows)
		stats := workload.RunMixed(e, tbl, spec, mix, *ops, *threads)
		fmt.Printf("%d ops in %s: %.0f ops/s (%d commits, %d conflicts, %d errors)\n",
			stats.Ops, stats.Duration.Round(time.Millisecond), stats.OpsPerSec(),
			stats.Commits, stats.Conflicts, stats.Errors)

	case "crash":
		e := open()
		tbl, err := e.Table("orders")
		if err != nil {
			log.Fatal(err)
		}
		// Leave a transaction in flight and exit without closing —
		// the simulated power failure of the demo.
		tx := e.Begin()
		spec := workload.DefaultSpec(*rows)
		rng := rand.New(rand.NewSource(int64(os.Getpid())))
		for i := 0; i < 5; i++ {
			if _, err := tx.Insert(tbl, spec.Row(rng, *rows+1000+i)); err != nil {
				log.Fatal(err)
			}
		}
		fmt.Println("transaction in flight — simulating power failure (no Close, no Commit)")
		os.Exit(1)

	case "recover":
		start := time.Now()
		e := open()
		tbl, err := e.Table("orders")
		if err != nil {
			log.Fatal(err)
		}
		ids, err := e.Begin().Select(context.Background(), tbl)
		if err != nil {
			log.Fatal(err)
		}
		n := len(ids)
		firstQuery := time.Since(start)
		rs := e.RecoveryStats()
		fmt.Printf("time to first query: %s (%d visible rows)\n", firstQuery.Round(time.Microsecond), n)
		switch mode {
		case txn.ModeLog:
			fmt.Printf("  checkpoint load: %s (%d bytes)\n", rs.CheckpointLoad.Round(time.Microsecond), rs.CheckpointBytes)
			fmt.Printf("  log replay:      %s (%d records, %d bytes)\n", rs.LogReplay.Round(time.Microsecond), rs.ReplayRecords, rs.ReplayBytes)
			fmt.Printf("  index rebuild:   %s\n", rs.IndexRebuild.Round(time.Microsecond))
		case txn.ModeNVM:
			fmt.Printf("  in-flight contexts: %d (rolled back %d, stamps undone %d)\n",
				rs.LiveContexts, rs.InFlightRolledBack, rs.EntriesUndone)
		}
		e.Close()

	case "stats":
		e := open()
		defer e.Close()
		for _, t := range e.Tables() {
			fmt.Printf("table %-12s id=%d main=%d delta=%d total=%d\n",
				t.Name, t.ID(), t.MainRows(), t.DeltaRows(), t.Rows())
		}
		for i, h := range e.Heaps() {
			s := h.Stats()
			fmt.Printf("shard %d nvm heap: %s used of %s, %d flushes, %d fences\n",
				i, byteCount(s.BytesUsed), byteCount(h.Size()), s.Flushes, s.Fences)
		}

	case "import":
		e := open()
		defer e.Close()
		f, err := os.Open(*input)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		var idxCols []string
		if *indexed != "" {
			idxCols = strings.Split(*indexed, ",")
		}
		_, n, err := csvio.Import(e, *table, f, 1000, idxCols...)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("imported %d rows into %s\n", n, *table)

	case "export":
		e := open()
		defer e.Close()
		tbl, err := e.Table(*table)
		if err != nil {
			log.Fatal(err)
		}
		out := os.Stdout
		if *output != "" {
			out, err = os.Create(*output)
			if err != nil {
				log.Fatal(err)
			}
			defer out.Close()
		}
		n, err := csvio.Export(out, e.Begin(), tbl)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "exported %d rows from %s\n", n, *table)

	case "verify":
		e := open()
		defer e.Close()
		for i := 0; i < e.Shards(); i++ {
			rep, err := e.Shard(i).Check()
			if err != nil {
				log.Fatalf("CONSISTENCY VIOLATION (shard %d): %v", i, err)
			}
			printTables(i, rep)
		}

	case "fsck":
		// Offline integrity check of every shard's NVM heap: allocator
		// walk with reachability, deep structural walk of every
		// persistent object, MVCC stamp invariants, plus the logical
		// Table.Check. Opening the fleet also replays the coordinator's
		// decision resolution. Never creates a heap — fsck of a missing
		// database is an error.
		if mode != txn.ModeNVM {
			log.Fatal("fsck applies to -mode nvm databases only")
		}
		for i := 0; i < shards; i++ {
			if _, err := os.Stat(filepath.Join(shard.ShardDir(*dir, shards, i), "heap.nvm")); err != nil {
				log.Fatalf("fsck: %v", err)
			}
		}
		e := open()
		defer e.Close()
		for i := 0; i < e.Shards(); i++ {
			rep, err := e.Shard(i).Fsck()
			if rep != nil && rep.Heap != nil {
				h := rep.Heap
				fmt.Printf("shard %d heap: %d blocks (%d reserved, %d free), %s arena used\n",
					i, h.Blocks, h.Reserved, h.Free, byteCount(h.ArenaBytes))
				if h.StrandedFree > 0 || h.StrandedReserved > 0 {
					fmt.Printf("shard %d heap: %d stranded free, %d stranded reserved (crash leaks; scavenge reclaims)\n",
						i, h.StrandedFree, h.StrandedReserved)
				}
			}
			if err != nil {
				log.Fatalf("FSCK FAILED (shard %d): %v", i, err)
			}
			printTables(i, rep.Tables)
		}
		fmt.Printf("fsck: clean (%d shards)\n", e.Shards())

	case "merge":
		e := open()
		defer e.Close()
		stats, err := e.Merge("orders")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("merged: %d rows -> %d (dropped %d dead versions)\n",
			stats.RowsBefore, stats.RowsAfter, stats.DeadDropped)

	default:
		usage()
	}
}

// printTables prints one shard's per-table consistency report.
func printTables(shard int, rep core.CheckReport) {
	for name, tr := range rep.Tables {
		fmt.Printf("shard %d table %-12s OK: main=%d delta=%d visible=%d dead=%d dict=%d indexedCols=%d\n",
			shard, name, tr.MainRows, tr.DeltaRows, tr.VisibleRows, tr.DeadRows, tr.DictEntries, tr.IndexedCols)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: hyrise-nv <load|run|crash|recover|merge|verify|fsck|import|export|stats|connect> [flags]
run "hyrise-nv <cmd> -h" for the flags of each command;
"hyrise-nv connect" drives a running hyrise-nvd over TCP`)
	os.Exit(2)
}

func byteCount(b uint64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2fGiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	default:
		return fmt.Sprintf("%dB", b)
	}
}
