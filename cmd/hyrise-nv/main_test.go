package main

import (
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"hyrisenv/internal/core"
	"hyrisenv/internal/shard"
	"hyrisenv/internal/txn"
	"hyrisenv/internal/workload"
)

// TestMain doubles as the hyrise-nv command when the test binary is
// re-run with a subcommand as its first argument (the test runner's own
// arguments are all flags), so the tests below drive the real command
// line — log.Fatal exits included — in a child process.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && !strings.HasPrefix(os.Args[1], "-") {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// hyriseNV runs one subcommand against dir and returns its output.
func hyriseNV(t *testing.T, dir string, args ...string) string {
	t.Helper()
	args = append(args[:1:1], append([]string{"-dir", dir}, args[1:]...)...)
	out, err := exec.Command(os.Args[0], args...).CombinedOutput()
	if err != nil {
		t.Fatalf("hyrise-nv %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	return string(out)
}

// TestEverySubcommandOpensTheFleet creates NVM databases of one and of
// two shards with rows on every shard, and checks that stats, verify,
// recover, export and fsck open each at its recorded shard count: they
// see the fleet's table and all of its rows, and none plants a heap of
// its own at the top of a sharded directory.
func TestEverySubcommandOpensTheFleet(t *testing.T) {
	const rows = 300
	for _, shards := range []int{1, 2} {
		dir := t.TempDir()
		e, err := shard.Open(shard.Config{
			Config: core.Config{Mode: txn.ModeNVM, Dir: dir, NVMHeapSize: 16 << 20},
			Shards: shards,
		})
		if err != nil {
			t.Fatal(err)
		}
		tbl, err := e.CreateTable("orders", workload.Schema(), "id")
		if err != nil {
			t.Fatal(err)
		}
		spec, rng, tx := workload.DefaultSpec(rows), rand.New(rand.NewSource(1)), e.Begin()
		for i := 0; i < rows; i++ {
			if _, err := tx.Insert(tbl, spec.Row(rng, i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < shards; i++ {
			if tbl.Part(i).Rows() == 0 {
				t.Fatalf("%d shards: shard %d holds no rows", shards, i)
			}
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}

		if out := hyriseNV(t, dir, "stats"); !strings.Contains(out, "total=300") {
			t.Errorf("%d shards: stats does not report the table's %d rows:\n%s", shards, rows, out)
		}
		if out := hyriseNV(t, dir, "verify"); strings.Count(out, "table orders") != shards {
			t.Errorf("%d shards: verify does not check the table on every shard:\n%s", shards, out)
		}
		if out := hyriseNV(t, dir, "recover"); !strings.Contains(out, "(300 visible rows)") {
			t.Errorf("%d shards: recover does not see the table's %d rows:\n%s", shards, rows, out)
		}
		csv := filepath.Join(t.TempDir(), "orders.csv")
		hyriseNV(t, dir, "export", "-o", csv)
		b, err := os.ReadFile(csv)
		if err != nil {
			t.Fatal(err)
		}
		if lines := strings.Count(string(b), "\n"); lines != rows+1 {
			t.Errorf("%d shards: export wrote %d lines, want a header and %d rows", shards, lines, rows)
		}
		if out := hyriseNV(t, dir, "fsck"); !strings.Contains(out, "fsck: clean") {
			t.Errorf("%d shards: fsck is not clean:\n%s", shards, out)
		}

		_, err = os.Stat(filepath.Join(dir, "heap.nvm"))
		if top := err == nil; top != (shards == 1) {
			t.Errorf("%d shards: top-level heap.nvm present = %v", shards, top)
		}
	}
}

// TestFsckNeverCreatesAHeap checks that fsck of a missing heap — the
// whole database, or one shard of a fleet — fails and creates nothing.
func TestFsckNeverCreatesAHeap(t *testing.T) {
	empty := t.TempDir()
	fleet := t.TempDir()
	e, err := shard.Open(shard.Config{
		Config: core.Config{Mode: txn.ModeNVM, Dir: fleet, NVMHeapSize: 16 << 20},
		Shards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	lost := filepath.Join(shard.ShardDir(fleet, 2, 1), "heap.nvm")
	if err := os.Remove(lost); err != nil {
		t.Fatal(err)
	}
	for dir, heap := range map[string]string{empty: filepath.Join(empty, "heap.nvm"), fleet: lost} {
		out, err := exec.Command(os.Args[0], "fsck", "-dir", dir).CombinedOutput()
		if err == nil {
			t.Errorf("fsck of %s with no %s succeeded:\n%s", dir, heap, out)
		}
		if _, err := os.Stat(heap); !os.IsNotExist(err) {
			t.Errorf("fsck created %s (stat: %v)", heap, err)
		}
	}
}
