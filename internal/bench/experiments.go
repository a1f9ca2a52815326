package bench

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"hyrisenv/internal/core"
	"hyrisenv/internal/disk"
	"hyrisenv/internal/exec"
	"hyrisenv/internal/mvcc"
	"hyrisenv/internal/nvm"
	"hyrisenv/internal/pstruct"
	"hyrisenv/internal/shard"
	"hyrisenv/internal/storage"
	"hyrisenv/internal/txn"
	"hyrisenv/internal/workload"
)

// Scale bounds an experiment run. Quick keeps the full suite in the tens
// of seconds; Full stretches the sweeps for clearer asymptotics.
type Scale struct {
	E1Sizes []int
	E2Rows  int
	E2Ops   int
	Threads int
	E3Rows  int
	E3Ops   int
	E7Sizes []int
	E8Rows  int
	E9Rows  int
	E12Rows int
}

// QuickScale is the fast default.
var QuickScale = Scale{
	E1Sizes: []int{5000, 20000, 50000, 100000},
	E2Rows:  20000, E2Ops: 20000, Threads: 4,
	E3Rows: 10000, E3Ops: 8000,
	E7Sizes: []int{2000, 10000, 30000},
	E8Rows:  50000,
	E9Rows:  100000,
	E12Rows: 20000,
}

// FullScale stretches the sweeps.
var FullScale = Scale{
	E1Sizes: []int{10000, 50000, 100000, 200000, 400000},
	E2Rows:  50000, E2Ops: 60000, Threads: 8,
	E3Rows: 20000, E3Ops: 20000,
	E7Sizes: []int{5000, 20000, 50000, 100000},
	E8Rows:  100000,
	E9Rows:  400000,
	E12Rows: 100000,
}

// heapFor sizes the simulated NVM device for n rows of the orders
// dataset (generous, including index and MVCC overheads).
func heapFor(n int) uint64 { return 64<<20 + uint64(n)*1500 }

// openFleet opens a fleet of one, the database the workload package
// loads; the single-heap measurements read its shard 0.
func openFleet(cfg core.Config) (*shard.Engine, error) {
	return shard.Open(shard.Config{Config: cfg})
}

func openLog(dir string, model disk.Model) (*shard.Engine, error) {
	return openFleet(core.Config{Mode: txn.ModeLog, Dir: dir, DiskModel: model})
}

func openNVM(dir string, heap uint64, lat nvm.LatencyModel) (*shard.Engine, error) {
	return openFleet(core.Config{Mode: txn.ModeNVM, Dir: dir, NVMHeapSize: heap, NVMLatency: lat})
}

// --- E1: recovery time vs dataset size (the headline experiment) -------------

// E1Recovery loads identical datasets into the log-based and the NVM
// engine, restarts both and reports time-to-first-query. The paper's
// numbers: 92.2 GB → ~53 s log-based vs < 1 s Hyrise-NV; the shapes to
// reproduce are "linear in size" vs "flat".
func E1Recovery(workDir string, sizes []int, model disk.Model) (*Report, error) {
	r := &Report{
		ID:    "E1",
		Title: "recovery time vs dataset size (log-based vs Hyrise-NV)",
		Headers: []string{"rows", "ckpt size", "log total", "ckpt load", "replay", "idx rebuild",
			"nvm total", "speedup", "replayed"},
	}
	for _, n := range sizes {
		spec := workload.DefaultSpec(n)

		// Log-based engine: load, checkpoint, then 10% extra committed
		// work so replay is exercised, then restart.
		dirL := filepath.Join(workDir, fmt.Sprintf("e1-log-%d", n))
		e, err := openLog(dirL, model)
		if err != nil {
			return nil, err
		}
		tbl, err := workload.Load(e, "orders", spec)
		if err != nil {
			return nil, err
		}
		if err := e.Checkpoint(); err != nil {
			return nil, err
		}
		workload.RunMixed(e, tbl, spec, workload.Mix{InsertPct: 100}, n/10, 1)
		if err := e.Close(); err != nil {
			return nil, err
		}
		e, err = openLog(dirL, model)
		if err != nil {
			return nil, err
		}
		logStats := e.RecoveryStats()
		if err := verifyCount(e.Shard(0), "orders", -1); err != nil {
			return nil, fmt.Errorf("E1 log n=%d: %w", n, err)
		}
		e.Close()
		os.RemoveAll(dirL)

		// NVM engine: same data, restart.
		dirN := filepath.Join(workDir, fmt.Sprintf("e1-nvm-%d", n))
		if err := os.MkdirAll(dirN, 0o755); err != nil {
			return nil, err
		}
		en, err := openNVM(dirN, heapFor(n+n/10), nvm.LatencyModel{})
		if err != nil {
			return nil, err
		}
		tblN, err := workload.Load(en, "orders", spec)
		if err != nil {
			return nil, err
		}
		workload.RunMixed(en, tblN, spec, workload.Mix{InsertPct: 100}, n/10, 1)
		if err := en.Close(); err != nil {
			return nil, err
		}
		en, err = openNVM(dirN, heapFor(n+n/10), nvm.LatencyModel{})
		if err != nil {
			return nil, err
		}
		nvmStats := en.RecoveryStats()
		if err := verifyCount(en.Shard(0), "orders", -1); err != nil {
			return nil, fmt.Errorf("E1 nvm n=%d: %w", n, err)
		}
		en.Close()
		os.RemoveAll(dirN)

		speedup := float64(logStats.Total) / float64(nvmStats.Total)
		r.AddRow(
			fmt.Sprintf("%d", n),
			fmtBytes(logStats.CheckpointBytes),
			fmtDur(logStats.Total),
			fmtDur(logStats.CheckpointLoad),
			fmtDur(logStats.LogReplay),
			fmtDur(logStats.IndexRebuild),
			fmtDur(nvmStats.Total),
			fmt.Sprintf("%.0fx", speedup),
			fmt.Sprintf("%d", logStats.ReplayRecords),
		)
	}
	r.AddNote("paper: 92.2GB dataset recovers in ~53s log-based vs <1s on NVM (>=53x); " +
		"expected shape: log total linear in rows, nvm total flat")
	r.AddNote("replayed: log records the log-based restart replayed — a count, not a timing")
	return r, nil
}

// verifyCount makes sure the recovered engine actually answers queries
// (time-to-first-query includes a real query). want < 0 skips the count
// check.
func verifyCount(e *core.Engine, table string, want int) error {
	tbl, err := e.Table(table)
	if err != nil {
		return err
	}
	tx := e.Begin()
	n := 0
	tbl.ScanVisible(tx.SnapshotCID(), 0, func(uint64) bool { n++; return true })
	if want >= 0 && n != want {
		return fmt.Errorf("recovered %d rows, want %d", n, want)
	}
	if n == 0 {
		return fmt.Errorf("recovered zero rows")
	}
	return nil
}

// --- E2: transaction throughput under durability modes -----------------------

// E2Throughput runs read-heavy and write-heavy mixes against all three
// modes. Expected shape: read-heavy nearly identical; write-heavy
// DRAM >= NVM >= log (group commit narrows the log gap).
func E2Throughput(workDir string, s Scale, model disk.Model) (*Report, error) {
	r := &Report{
		ID:      "E2",
		Title:   "transaction throughput by durability mode",
		Headers: []string{"mode", "mix", "ops/s", "commits", "conflicts"},
	}
	for _, mode := range []txn.Mode{txn.ModeNone, txn.ModeLog, txn.ModeNVM} {
		for _, mix := range []struct {
			name string
			m    workload.Mix
		}{
			{"read-only", workload.Mix{}},
			{"read-heavy 90/10", workload.ReadHeavy},
			{"write-heavy 50/50", workload.WriteHeavy},
		} {
			dir := filepath.Join(workDir, fmt.Sprintf("e2-%s-%s", mode, mix.name[:4]))
			e, err := openEngineMode(mode, dir, s.E2Rows, model, nvm.LatencyModel{})
			if err != nil {
				return nil, err
			}
			spec := workload.DefaultSpec(s.E2Rows)
			tbl, err := workload.Load(e, "orders", spec)
			if err != nil {
				return nil, err
			}
			stats := workload.RunMixed(e, tbl, spec, mix.m, s.E2Ops, s.Threads)
			e.Close()
			os.RemoveAll(dir)
			r.AddRow(mode.String(), mix.name, fmtF(stats.OpsPerSec()),
				fmt.Sprintf("%d", stats.Commits), fmt.Sprintf("%d", stats.Conflicts))
			if stats.Errors > 0 {
				r.AddNote("%s/%s: %d unexpected errors", mode, mix.name, stats.Errors)
			}
		}
	}
	r.AddNote("expected shape: read-only ~equal across modes; with writes none >= nvm >= log, " +
		"and the gap narrows as the read share grows")
	return r, nil
}

func openEngineMode(mode txn.Mode, dir string, rows int, model disk.Model, lat nvm.LatencyModel) (*shard.Engine, error) {
	switch mode {
	case txn.ModeNone:
		return openFleet(core.Config{Mode: txn.ModeNone})
	case txn.ModeLog:
		return openLog(dir, model)
	default:
		return openNVM(dir, heapFor(rows*3), lat)
	}
}

// --- E3: sensitivity to NVM write latency ------------------------------------

// E3LatencySweep reruns the write-heavy mix with increasing emulated NVM
// write latencies (the paper's emulation platform sweeps the same knob).
// Expected shape: monotonically decreasing throughput.
func E3LatencySweep(workDir string, s Scale) (*Report, error) {
	r := &Report{
		ID:      "E3",
		Title:   "write-heavy throughput vs emulated NVM write latency",
		Headers: []string{"write latency", "fence latency", "ops/s", "relative"},
	}
	var base float64
	for _, lat := range []int64{0, 90, 200, 500, 900} {
		dir := filepath.Join(workDir, fmt.Sprintf("e3-%d", lat))
		model := nvm.LatencyModel{WriteNS: lat, FenceNS: lat / 3}
		e, err := openNVM(dir, heapFor(s.E3Rows*3), model)
		if err != nil {
			return nil, err
		}
		spec := workload.DefaultSpec(s.E3Rows)
		tbl, err := workload.Load(e, "orders", spec)
		if err != nil {
			return nil, err
		}
		stats := workload.RunMixed(e, tbl, spec, workload.WriteHeavy, s.E3Ops, s.Threads)
		e.Close()
		os.RemoveAll(dir)
		ops := stats.OpsPerSec()
		if base == 0 {
			base = ops
		}
		r.AddRow(fmt.Sprintf("%dns", lat), fmt.Sprintf("%dns", lat/3),
			fmtF(ops), fmt.Sprintf("%.2f", ops/base))
	}
	r.AddNote("expected shape: throughput decreases monotonically with injected latency")
	return r, nil
}

// --- E4: insert cost breakdown -------------------------------------------------

// E4InsertBreakdown times the components of a single-row insert on both
// backends: column append (dictionary + attribute vector), MVCC append,
// index insert — what an indexed column's append costs over an
// unindexed one's, the posting of the row under its value ID — and the
// full transaction including the commit protocol.
func E4InsertBreakdown(workDir string, iters int) (*Report, error) {
	r := &Report{
		ID:      "E4",
		Title:   "single-row insert cost breakdown (per row)",
		Headers: []string{"backend", "column append", "mvcc append", "index insert", "full txn", "commit part"},
	}
	heapPath := filepath.Join(workDir, "e4-heap")
	if err := os.MkdirAll(heapPath, 0o755); err != nil {
		return nil, err
	}
	nh, err := nvm.Create(filepath.Join(heapPath, "h.nvm"), heapFor(iters*4))
	if err != nil {
		return nil, err
	}
	defer func() {
		nh.Close()
		os.RemoveAll(heapPath)
	}()
	dh, err := nvm.CreateVolatile()
	if err != nil {
		return nil, err
	}
	defer dh.Close()

	for _, backend := range []string{"dram", "nvm"} {
		h := dh
		if backend == "nvm" {
			h = nh
		}
		plain, err := storage.NewNVMDelta(h, storage.TypeInt64, false)
		if err != nil {
			return nil, err
		}
		indexed, err := storage.NewNVMDelta(h, storage.TypeInt64, true)
		if err != nil {
			return nil, err
		}
		begin, err := pstruct.NewVector(h, 8, 10)
		if err != nil {
			return nil, err
		}
		end, err := pstruct.NewVector(h, 8, 10)
		if err != nil {
			return nil, err
		}
		st := mvcc.NewStore(begin, end)

		colT := timeIt(iters, func(i int) {
			plain.Append(storage.Int(int64(i % 1024)))
		})
		mvccT := timeIt(iters, func(i int) {
			st.StageRow(1)
			h.Fence()
			st.PublishRow()
			h.Fence()
		})
		idxT := timeIt(iters, func(i int) {
			indexed.Append(storage.Int(int64(i % 1024)))
		}) - colT

		// Full transaction path through an engine.
		dir := filepath.Join(workDir, "e4-"+backend)
		var eng *shard.Engine
		if backend == "nvm" {
			eng, err = openNVM(dir, heapFor(iters*4), nvm.LatencyModel{})
		} else {
			eng, err = openFleet(core.Config{Mode: txn.ModeNone})
		}
		if err != nil {
			return nil, err
		}
		e := eng.Shard(0)
		tbl, err := e.CreateTable("t", workload.Schema(), "id")
		if err != nil {
			return nil, err
		}
		spec := workload.DefaultSpec(iters)
		rng := rand.New(rand.NewSource(1))
		fullT := timeIt(iters, func(i int) {
			tx := e.Begin()
			tx.Insert(tbl, spec.Row(rng, i))
			tx.Commit()
		})
		var commitTotal time.Duration
		for i := 0; i < iters; i++ {
			tx := e.Begin()
			tx.Insert(tbl, spec.Row(rng, iters+i))
			s := time.Now()
			tx.Commit()
			commitTotal += time.Since(s)
		}
		commitT := commitTotal / time.Duration(iters)
		e.Close()
		os.RemoveAll(dir)

		r.AddRow(backend, fmtDur(colT), fmtDur(mvccT), fmtDur(idxT), fmtDur(fullT), fmtDur(commitT))
	}
	r.AddNote("expected shape: nvm adds persist-barrier time to every component; " +
		"commit part covers stamping + lastCID persist (nvm) vs volatile stamp (dram)")
	return r, nil
}

func timeIt(iters int, fn func(i int)) time.Duration {
	start := time.Now()
	for i := 0; i < iters; i++ {
		fn(i)
	}
	return time.Since(start) / time.Duration(iters)
}

// --- E5: log-based recovery breakdown -----------------------------------------

// E5LogBreakdown decomposes log-based restart time across dataset sizes
// with a heavier post-checkpoint tail (30%), separating checkpoint read,
// log replay and index rebuild.
func E5LogBreakdown(workDir string, sizes []int, model disk.Model) (*Report, error) {
	r := &Report{
		ID:      "E5",
		Title:   "log-based recovery breakdown (30% of rows post-checkpoint)",
		Headers: []string{"rows", "ckpt load", "replay", "idx rebuild", "total", "replayed recs"},
	}
	for _, n := range sizes {
		dir := filepath.Join(workDir, fmt.Sprintf("e5-%d", n))
		e, err := openLog(dir, model)
		if err != nil {
			return nil, err
		}
		spec := workload.DefaultSpec(n)
		tbl, err := workload.Load(e, "orders", spec)
		if err != nil {
			return nil, err
		}
		if err := e.Checkpoint(); err != nil {
			return nil, err
		}
		workload.RunMixed(e, tbl, spec, workload.Mix{InsertPct: 100}, n*3/10, 1)
		if err := e.Close(); err != nil {
			return nil, err
		}
		e, err = openLog(dir, model)
		if err != nil {
			return nil, err
		}
		st := e.RecoveryStats()
		e.Close()
		os.RemoveAll(dir)
		r.AddRow(fmt.Sprintf("%d", n), fmtDur(st.CheckpointLoad), fmtDur(st.LogReplay),
			fmtDur(st.IndexRebuild), fmtDur(st.Total), fmt.Sprintf("%d", st.ReplayRecords))
	}
	r.AddNote("expected shape: every component grows with data size; replay + index rebuild dominate")
	return r, nil
}

// --- E6: persist-barrier accounting ---------------------------------------------

// E6BarrierCounts measures flushes and fences per operation type on the
// NVM engine — the cost model behind the paper's write-path overhead.
func E6BarrierCounts(workDir string) (*Report, error) {
	r := &Report{
		ID:      "E6",
		Title:   "NVM persist barriers per operation (5-column table, 2 indexes)",
		Headers: []string{"operation", "cache-line flushes", "fences"},
	}
	dir := filepath.Join(workDir, "e6")
	eng, err := openNVM(dir, heapFor(50000), nvm.LatencyModel{})
	if err != nil {
		return nil, err
	}
	defer func() {
		eng.Close()
		os.RemoveAll(dir)
	}()
	spec := workload.DefaultSpec(2000)
	stbl, err := workload.Load(eng, "orders", spec)
	if err != nil {
		return nil, err
	}
	e, tbl := eng.Shard(0), stbl.Part(0)
	h := e.Heap()

	measure := func(name string, iters int, fn func(i int)) {
		h.ResetStats()
		for i := 0; i < iters; i++ {
			fn(i)
		}
		s := h.Stats()
		r.AddRow(name,
			fmt.Sprintf("%.1f", float64(s.Flushes)/float64(iters)),
			fmt.Sprintf("%.1f", float64(s.Fences)/float64(iters)))
	}
	rng := rand.New(rand.NewSource(3))
	measure("insert+commit", 500, func(i int) {
		tx := e.Begin()
		tx.Insert(tbl, spec.Row(rng, 10000+i))
		tx.Commit()
	})
	measure("update+commit", 500, func(i int) {
		tx := e.Begin()
		rows := selectEq(tx, tbl, workload.ColID, storage.Int(int64(i)))
		if len(rows) == 0 {
			tx.Abort()
			return
		}
		vals := make([]storage.Value, tbl.Schema.NumCols())
		for c := range vals {
			vals[c] = tbl.Value(c, rows[0])
		}
		tx.Update(tbl, rows[0], vals)
		tx.Commit()
	})
	measure("delete+commit", 500, func(i int) {
		tx := e.Begin()
		rows := selectEq(tx, tbl, workload.ColID, storage.Int(int64(1000+i)))
		if len(rows) == 0 {
			tx.Abort()
			return
		}
		tx.Delete(tbl, rows[0])
		tx.Commit()
	})
	measure("read txn", 500, func(i int) {
		tx := e.Begin()
		selectEq(tx, tbl, workload.ColID, storage.Int(int64(i)))
		tx.Commit()
	})
	r.AddNote("expected shape: reads ~0 barriers; writes pay a small constant per row " +
		"(columns + index + context + stamps + lastCID)")
	return r, nil
}

// --- E7: delta→main merge -------------------------------------------------------

// E7Merge times the merge on both backends in two shapes: a first merge
// of n loaded rows into an empty main, and a second merge of n/10 delta
// rows into that merged main, half of them updates of its rows
// (workload.Churn).
func E7Merge(workDir string, sizes []int) (*Report, error) {
	r := &Report{
		ID:      "E7",
		Title:   "delta→main merge duration vs delta size",
		Headers: []string{"main rows", "delta rows", "dram merge", "nvm merge", "nvm/dram"},
	}
	for _, n := range sizes {
		for _, second := range []bool{false, true} {
			var took [2]time.Duration
			for i, mode := range []txn.Mode{txn.ModeNone, txn.ModeNVM} {
				dir := filepath.Join(workDir, fmt.Sprintf("e7-%d", n))
				e, err := openEngineMode(mode, dir, n, disk.Model{}, nvm.LatencyModel{})
				if err != nil {
					return nil, err
				}
				took[i], err = timeMerge(e, workload.DefaultSpec(n), second)
				e.Close()
				os.RemoveAll(dir)
				if err != nil {
					return nil, err
				}
			}
			mainRows, deltaRows := 0, n
			if second {
				mainRows, deltaRows = n, n/10
			}
			r.AddRow(fmt.Sprintf("%d", mainRows), fmt.Sprintf("%d", deltaRows), fmtDur(took[0]), fmtDur(took[1]),
				fmt.Sprintf("%.2fx", float64(took[1])/float64(took[0])))
		}
	}
	r.AddNote("expected shape: linear in the rows merged; dram and nvm run the same " +
		"structures and differ only by nvm's persist barriers")
	return r, nil
}

// timeMerge loads spec into e and times its merge; for a second merge it
// first merges and churns a tenth of the rows.
func timeMerge(e *shard.Engine, spec workload.Spec, second bool) (time.Duration, error) {
	tbl, err := workload.Load(e, "orders", spec)
	if err != nil {
		return 0, err
	}
	if second {
		if _, err := e.Merge("orders"); err != nil {
			return 0, err
		}
		if err := workload.Churn(e, tbl, spec, spec.Rows/10); err != nil {
			return 0, err
		}
	}
	start := time.Now()
	_, err = e.Merge("orders")
	return time.Since(start), err
}

// --- E8: scan and lookup performance ---------------------------------------------

// E8Scans measures full-column scans and indexed point lookups on main
// vs delta, DRAM vs NVM, plus an injected-read-latency NVM variant.
func E8Scans(workDir string, rows int) (*Report, error) {
	r := &Report{
		ID:      "E8",
		Title:   "scan & lookup performance (main-resident vs delta-resident)",
		Headers: []string{"backend", "layout", "full scan", "rows/s", "point lookup"},
	}
	type cfg struct {
		name string
		mode txn.Mode
		lat  nvm.LatencyModel
	}
	for _, c := range []cfg{
		{"dram", txn.ModeNone, nvm.LatencyModel{}},
		{"nvm", txn.ModeNVM, nvm.LatencyModel{}},
		{"nvm+200ns-read", txn.ModeNVM, nvm.LatencyModel{ReadNS: 200}},
	} {
		for _, layout := range []string{"main", "delta"} {
			dir := filepath.Join(workDir, "e8-"+c.name+"-"+layout)
			eng, err := openEngineMode(c.mode, dir, rows, disk.Model{}, c.lat)
			if err != nil {
				return nil, err
			}
			spec := workload.DefaultSpec(rows)
			stbl, err := workload.Load(eng, "orders", spec)
			if err != nil {
				return nil, err
			}
			e, tbl := eng.Shard(0), stbl.Part(0)
			if layout == "main" {
				if _, err := e.Merge("orders"); err != nil {
					return nil, err
				}
			}

			// Full scan of the amount column (sum).
			const scanIters = 5
			start := time.Now()
			for it := 0; it < scanIters; it++ {
				tx := e.Begin()
				ids := scanAllRows(tx, tbl)
				exec.SumFloat(tbl, workload.ColAmount, ids)
			}
			scanT := time.Since(start) / scanIters

			// Indexed point lookups.
			rng := rand.New(rand.NewSource(5))
			const lookups = 2000
			start = time.Now()
			tx := e.Begin()
			for i := 0; i < lookups; i++ {
				selectEq(tx, tbl, workload.ColID, storage.Int(int64(rng.Intn(rows))))
			}
			lookupT := time.Since(start) / lookups

			e.Close()
			os.RemoveAll(dir)
			r.AddRow(c.name, layout, fmtDur(scanT),
				fmtF(float64(rows)/scanT.Seconds()), fmtDur(lookupT))
		}
	}
	r.AddNote("expected shape: main scans faster than delta (bit-packed, sorted dict); " +
		"nvm ~= dram without read latency; injected read latency opens a gap")
	return r, nil
}

// selectEq and scanAllRows wrap the serial executor for the benchmark
// bodies, whose schemas are fixed — an executor error is a harness bug.
func selectEq(tx *txn.Txn, tbl *storage.Table, col int, val storage.Value) []uint64 {
	rows, err := exec.Serial.Select(context.Background(), tx, tbl, exec.Pred{Col: col, Op: exec.Eq, Val: val})
	if err != nil {
		panic("bench: " + err.Error())
	}
	return rows
}

func scanAllRows(tx *txn.Txn, tbl *storage.Table) []uint64 {
	rows, err := exec.Serial.ScanAll(context.Background(), tx, tbl)
	if err != nil {
		panic("bench: " + err.Error())
	}
	return rows
}
