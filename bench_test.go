package hyrisenv

// One testing.B benchmark per experiment of the paper's evaluation
// (E1–E8, see DESIGN.md). The full parameter sweeps that regenerate the
// paper-style tables live in cmd/experiments; these benches expose the
// same code paths to `go test -bench`.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"hyrisenv/internal/core"
	"hyrisenv/internal/disk"
	"hyrisenv/internal/exec"
	"hyrisenv/internal/nvm"
	"hyrisenv/internal/shard"
	"hyrisenv/internal/storage"
	"hyrisenv/internal/txn"
	"hyrisenv/internal/workload"
)

const benchRows = 20000

func loadEngine(b *testing.B, mode txn.Mode, rows int, lat nvm.LatencyModel) (*shard.Engine, *shard.Table, string) {
	b.Helper()
	dir := b.TempDir()
	e, err := shard.Open(shard.Config{Config: core.Config{
		Mode: mode, Dir: dir, NVMHeapSize: 64<<20 + uint64(rows)*2000, NVMLatency: lat,
	}})
	if err != nil {
		b.Fatal(err)
	}
	tbl, err := workload.Load(e, "orders", workload.DefaultSpec(rows))
	if err != nil {
		b.Fatal(err)
	}
	return e, tbl, dir
}

// --- E1: restart cost ---------------------------------------------------------

func benchRecovery(b *testing.B, mode txn.Mode) {
	e, _, dir := loadEngine(b, mode, benchRows, nvm.LatencyModel{})
	if mode == txn.ModeLog {
		if err := e.Checkpoint(); err != nil {
			b.Fatal(err)
		}
	}
	if err := e.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := core.Open(core.Config{Mode: mode, Dir: dir, NVMHeapSize: 64<<20 + benchRows*2000})
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		e.Close()
		b.StartTimer()
	}
}

func BenchmarkRecoveryLog(b *testing.B) { benchRecovery(b, txn.ModeLog) }
func BenchmarkRecoveryNVM(b *testing.B) { benchRecovery(b, txn.ModeNVM) }

// --- E2: throughput by mode -----------------------------------------------------

func benchThroughput(b *testing.B, mode txn.Mode, mix workload.Mix) {
	e, tbl, _ := loadEngine(b, mode, benchRows, nvm.LatencyModel{})
	defer e.Close()
	spec := workload.DefaultSpec(benchRows)
	b.ResetTimer()
	stats := workload.RunMixed(e, tbl, spec, mix, b.N, 4)
	b.ReportMetric(stats.OpsPerSec(), "ops/s")
}

func BenchmarkThroughputDRAMReadHeavy(b *testing.B) {
	benchThroughput(b, txn.ModeNone, workload.ReadHeavy)
}
func BenchmarkThroughputDRAMWriteHeavy(b *testing.B) {
	benchThroughput(b, txn.ModeNone, workload.WriteHeavy)
}
func BenchmarkThroughputLogWriteHeavy(b *testing.B) {
	benchThroughput(b, txn.ModeLog, workload.WriteHeavy)
}
func BenchmarkThroughputNVMReadHeavy(b *testing.B) {
	benchThroughput(b, txn.ModeNVM, workload.ReadHeavy)
}
func BenchmarkThroughputNVMWriteHeavy(b *testing.B) {
	benchThroughput(b, txn.ModeNVM, workload.WriteHeavy)
}

// --- E3: NVM latency sensitivity ---------------------------------------------------

func BenchmarkNVMLatencySweep(b *testing.B) {
	for _, lat := range []int64{0, 90, 500} {
		b.Run(fmt.Sprintf("write=%dns", lat), func(b *testing.B) {
			e, tbl, _ := loadEngine(b, txn.ModeNVM, benchRows/2,
				nvm.LatencyModel{WriteNS: lat, FenceNS: lat / 3})
			defer e.Close()
			spec := workload.DefaultSpec(benchRows / 2)
			b.ResetTimer()
			stats := workload.RunMixed(e, tbl, spec, workload.WriteHeavy, b.N, 4)
			b.ReportMetric(stats.OpsPerSec(), "ops/s")
		})
	}
}

// --- E4: insert path --------------------------------------------------------------

func benchInsert(b *testing.B, mode txn.Mode) {
	e, tbl, _ := loadEngine(b, mode, 1000, nvm.LatencyModel{})
	defer e.Close()
	spec := workload.DefaultSpec(1000)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := e.Begin()
		if _, err := tx.Insert(tbl, spec.Row(rng, 1000+i)); err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInsertBreakdownDRAM(b *testing.B) { benchInsert(b, txn.ModeNone) }
func BenchmarkInsertBreakdownNVM(b *testing.B)  { benchInsert(b, txn.ModeNVM) }
func BenchmarkInsertBreakdownLog(b *testing.B)  { benchInsert(b, txn.ModeLog) }

// --- E5: log recovery with replay tail ----------------------------------------------

func BenchmarkRecoveryLogWithReplay(b *testing.B) {
	e, tbl, dir := loadEngine(b, txn.ModeLog, benchRows, nvm.LatencyModel{})
	if err := e.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	spec := workload.DefaultSpec(benchRows)
	workload.RunMixed(e, tbl, spec, workload.Mix{InsertPct: 100}, benchRows/5, 1)
	e.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := core.Open(core.Config{Mode: txn.ModeLog, Dir: dir})
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		e.Close()
		b.StartTimer()
	}
}

// --- E6: persist barriers per operation ----------------------------------------------

func BenchmarkBarrierCounts(b *testing.B) {
	e, tbl, _ := loadEngine(b, txn.ModeNVM, 1000, nvm.LatencyModel{})
	defer e.Close()
	spec := workload.DefaultSpec(1000)
	rng := rand.New(rand.NewSource(1))
	h := e.Shard(0).Heap()
	h.ResetStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := e.Begin()
		tx.Insert(tbl, spec.Row(rng, 1000+i))
		tx.Commit()
	}
	b.StopTimer()
	s := h.Stats()
	b.ReportMetric(float64(s.Flushes)/float64(b.N), "flushes/op")
	b.ReportMetric(float64(s.Fences)/float64(b.N), "fences/op")
}

// --- E7: merge ------------------------------------------------------------------------

// benchMerge times a first merge of 5000 loaded rows into an empty main
// or, if second, a second merge of 500 more into those merged rows, half
// of them updates of main rows (workload.Churn).
func benchMerge(b *testing.B, mode txn.Mode, second bool) {
	const rows = 5000
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e, tbl, _ := loadEngine(b, mode, rows, nvm.LatencyModel{})
		if second {
			if _, err := e.Merge("orders"); err != nil {
				b.Fatal(err)
			}
			if err := workload.Churn(e, tbl, workload.DefaultSpec(rows), rows/10); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		if _, err := e.Merge("orders"); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		e.Close()
		b.StartTimer()
	}
}

func BenchmarkMergeDRAM(b *testing.B)       { benchMerge(b, txn.ModeNone, false) }
func BenchmarkMergeNVM(b *testing.B)        { benchMerge(b, txn.ModeNVM, false) }
func BenchmarkSecondMergeDRAM(b *testing.B) { benchMerge(b, txn.ModeNone, true) }
func BenchmarkSecondMergeNVM(b *testing.B)  { benchMerge(b, txn.ModeNVM, true) }

// --- E8: scans and lookups ---------------------------------------------------------------

func benchScan(b *testing.B, mode txn.Mode, merged bool) {
	e, tbl, _ := loadEngine(b, mode, benchRows, nvm.LatencyModel{})
	defer e.Close()
	if merged {
		if _, err := e.Merge("orders"); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := e.Begin()
		ids, err := exec.Serial.ScanAll(context.Background(), tx.Part(0), tbl.Part(0))
		if err != nil {
			b.Fatal(err)
		}
		if len(ids) != benchRows {
			b.Fatalf("scan returned %d rows", len(ids))
		}
		exec.SumFloat(tbl.Part(0), workload.ColAmount, ids)
	}
	b.ReportMetric(float64(benchRows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

func BenchmarkScanMainDRAM(b *testing.B)  { benchScan(b, txn.ModeNone, true) }
func BenchmarkScanDeltaDRAM(b *testing.B) { benchScan(b, txn.ModeNone, false) }
func BenchmarkScanMainNVM(b *testing.B)   { benchScan(b, txn.ModeNVM, true) }
func BenchmarkScanDeltaNVM(b *testing.B)  { benchScan(b, txn.ModeNVM, false) }

func benchPointLookup(b *testing.B, mode txn.Mode) {
	e, tbl, _ := loadEngine(b, mode, benchRows, nvm.LatencyModel{})
	defer e.Close()
	if _, err := e.Merge("orders"); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	tx := e.Begin()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := exec.Serial.Select(context.Background(), tx.Part(0), tbl.Part(0), exec.Pred{
			Col: workload.ColID, Op: exec.Eq, Val: storage.Int(int64(rng.Intn(benchRows))),
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 1 {
			b.Fatalf("lookup returned %d rows", len(rows))
		}
	}
}

func BenchmarkPointLookupDRAM(b *testing.B) { benchPointLookup(b, txn.ModeNone) }
func BenchmarkPointLookupNVM(b *testing.B)  { benchPointLookup(b, txn.ModeNVM) }

var _ = disk.Model{}

// --- Analytics operators -----------------------------------------------------

func BenchmarkGroupBy(b *testing.B) {
	e, tbl, _ := loadEngine(b, txn.ModeNVM, benchRows, nvm.LatencyModel{})
	defer e.Close()
	if _, err := e.Merge("orders"); err != nil {
		b.Fatal(err)
	}
	tx := e.Begin()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		groups, err := exec.Serial.GroupBy(context.Background(), tx.Part(0), tbl.Part(0), workload.ColRegion, workload.ColAmount)
		if err != nil {
			b.Fatal(err)
		}
		if len(groups) == 0 {
			b.Fatal("no groups")
		}
	}
}

func BenchmarkHashJoin(b *testing.B) {
	e, err := shard.Open(shard.Config{Config: core.Config{Mode: txn.ModeNone}})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	w, err := workload.SetupTPCCLite(e, 500, 1000)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		if err := w.NewOrder(rng); err != nil && err != txn.ErrConflict {
			b.Fatal(err)
		}
	}
	tx := e.Begin()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pairs, err := exec.Serial.HashJoin(context.Background(), tx.Part(0), w.Orders.Part(0), 0, w.Lines.Part(0), 0)
		if err != nil {
			b.Fatal(err)
		}
		if len(pairs) == 0 {
			b.Fatal("empty join")
		}
	}
}
