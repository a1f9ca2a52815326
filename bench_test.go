package hyrisenv

// testing.B counterparts of the restart sweep E1 and the latency sweep
// E3 (see DESIGN.md), plus the analytics operators. The sweeps that
// regenerate the paper-style tables live in cmd/experiments; these
// benches expose the same code paths to `go test -bench`.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"hyrisenv/internal/core"
	"hyrisenv/internal/exec"
	"hyrisenv/internal/nvm"
	"hyrisenv/internal/shard"
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
