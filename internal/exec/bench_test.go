package exec_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"hyrisenv/internal/core"
	"hyrisenv/internal/exec"
	"hyrisenv/internal/storage"
	"hyrisenv/internal/txn"
)

// benchRows sizes the scan benchmark table: ≥ 1M rows so the table
// spans ~64 morsels and per-morsel scheduling overhead is negligible
// against scan work.
const benchRows = 1 << 20

var benchOnce struct {
	sync.Once
	e   *core.Engine
	tbl *storage.Table
	err error
}

// benchTable builds the 1M-row table once per process: three quarters
// merged into the bit-packed main partition, the rest in the delta —
// the steady-state shape of a table under continuous ingest.
func benchTable(b *testing.B) (*core.Engine, *storage.Table) {
	b.Helper()
	benchOnce.Do(func() {
		e, err := core.Open(core.Config{Mode: txn.ModeNone})
		if err != nil {
			benchOnce.err = err
			return
		}
		sch, _ := storage.NewSchema(
			storage.ColumnDef{Name: "id", Type: storage.TypeInt64},
			storage.ColumnDef{Name: "region", Type: storage.TypeString},
			storage.ColumnDef{Name: "amount", Type: storage.TypeFloat64},
		)
		tbl, err := e.CreateTable("scanbench", sch, "id")
		if err != nil {
			benchOnce.err = err
			return
		}
		regions := []string{"north", "south", "east", "west", "emea", "apac", "amer", "anz"}
		load := func(from, to int) error {
			const batch = 10000
			for done := from; done < to; done += batch {
				tx := e.Begin()
				for i := done; i < done+batch && i < to; i++ {
					if _, err := tx.Insert(tbl, []storage.Value{
						storage.Int(int64(i)),
						storage.Str(regions[i%len(regions)]),
						storage.Float(float64(i % 100003)),
					}); err != nil {
						return err
					}
				}
				if err := tx.Commit(); err != nil {
					return err
				}
			}
			return nil
		}
		if err := load(0, benchRows*3/4); err != nil {
			benchOnce.err = err
			return
		}
		if _, err := e.Merge("scanbench"); err != nil {
			benchOnce.err = err
			return
		}
		if err := load(benchRows*3/4, benchRows); err != nil {
			benchOnce.err = err
			return
		}
		benchOnce.e, benchOnce.tbl = e, tbl
	})
	if benchOnce.err != nil {
		b.Fatal(benchOnce.err)
	}
	return benchOnce.e, benchOnce.tbl
}

// parDegrees are the Parallelism settings the scaling benchmarks sweep.
// On a machine with ≥ 4 cores the par=4 scan should run ≥ 2× the
// throughput of par=1 (see EXPERIMENTS.md E9); rows/s is reported in
// each result's extra metrics.
var parDegrees = []int{1, 2, 4, 8}

// BenchmarkScanPredicate is the headline number: a full-table
// non-indexed predicate scan (region != "north" AND amount < 60000)
// over 1M rows at each parallelism degree.
func BenchmarkScanPredicate(b *testing.B) {
	e, tbl := benchTable(b)
	ctx := context.Background()
	preds := []exec.Pred{
		{Col: 1, Op: exec.Ne, Val: storage.Str("north")},
		{Col: 2, Op: exec.Lt, Val: storage.Float(60000)},
	}
	for _, par := range parDegrees {
		b.Run(fmt.Sprintf("par=%d", par), func(b *testing.B) {
			ex := exec.New(par)
			tx := e.Begin()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ex.Count(ctx, tx, tbl, preds...); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(benchRows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}

// BenchmarkScanSelect materializes the matching row IDs instead of
// counting — the allocation-heavy variant.
func BenchmarkScanSelect(b *testing.B) {
	e, tbl := benchTable(b)
	ctx := context.Background()
	pred := exec.Pred{Col: 2, Op: exec.Ge, Val: storage.Float(90000)}
	for _, par := range parDegrees {
		b.Run(fmt.Sprintf("par=%d", par), func(b *testing.B) {
			ex := exec.New(par)
			tx := e.Begin()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ex.Select(ctx, tx, tbl, pred); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(benchRows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}

// BenchmarkGroupByParallel sweeps the aggregation path: GROUP BY region
// SUM(amount) over the same 1M rows.
func BenchmarkGroupByParallel(b *testing.B) {
	e, tbl := benchTable(b)
	ctx := context.Background()
	for _, par := range parDegrees {
		b.Run(fmt.Sprintf("par=%d", par), func(b *testing.B) {
			ex := exec.New(par)
			tx := e.Begin()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ex.GroupBy(ctx, tx, tbl, 1, 2); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(benchRows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}
