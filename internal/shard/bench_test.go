package shard_test

import (
	"context"
	"fmt"
	"testing"

	"hyrisenv/internal/core"
	"hyrisenv/internal/exec"
	"hyrisenv/internal/shard"
	"hyrisenv/internal/storage"
	"hyrisenv/internal/txn"
)

// benchRows is the fixed total row count the shard-count sweep scans —
// the data volume stays constant while the partitioning varies, so the
// per-shard-count results are directly comparable.
const benchRows = 200_000

// BenchmarkScanSharded is the sharded counterpart of the exec scan
// benchmarks: a full-table predicate Count over the same total rows
// partitioned across 1/2/4/8 shards. Shards are scanned in sequence
// (each shard's scan is itself morsel-parallel), so the entries track
// the per-shard fan-out overhead at fixed data volume; rows/s is
// reported in each result's extra metrics.
func BenchmarkScanSharded(b *testing.B) {
	schema, err := storage.NewSchema(
		storage.ColumnDef{Name: "id", Type: storage.TypeInt64},
		storage.ColumnDef{Name: "amount", Type: storage.TypeInt64},
	)
	if err != nil {
		b.Fatal(err)
	}
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			eng, err := shard.Open(shard.Config{
				Config: core.Config{Mode: txn.ModeNone, Dir: b.TempDir()},
				Shards: shards,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer eng.Close()
			tbl, err := eng.CreateTable("scan", schema, "id")
			if err != nil {
				b.Fatal(err)
			}
			for done := 0; done < benchRows; done += 1000 {
				tx := eng.Begin()
				for i := done; i < done+1000 && i < benchRows; i++ {
					if _, err := tx.Insert(tbl, []storage.Value{
						storage.Int(int64(i)), storage.Int(int64(i % 100_000)),
					}); err != nil {
						b.Fatal(err)
					}
				}
				if err := tx.Commit(); err != nil {
					b.Fatal(err)
				}
			}
			ctx := context.Background()
			pred := exec.Pred{Col: 1, Op: exec.Lt, Val: storage.Int(60_000)}
			tx := eng.Begin()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := tx.Count(ctx, tbl, pred); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(benchRows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}
