package bench

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"hyrisenv/internal/core"
	"hyrisenv/internal/shard"
	"hyrisenv/internal/storage"
	"hyrisenv/internal/txn"
)

// E12Sharding measures the two properties the sharded engine claims:
// restart time stays flat as the shard count grows (each shard recovers
// 1/N of the data concurrently, so partitioning must not tax the
// paper's instant-restart result), and the cost of the cross-shard 2PC
// commit relative to the single-shard fast path.
func E12Sharding(workDir string, rows int) (*Report, error) {
	r := &Report{
		ID:    "E12",
		Title: "sharded engine: restart flatness and 2PC commit cost",
		Headers: []string{"shards", "rows", "recovery", "slowest shard", "2pc decisions",
			"vs 1 shard"},
	}

	schema, err := storage.NewSchema(
		storage.ColumnDef{Name: "id", Type: storage.TypeInt64},
		storage.ColumnDef{Name: "val", Type: storage.TypeInt64},
	)
	if err != nil {
		return nil, err
	}

	openSharded := func(dir string, shards int) (*shard.Engine, error) {
		return shard.Open(shard.Config{
			Config: core.Config{
				Mode:        txn.ModeNVM,
				Dir:         dir,
				NVMHeapSize: heapFor(rows),
			},
			Shards: shards,
		})
	}

	var base time.Duration
	for _, shards := range []int{1, 2, 4, 8} {
		dir := filepath.Join(workDir, fmt.Sprintf("e12-restart-%d", shards))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		eng, err := openSharded(dir, shards)
		if err != nil {
			return nil, err
		}
		tbl, err := eng.CreateTable("orders", schema, "id")
		if err != nil {
			return nil, err
		}
		for done := 0; done < rows; done += 1000 {
			tx := eng.Begin()
			for i := done; i < done+1000 && i < rows; i++ {
				if _, err := tx.Insert(tbl, []storage.Value{storage.Int(int64(i)), storage.Int(int64(i))}); err != nil {
					return nil, err
				}
			}
			if err := tx.Commit(); err != nil {
				return nil, err
			}
		}
		if err := eng.Close(); err != nil {
			return nil, err
		}

		eng, err = openSharded(dir, shards)
		if err != nil {
			return nil, err
		}
		rs := eng.RecoveryStats()
		// The recovered engine must actually answer queries.
		tbl, err = eng.Table("orders")
		if err != nil {
			return nil, err
		}
		n, err := eng.Begin().Count(context.Background(), tbl)
		if err != nil {
			return nil, err
		}
		if n != rows {
			return nil, fmt.Errorf("E12 shards=%d: %d rows after restart, want %d", shards, n, rows)
		}
		var slowest time.Duration
		for i := range shards {
			slowest = max(slowest, eng.Shard(i).RecoveryStats().Total)
		}
		if shards == 1 {
			base = rs.Total
		}
		ratio := float64(rs.Total) / float64(base)
		eng.Close()
		os.RemoveAll(dir)
		r.AddRow(
			fmt.Sprintf("%d", shards),
			fmt.Sprintf("%d", rows),
			fmtDur(rs.Total),
			fmtDur(slowest),
			fmt.Sprintf("%d", rs.Decisions2PC),
			fmt.Sprintf("%.2fx", ratio),
		)
	}

	single, cross, err := e12CommitCost(workDir, rows)
	if err != nil {
		return nil, err
	}
	r.AddNote("expected shape: recovery flat in shard count (per-shard recovery of 1/N the data, run concurrently)")
	r.AddNote("commit cost on 4 shards, 4-row transactions: single-shard %.0f tx/s, cross-shard (2PC) %.0f tx/s, overhead %.1fx",
		single, cross, single/cross)
	return r, nil
}

// e12CommitCost compares the single-shard commit fast path against the
// cross-shard 2PC path on a 4-shard engine: the same 4-row insert
// transaction, with keys chosen either to hash into one shard or to
// span all four.
func e12CommitCost(workDir string, txns int) (single, cross float64, err error) {
	const shards = 4
	const batch = 4
	if txns > 5000 {
		txns = 5000
	}
	dir := filepath.Join(workDir, "e12-commit")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	eng, err := shard.Open(shard.Config{
		Config: core.Config{
			Mode:        txn.ModeNVM,
			Dir:         dir,
			NVMHeapSize: heapFor(2 * txns * batch),
		},
		Shards: shards,
	})
	if err != nil {
		return 0, 0, err
	}
	defer eng.Close()
	schema, err := storage.NewSchema(
		storage.ColumnDef{Name: "id", Type: storage.TypeInt64},
		storage.ColumnDef{Name: "val", Type: storage.TypeInt64},
	)
	if err != nil {
		return 0, 0, err
	}
	tbl, err := eng.CreateTable("commits", schema, "id")
	if err != nil {
		return 0, 0, err
	}

	// Pre-pick key sequences: singleKeys all hash to shard 0, crossKeys
	// take one key per shard so every transaction must 2PC.
	singleKeys := make([]int64, 0, txns*batch)
	crossKeys := make([]int64, 0, txns*batch)
	perShard := make([][]int64, shards)
	for k := int64(0); len(singleKeys) < txns*batch || len(crossKeys) < txns*batch; k++ {
		s := eng.ShardOf(storage.Int(k))
		if s == 0 && len(singleKeys) < txns*batch {
			singleKeys = append(singleKeys, k)
			continue
		}
		if len(crossKeys) < txns*batch && len(perShard[s]) < txns {
			perShard[s] = append(perShard[s], k)
		}
		done := 0
		for _, ks := range perShard {
			done += len(ks)
		}
		if done == txns*batch && len(crossKeys) == 0 {
			for i := 0; i < txns; i++ {
				for s := 0; s < shards; s++ {
					crossKeys = append(crossKeys, perShard[s][i])
				}
			}
		}
	}

	run := func(keys []int64) (float64, error) {
		start := time.Now()
		for i := 0; i < txns; i++ {
			tx := eng.Begin()
			for j := 0; j < batch; j++ {
				if _, err := tx.Insert(tbl, []storage.Value{
					storage.Int(keys[i*batch+j]), storage.Int(keys[i*batch+j]),
				}); err != nil {
					return 0, err
				}
			}
			if err := tx.Commit(); err != nil {
				return 0, err
			}
		}
		return float64(txns) / time.Since(start).Seconds(), nil
	}
	if single, err = run(singleKeys); err != nil {
		return 0, 0, err
	}
	if cross, err = run(crossKeys); err != nil {
		return 0, 0, err
	}
	return single, cross, nil
}
