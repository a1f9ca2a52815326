package core

import (
	"fmt"
	"math/rand"
	"testing"

	"hyrisenv/internal/storage"
	"hyrisenv/internal/txn"
)

// Model-based testing: a random operation stream is applied both to the
// engine and to a plain map; after every step (including restarts and
// merges) the visible table contents must equal the model exactly.

func kvSchema(t *testing.T) storage.Schema {
	t.Helper()
	s, err := storage.NewSchema(
		storage.ColumnDef{Name: "k", Type: storage.TypeInt64},
		storage.ColumnDef{Name: "v", Type: storage.TypeString},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func compareToModel(t *testing.T, e *Engine, tbl *storage.Table, model map[int64]string, step int) {
	t.Helper()
	tx := e.Begin()
	got := make(map[int64]string)
	tbl.ScanVisible(tx.SnapshotCID(), 0, func(row uint64) bool {
		k := tbl.Value(0, row).I
		if prev, dup := got[k]; dup {
			t.Fatalf("step %d: key %d visible twice (%q and %q)", step, k, prev, tbl.Value(1, row).S)
		}
		got[k] = tbl.Value(1, row).S
		return true
	})
	if len(got) != len(model) {
		t.Fatalf("step %d: %d visible keys, model has %d", step, len(got), len(model))
	}
	for k, v := range model {
		if got[k] != v {
			t.Fatalf("step %d: key %d = %q, model %q", step, k, got[k], v)
		}
	}
	// Spot-check the index agrees with the scan.
	for k := range model {
		rows := selectEq(tx, tbl, 0, storage.Int(k))
		if len(rows) != 1 {
			t.Fatalf("step %d: index lookup of %d returned %d rows", step, k, len(rows))
		}
		break
	}
}

func findRow(e *Engine, tbl *storage.Table, tx *txn.Txn, k int64) (uint64, bool) {
	rows := selectEq(tx, tbl, 0, storage.Int(k))
	if len(rows) != 1 {
		return 0, false
	}
	return rows[0], true
}

func TestEngineMatchesModel(t *testing.T) {
	for _, mode := range []txn.Mode{txn.ModeLog, txn.ModeNVM} {
		t.Run(subtest(mode), func(t *testing.T) {
			dir := t.TempDir()
			e := openEngine(t, mode, dir)
			tbl, err := e.CreateTable("kv", kvSchema(t), "k")
			if err != nil {
				t.Fatal(err)
			}
			model := make(map[int64]string)
			rng := rand.New(rand.NewSource(0x30DE1))
			nextKey := int64(0)

			const steps = 600
			for step := 0; step < steps; step++ {
				switch p := rng.Intn(100); {
				case p < 40: // insert
					k := nextKey
					nextKey++
					v := fmt.Sprintf("v%d-%d", k, rng.Intn(1000))
					tx := e.Begin()
					if _, err := tx.Insert(tbl, []storage.Value{storage.Int(k), storage.Str(v)}); err != nil {
						t.Fatal(err)
					}
					if err := tx.Commit(); err != nil {
						t.Fatal(err)
					}
					model[k] = v
				case p < 60 && len(model) > 0: // update
					k := randomKey(rng, model)
					v := fmt.Sprintf("u%d-%d", k, rng.Intn(1000))
					tx := e.Begin()
					row, ok := findRow(e, tbl, tx, k)
					if !ok {
						t.Fatalf("step %d: key %d lost", step, k)
					}
					if _, err := tx.Update(tbl, row, []storage.Value{storage.Int(k), storage.Str(v)}); err != nil {
						t.Fatal(err)
					}
					if err := tx.Commit(); err != nil {
						t.Fatal(err)
					}
					model[k] = v
				case p < 72 && len(model) > 0: // delete
					k := randomKey(rng, model)
					tx := e.Begin()
					row, ok := findRow(e, tbl, tx, k)
					if !ok {
						t.Fatalf("step %d: key %d lost", step, k)
					}
					if err := tx.Delete(tbl, row); err != nil {
						t.Fatal(err)
					}
					if err := tx.Commit(); err != nil {
						t.Fatal(err)
					}
					delete(model, k)
				case p < 78: // aborted transaction: no model change
					tx := e.Begin()
					tx.Insert(tbl, []storage.Value{storage.Int(nextKey + 1000000), storage.Str("ghost")})
					if len(model) > 0 {
						k := randomKey(rng, model)
						if row, ok := findRow(e, tbl, tx, k); ok {
							tx.Delete(tbl, row)
						}
					}
					tx.Abort()
				case p < 84: // merge
					if _, err := e.Merge("kv"); err != nil {
						t.Fatal(err)
					}
				case p < 90: // restart
					if err := e.Close(); err != nil {
						t.Fatal(err)
					}
					e = openEngine(t, mode, dir)
					tbl, err = e.Table("kv")
					if err != nil {
						t.Fatal(err)
					}
				default: // checkpoint (log mode), no-op otherwise
					if mode == txn.ModeLog {
						if err := e.Checkpoint(); err != nil {
							t.Fatal(err)
						}
					}
				}
				if step%25 == 24 {
					compareToModel(t, e, tbl, model, step)
				}
			}
			compareToModel(t, e, tbl, model, steps)
		})
	}
}

func randomKey(rng *rand.Rand, m map[int64]string) int64 {
	i := rng.Intn(len(m))
	for k := range m {
		if i == 0 {
			return k
		}
		i--
	}
	panic("unreachable")
}
