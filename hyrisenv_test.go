package hyrisenv

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"hyrisenv/internal/nvm"
)

// Read helpers over the context-aware Tx methods; an executor error in
// these fixed-schema tests is a test bug.
func count(t *testing.T, tx *Tx, tbl *Table, preds ...Pred) int {
	t.Helper()
	n, err := tx.CountContext(context.Background(), tbl, preds...)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func sel(t *testing.T, tx *Tx, tbl *Table, preds ...Pred) []uint64 {
	t.Helper()
	rows, err := tx.SelectContext(context.Background(), tbl, preds...)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func rowOf(t *testing.T, tx *Tx, tbl *Table, row uint64) []Value {
	t.Helper()
	vals, err := tx.RowContext(context.Background(), tbl, row)
	if err != nil {
		t.Fatal(err)
	}
	return vals
}

func orderCols() []Column {
	return []Column{
		{Name: "id", Type: Int64},
		{Name: "customer", Type: String},
		{Name: "amount", Type: Float64},
	}
}

func openAll(t *testing.T) map[string]*DB {
	t.Helper()
	out := map[string]*DB{}
	for _, mode := range []Mode{Volatile, LogBased, NVM} {
		cfg := Config{Mode: mode, NVMHeapSize: 256 << 20}
		if mode != Volatile {
			cfg.Dir = t.TempDir()
		}
		db, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		out[mode.String()] = db
	}
	return out
}

func TestPublicAPICRUD(t *testing.T) {
	for name, db := range openAll(t) {
		t.Run(name, func(t *testing.T) {
			tbl, err := db.CreateTable("orders", orderCols(), "id", "customer")
			if err != nil {
				t.Fatal(err)
			}
			tx := db.Begin()
			for i := int64(0); i < 20; i++ {
				if _, err := tx.Insert(tbl, Int(i), Str(fmt.Sprintf("c%d", i%4)), Float(float64(i))); err != nil {
					t.Fatal(err)
				}
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}

			rd := db.Begin()
			if got := count(t, rd, tbl); got != 20 {
				t.Fatalf("Count = %d", got)
			}
			rows := sel(t, rd, tbl, Pred{Col: "customer", Op: Eq, Val: Str("c2")})
			if len(rows) != 5 {
				t.Fatalf("Select customer=c2: %d", len(rows))
			}
			rows, err = rd.SelectRangeContext(context.Background(), tbl, "id", Int(5), Int(9))
			if err != nil {
				t.Fatal(err)
			}
			if len(rows) != 4 {
				t.Fatalf("SelectRange: %d", len(rows))
			}
			row := sel(t, rd, tbl, Pred{Col: "id", Op: Eq, Val: Int(7)})[0]
			vals := rowOf(t, rd, tbl, row)
			if vals[0].I != 7 || vals[1].S != "c3" || vals[2].F != 7 {
				t.Fatalf("Row = %v", vals)
			}

			// Update and delete.
			wr := db.Begin()
			if _, err := wr.Update(tbl, row, Int(7), Str("vip"), Float(700)); err != nil {
				t.Fatal(err)
			}
			victim := sel(t, wr, tbl, Pred{Col: "id", Op: Eq, Val: Int(3)})[0]
			if err := wr.Delete(tbl, victim); err != nil {
				t.Fatal(err)
			}
			if err := wr.Commit(); err != nil {
				t.Fatal(err)
			}
			rd2 := db.Begin()
			if got := count(t, rd2, tbl); got != 19 {
				t.Fatalf("after update+delete Count = %d", got)
			}
			if got := count(t, rd2, tbl, Pred{Col: "customer", Op: Eq, Val: Str("vip")}); got != 1 {
				t.Fatalf("updated row: %d", got)
			}

			// Merge through the public API.
			if err := db.Merge("orders"); err != nil {
				t.Fatal(err)
			}
			if tbl.MainRows() != 19 || tbl.DeltaRows() != 0 {
				t.Fatalf("after merge: main=%d delta=%d", tbl.MainRows(), tbl.DeltaRows())
			}
			rd3 := db.Begin()
			if got := count(t, rd3, tbl); got != 19 {
				t.Fatalf("post-merge Count = %d", got)
			}
		})
	}
}

func TestPublicAPIRestart(t *testing.T) {
	for _, mode := range []Mode{LogBased, NVM} {
		t.Run(mode.String(), func(t *testing.T) {
			dir := t.TempDir()
			db, err := Open(Config{Mode: mode, Dir: dir, NVMHeapSize: 256 << 20})
			if err != nil {
				t.Fatal(err)
			}
			tbl, _ := db.CreateTable("orders", orderCols(), "id")
			tx := db.Begin()
			for i := int64(0); i < 30; i++ {
				tx.Insert(tbl, Int(i), Str("x"), Float(0))
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}

			db2, err := Open(Config{Mode: mode, Dir: dir, NVMHeapSize: 256 << 20})
			if err != nil {
				t.Fatal(err)
			}
			defer db2.Close()
			tbl2, err := db2.Table("orders")
			if err != nil {
				t.Fatal(err)
			}
			rd := db2.Begin()
			if got := count(t, rd, tbl2); got != 30 {
				t.Fatalf("Count after restart = %d", got)
			}
			rs := db2.RecoveryStats()
			if rs.Mode != mode || rs.TablesOpened != 1 {
				t.Fatalf("RecoveryStats = %+v", rs)
			}
			if mode == NVM && (rs.InFlightRolledBack != 0 || rs.EntriesUndone != 0) {
				t.Fatalf("clean NVM restart did work: %+v", rs)
			}
			if mode == LogBased && rs.CheckpointLoad == 0 && rs.LogReplay == 0 {
				t.Fatalf("log restart reported no work: %+v", rs)
			}
		})
	}
}

func TestPublicAPINVMStats(t *testing.T) {
	db, err := Open(Config{Mode: NVM, Dir: t.TempDir(), NVMHeapSize: 256 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl, _ := db.CreateTable("t", orderCols())
	db.ResetNVMStats()
	tx := db.Begin()
	tx.Insert(tbl, Int(1), Str("a"), Float(1))
	tx.Commit()
	s := db.NVMStats()
	if s.Flushes == 0 || s.Fences == 0 || s.BytesUsed == 0 {
		t.Fatalf("NVMStats = %+v", s)
	}
	// The public type is the heap's own: a counter added to nvm.Stats
	// cannot be dropped on the way out (Drains, Allocs and Frees once were).
	if reflect.TypeOf(s) != reflect.TypeOf(nvm.Stats{}) || s != db.Sharded().NVMStats() || s.Drains == 0 {
		t.Fatalf("NVMStats = %+v (%T), engine counts %+v", s, s, db.Sharded().NVMStats())
	}
	// Volatile DB reports zeros.
	vdb, _ := Open(Config{Mode: Volatile})
	defer vdb.Close()
	if vdb.NVMStats() != (NVMStats{}) {
		t.Fatal("volatile NVMStats non-zero")
	}
}

func TestModeString(t *testing.T) {
	if Volatile.String() != "volatile" || LogBased.String() != "log-based" || NVM.String() != "nvm" {
		t.Fatal("Mode.String")
	}
}

func TestPublicAPIGroupByAndMaintenance(t *testing.T) {
	db, err := Open(Config{
		Mode: NVM, Dir: t.TempDir(), NVMHeapSize: 256 << 20,
		MergeThresholdRows: 25,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl, _ := db.CreateTable("orders", orderCols(), "id")
	tx := db.Begin()
	for i := int64(0); i < 30; i++ {
		tx.Insert(tbl, Int(i), Str([]string{"a", "b", "c"}[i%3]), Float(float64(i)))
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	rd := db.Begin()
	groups, err := rd.GroupByContext(context.Background(), tbl, "customer", "amount")
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 3 {
		t.Fatalf("groups = %d", len(groups))
	}
	var sum float64
	for _, g := range groups {
		if g.Count != 10 {
			t.Fatalf("group %v count %d", g.Key, g.Count)
		}
		sum += g.Sum
	}
	if sum != 29*30/2 {
		t.Fatalf("sum = %g", sum)
	}
	top := TopK(groups, 1)
	if len(top) != 1 {
		t.Fatal("TopK")
	}

	// Maintenance: auto-merge fires (30 >= 25), then scavenge and check.
	if err := db.Maintain(); err != nil {
		t.Fatal(err)
	}
	if tbl.DeltaRows() != 0 || tbl.MainRows() != 30 {
		t.Fatalf("auto-merge: main=%d delta=%d", tbl.MainRows(), tbl.DeltaRows())
	}
	if _, err := db.Scavenge(); err != nil {
		t.Fatal(err)
	}
	if err := db.Check(); err != nil {
		t.Fatal(err)
	}
	// Data intact post-maintenance.
	if got := count(t, db.Begin(), tbl); got != 30 {
		t.Fatalf("count = %d", got)
	}
}

func TestPublicAPITimeTravel(t *testing.T) {
	db, err := Open(Config{Mode: NVM, Dir: t.TempDir(), NVMHeapSize: 256 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl, _ := db.CreateTable("t", orderCols(), "id")
	for i := int64(0); i < 5; i++ {
		tx := db.Begin()
		tx.Insert(tbl, Int(i), Str("x"), Float(0))
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	horizon := db.LastCommitID()
	if horizon != 5 {
		t.Fatalf("horizon = %d", horizon)
	}
	if got := count(t, db.BeginAt(2), tbl); got != 2 {
		t.Fatalf("as-of 2: %d", got)
	}
	if got := count(t, db.BeginAt(horizon), tbl); got != 5 {
		t.Fatalf("as-of horizon: %d", got)
	}
}

func TestPublicAPIJoin(t *testing.T) {
	db, _ := Open(Config{Mode: Volatile})
	defer db.Close()
	users, _ := db.CreateTable("users", []Column{
		{Name: "uid", Type: Int64}, {Name: "name", Type: String},
	}, "uid")
	posts, _ := db.CreateTable("posts", []Column{
		{Name: "pid", Type: Int64}, {Name: "author", Type: Int64},
	})
	tx := db.Begin()
	tx.Insert(users, Int(1), Str("alice"))
	tx.Insert(users, Int(2), Str("bob"))
	tx.Insert(posts, Int(10), Int(1))
	tx.Insert(posts, Int(11), Int(1))
	tx.Insert(posts, Int(12), Int(2))
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	rd := db.Begin()
	pairs, err := rd.Join(users, "uid", posts, "author")
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 3 {
		t.Fatalf("pairs = %d", len(pairs))
	}
	byName := map[string]int{}
	for _, p := range pairs {
		byName[rowOf(t, rd, users, p.Left)[1].S]++
	}
	if byName["alice"] != 2 || byName["bob"] != 1 {
		t.Fatalf("join distribution: %v", byName)
	}
}
