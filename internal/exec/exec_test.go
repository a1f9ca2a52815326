package exec_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"hyrisenv/internal/core"
	"hyrisenv/internal/exec"
	"hyrisenv/internal/storage"
	"hyrisenv/internal/txn"
)

// buildTable loads a volatile engine with rows spanning several morsels
// in both the main and the delta partition, plus some deleted rows so
// MVCC visibility actually filters.
//
// Columns: id (int64, indexed, unique), region (string, 4 values),
// amount (float64, = id).
func buildTable(t testing.TB, rows int) (*core.Engine, *storage.Table) {
	t.Helper()
	e, err := core.Open(core.Config{Mode: txn.ModeNone})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	sch, _ := storage.NewSchema(
		storage.ColumnDef{Name: "id", Type: storage.TypeInt64},
		storage.ColumnDef{Name: "region", Type: storage.TypeString},
		storage.ColumnDef{Name: "amount", Type: storage.TypeFloat64},
	)
	tbl, err := e.CreateTable("sales", sch, "id")
	if err != nil {
		t.Fatal(err)
	}
	regions := []string{"north", "south", "east", "west"}
	load := func(from, to int) {
		const batch = 2000
		for done := from; done < to; done += batch {
			tx := e.Begin()
			for i := done; i < done+batch && i < to; i++ {
				if _, err := tx.Insert(tbl, []storage.Value{
					storage.Int(int64(i)),
					storage.Str(regions[i%len(regions)]),
					storage.Float(float64(i)),
				}); err != nil {
					t.Fatal(err)
				}
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Three quarters before the merge (main), one quarter after (delta).
	load(0, rows*3/4)
	if _, err := e.Merge("sales"); err != nil {
		t.Fatal(err)
	}
	load(rows*3/4, rows)
	// Delete every 97th row so the invalidated-map path is exercised.
	tx := e.Begin()
	for r := uint64(0); r < tbl.Rows(); r += 97 {
		if err := tx.Delete(tbl, r); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return e, tbl
}

// TestParallelMatchesSerial is the core determinism contract: a
// parallel executor returns bit-identical results to the serial one on
// a table large enough for several morsels per partition.
func TestParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-morsel table build")
	}
	const rows = 3 * exec.MorselRows // ~49k: 3+ morsels in main, 1 in delta
	e, tbl := buildTable(t, rows)
	par := exec.New(4)
	ctx := context.Background()
	tx := e.Begin()

	eqRows := func(t *testing.T, got, want []uint64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("row count %d, want %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("row[%d] = %d, want %d", i, got[i], want[i])
			}
		}
	}

	t.Run("Select", func(t *testing.T) {
		preds := []exec.Pred{
			{Col: 1, Op: exec.Eq, Val: storage.Str("north")},
			{Col: 2, Op: exec.Lt, Val: storage.Float(float64(rows) * 0.9)},
		}
		want, err := exec.Serial.Select(ctx, tx, tbl, preds...)
		if err != nil {
			t.Fatal(err)
		}
		got, err := par.Select(ctx, tx, tbl, preds...)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 {
			t.Fatal("empty result — fixture broken")
		}
		eqRows(t, got, want)
		// Ascending row-ID order.
		for i := 1; i < len(got); i++ {
			if got[i-1] >= got[i] {
				t.Fatalf("rows not ascending at %d: %d >= %d", i, got[i-1], got[i])
			}
		}
	})

	t.Run("Count", func(t *testing.T) {
		pred := exec.Pred{Col: 1, Op: exec.Ne, Val: storage.Str("east")}
		want, err := exec.Serial.Count(ctx, tx, tbl, pred)
		if err != nil {
			t.Fatal(err)
		}
		got, err := par.Count(ctx, tx, tbl, pred)
		if err != nil {
			t.Fatal(err)
		}
		if got != want || got == 0 {
			t.Fatalf("count = %d, want %d", got, want)
		}
	})

	t.Run("ScanAll", func(t *testing.T) {
		want, err := exec.Serial.ScanAll(ctx, tx, tbl)
		if err != nil {
			t.Fatal(err)
		}
		got, err := par.ScanAll(ctx, tx, tbl)
		if err != nil {
			t.Fatal(err)
		}
		eqRows(t, got, want)
	})

	t.Run("SelectRangeUnindexed", func(t *testing.T) {
		// amount has no index: falls back to the parallel scan.
		want, err := exec.Serial.SelectRange(ctx, tx, tbl, 2, storage.Float(100), storage.Float(30000))
		if err != nil {
			t.Fatal(err)
		}
		got, err := par.SelectRange(ctx, tx, tbl, 2, storage.Float(100), storage.Float(30000))
		if err != nil {
			t.Fatal(err)
		}
		eqRows(t, got, want)
	})

	t.Run("GroupBy", func(t *testing.T) {
		want, err := exec.Serial.GroupBy(ctx, tx, tbl, 1, 2)
		if err != nil {
			t.Fatal(err)
		}
		got, err := par.GroupBy(ctx, tx, tbl, 1, 2)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("groups = %d, want %d", len(got), len(want))
		}
		for i := range got {
			// Amounts are small integers, so float64 sums are exact in
			// any summation order.
			if got[i].Key != want[i].Key || got[i].Count != want[i].Count || got[i].Sum != want[i].Sum {
				t.Fatalf("group[%d] = %+v, want %+v", i, got[i], want[i])
			}
		}
	})

	t.Run("HashJoin", func(t *testing.T) {
		// Self-join on the unique id column: one pair per visible row.
		want, err := exec.Serial.HashJoin(ctx, tx, tbl, 0, tbl, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, err := par.HashJoin(ctx, tx, tbl, 0, tbl, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) || len(got) == 0 {
			t.Fatalf("pairs = %d, want %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("pair[%d] = %+v, want %+v", i, got[i], want[i])
			}
		}
	})
}

// TestUncommittedWritesVisible checks own-write visibility survives the
// parallel path.
func TestUncommittedWritesVisible(t *testing.T) {
	e, tbl := buildTable(t, 2000)
	par := exec.New(4)
	ctx := context.Background()
	tx := e.Begin()
	if _, err := tx.Insert(tbl, []storage.Value{
		storage.Int(99999), storage.Str("north"), storage.Float(1),
	}); err != nil {
		t.Fatal(err)
	}
	n, err := par.Count(ctx, tx, tbl, exec.Pred{Col: 0, Op: exec.Eq, Val: storage.Int(99999)})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("own insert invisible: count = %d", n)
	}
	// Another transaction must not see it.
	other := e.Begin()
	n, err = par.Count(ctx, other, tbl, exec.Pred{Col: 0, Op: exec.Eq, Val: storage.Int(99999)})
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("uncommitted insert leaked: count = %d", n)
	}
	tx.Abort()
}

// TestCancellation: a cancelled context aborts every operator before
// (or during) the scan.
func TestCancellation(t *testing.T) {
	e, tbl := buildTable(t, 2000)
	par := exec.New(4)
	tx := e.Begin()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := par.Select(ctx, tx, tbl); !errors.Is(err, context.Canceled) {
		t.Fatalf("Select err = %v", err)
	}
	if _, err := par.Count(ctx, tx, tbl); !errors.Is(err, context.Canceled) {
		t.Fatalf("Count err = %v", err)
	}
	if _, err := par.SelectRange(ctx, tx, tbl, 2, storage.Float(0), storage.Float(1)); !errors.Is(err, context.Canceled) {
		t.Fatalf("SelectRange err = %v", err)
	}
	if _, err := par.GroupBy(ctx, tx, tbl, 1, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("GroupBy err = %v", err)
	}
	if _, err := par.HashJoin(ctx, tx, tbl, 0, tbl, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("HashJoin err = %v", err)
	}
}

// TestValidation: bad column indexes and mistyped values are rejected
// with the sentinel errors the API and wire layers map onto.
func TestValidation(t *testing.T) {
	e, tbl := buildTable(t, 100)
	ctx := context.Background()
	tx := e.Begin()

	if _, err := exec.Serial.Select(ctx, tx, tbl, exec.Pred{Col: 7, Op: exec.Eq, Val: storage.Int(0)}); !errors.Is(err, exec.ErrBadColumn) {
		t.Fatalf("out-of-range column: %v", err)
	}
	if _, err := exec.Serial.Select(ctx, tx, tbl, exec.Pred{Col: -1, Op: exec.Eq, Val: storage.Int(0)}); !errors.Is(err, exec.ErrBadColumn) {
		t.Fatalf("negative column: %v", err)
	}
	if _, err := exec.Serial.Count(ctx, tx, tbl, exec.Pred{Col: 0, Op: exec.Eq, Val: storage.Str("x")}); !errors.Is(err, exec.ErrBadValue) {
		t.Fatalf("string against int column: %v", err)
	}
	if _, err := exec.Serial.SelectRange(ctx, tx, tbl, 0, storage.Int(0), storage.Float(1)); !errors.Is(err, exec.ErrBadValue) {
		t.Fatalf("mistyped range bound: %v", err)
	}
	if _, err := exec.Serial.GroupBy(ctx, tx, tbl, 9, -1); !errors.Is(err, exec.ErrBadColumn) {
		t.Fatalf("GroupBy bad column: %v", err)
	}
	if _, err := exec.Serial.HashJoin(ctx, tx, tbl, 0, tbl, 1); !errors.Is(err, exec.ErrBadValue) {
		t.Fatalf("join type mismatch: %v", err)
	}
	if _, err := exec.Serial.HashJoin(ctx, tx, tbl, 3, tbl, 0); !errors.Is(err, exec.ErrBadColumn) {
		t.Fatalf("join bad column: %v", err)
	}
}

// TestExecutorSharedAcrossGoroutines: one Executor value serving many
// concurrent transactions (the server's usage pattern).
func TestExecutorSharedAcrossGoroutines(t *testing.T) {
	e, tbl := buildTable(t, 4000)
	par := exec.New(4)
	ctx := context.Background()
	want, err := par.Count(ctx, e.Begin(), tbl)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			tx := e.Begin()
			for i := 0; i < 20; i++ {
				n, err := par.Count(ctx, tx, tbl)
				if err != nil {
					done <- err
					return
				}
				if n != want {
					done <- errors.New("count drifted across goroutines")
					return
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestNewParallelismDefaults(t *testing.T) {
	if got := exec.New(1).Parallelism(); got != 1 {
		t.Fatalf("New(1) = %d workers", got)
	}
	if got := exec.New(0).Parallelism(); got < 1 {
		t.Fatalf("New(0) = %d workers", got)
	}
	if got := exec.New(-3).Parallelism(); got < 1 {
		t.Fatalf("New(-3) = %d workers", got)
	}
	if got := exec.New(6).Parallelism(); got != 6 {
		t.Fatalf("New(6) = %d workers", got)
	}
}

// TestCountBytesFlatInDeltaDictionary: what one Count allocates does not
// grow with the number of keys in the delta's dictionary. Equality binds
// to one value ID and the order operators compare key words the column
// builds once, at the first scan — nothing is made per dictionary ID per
// query. Two deltas of the same rows, one with 64 distinct keys per column
// and one with a key per row, are counted with every operator on an Int64
// and a String column.
func TestCountBytesFlatInDeltaDictionary(t *testing.T) {
	const rows = 8192
	perCount := func(distinct int) float64 {
		e, err := core.Open(core.Config{Mode: txn.ModeNone})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		sch, _ := storage.NewSchema(
			storage.ColumnDef{Name: "k", Type: storage.TypeInt64},
			storage.ColumnDef{Name: "s", Type: storage.TypeString},
		)
		tbl, err := e.CreateTable("dict", sch)
		if err != nil {
			t.Fatal(err)
		}
		tx := e.Begin()
		for i := 0; i < rows; i++ {
			k := int64(i % distinct)
			if _, err := tx.Insert(tbl, []storage.Value{storage.Int(k), storage.Str(fmt.Sprintf("key-%08d", k))}); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		var preds [][]exec.Pred
		for _, op := range []exec.Op{exec.Eq, exec.Ne, exec.Lt, exec.Le, exec.Gt, exec.Ge} {
			preds = append(preds,
				[]exec.Pred{{Col: 0, Op: op, Val: storage.Int(int64(distinct / 2))}},
				[]exec.Pred{{Col: 1, Op: op, Val: storage.Str(fmt.Sprintf("key-%08d", distinct/2))}})
		}
		ctx := context.Background()
		reader := e.Begin()
		defer reader.Abort()
		count := func() {
			for _, p := range preds {
				if _, err := exec.Serial.Count(ctx, reader, tbl, p...); err != nil {
					t.Fatal(err)
				}
			}
		}
		count() // the first scan builds the key words
		const runs = 10
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			count()
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs*len(preds))
	}
	small, large := perCount(64), perCount(rows)
	t.Logf("bytes per Count: %.0f with 64 keys per column, %.0f with %d", small, large, rows)
	if large > small+512 {
		t.Fatalf("a Count allocates %.0f bytes over a delta of %d keys per column, %.0f over one of 64", large, rows, small)
	}
}
