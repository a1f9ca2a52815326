package shard

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"hyrisenv/internal/core"
	"hyrisenv/internal/exec"
	"hyrisenv/internal/nvm"
	"hyrisenv/internal/storage"
	"hyrisenv/internal/txn"
)

func testSchema(t *testing.T) storage.Schema {
	t.Helper()
	sch, err := storage.NewSchema(
		storage.ColumnDef{Name: "id", Type: storage.TypeInt64},
		storage.ColumnDef{Name: "grp", Type: storage.TypeString},
		storage.ColumnDef{Name: "amt", Type: storage.TypeFloat64},
	)
	if err != nil {
		t.Fatal(err)
	}
	return sch
}

// subtest names a mode's subtest by the short name these tests have
// always used (none, log, nvm), not by the mode's public name.
func subtest(m txn.Mode) string { return [...]string{"none", "log", "nvm"}[m] }

func openShards(t *testing.T, dir string, shards int, mode txn.Mode) *Engine {
	t.Helper()
	e, err := Open(Config{
		Config: core.Config{Mode: mode, Dir: dir, NVMHeapSize: 8 << 20},
		Shards: shards,
	})
	if err != nil {
		t.Fatalf("open %d shards: %v", shards, err)
	}
	return e
}

// loadRows inserts n rows (id=i, grp=g<i%4>, amt=float(i)) one
// transaction each and returns the global row IDs.
func loadRows(t *testing.T, e *Engine, tbl *Table, n int) []uint64 {
	t.Helper()
	rows := make([]uint64, n)
	for i := 0; i < n; i++ {
		tx := e.Begin()
		row, err := tx.Insert(tbl, []storage.Value{
			storage.Int(int64(i)),
			storage.Str(fmt.Sprintf("g%d", i%4)),
			storage.Float(float64(i)),
		})
		if err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
		rows[i] = row
	}
	return rows
}

func TestShardedReadsMatchUnsharded(t *testing.T) {
	ctx := context.Background()
	const n = 200

	type snapshot struct {
		count    int
		selected []int64 // ids from a predicate select
		ranged   []int64
		groups   []exec.Group
		joins    int
		ordered  []int64
	}

	take := func(e *Engine, tbl *Table) snapshot {
		tx := e.Begin()
		defer tx.Abort() //nolint:errcheck

		var s snapshot
		var err error
		if s.count, err = tx.Count(ctx, tbl); err != nil {
			t.Fatal(err)
		}
		sel, err := tx.Select(ctx, tbl, exec.Pred{Col: 1, Op: exec.Eq, Val: storage.Str("g1")})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range sel {
			vals, err := tx.Row(ctx, tbl, r)
			if err != nil {
				t.Fatal(err)
			}
			s.selected = append(s.selected, vals[0].I)
		}
		sort.Slice(s.selected, func(i, j int) bool { return s.selected[i] < s.selected[j] })

		rng, err := tx.SelectRange(ctx, tbl, 0, storage.Int(50), storage.Int(60))
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rng {
			vals, err := tx.Row(ctx, tbl, r)
			if err != nil {
				t.Fatal(err)
			}
			s.ranged = append(s.ranged, vals[0].I)
		}
		sort.Slice(s.ranged, func(i, j int) bool { return s.ranged[i] < s.ranged[j] })

		if s.groups, err = tx.GroupBy(ctx, tbl, 1, 2); err != nil {
			t.Fatal(err)
		}
		pairs, err := tx.HashJoin(ctx, tbl, 1, tbl, 1)
		if err != nil {
			t.Fatal(err)
		}
		s.joins = len(pairs)

		all, err := tx.Select(ctx, tbl)
		if err != nil {
			t.Fatal(err)
		}
		ordered, err := tx.OrderBy(tbl, all, 0, true)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range exec.Limit(ordered, 0, 5) {
			vals, err := tx.Row(ctx, tbl, r)
			if err != nil {
				t.Fatal(err)
			}
			s.ordered = append(s.ordered, vals[0].I)
		}
		return s
	}

	var ref snapshot
	for _, shards := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			e := openShards(t, t.TempDir(), shards, txn.ModeNVM)
			defer e.Close()
			tbl, err := e.CreateTable("orders", testSchema(t), "id")
			if err != nil {
				t.Fatal(err)
			}
			loadRows(t, e, tbl, n)
			s := take(e, tbl)
			if shards == 1 {
				ref = s
				if s.count != n {
					t.Fatalf("count = %d, want %d", s.count, n)
				}
				return
			}
			if s.count != ref.count {
				t.Errorf("count = %d, want %d", s.count, ref.count)
			}
			if fmt.Sprint(s.selected) != fmt.Sprint(ref.selected) {
				t.Errorf("select ids = %v, want %v", s.selected, ref.selected)
			}
			if fmt.Sprint(s.ranged) != fmt.Sprint(ref.ranged) {
				t.Errorf("range ids = %v, want %v", s.ranged, ref.ranged)
			}
			if fmt.Sprint(s.groups) != fmt.Sprint(ref.groups) {
				t.Errorf("groups = %v, want %v", s.groups, ref.groups)
			}
			if s.joins != ref.joins {
				t.Errorf("join pairs = %d, want %d", s.joins, ref.joins)
			}
			if fmt.Sprint(s.ordered) != fmt.Sprint(ref.ordered) {
				t.Errorf("ordered top-5 = %v, want %v", s.ordered, ref.ordered)
			}
		})
	}
}

// keyOnShard returns an int64 value that routes to the given shard.
func keyOnShard(t *testing.T, e *Engine, shard int, from int64) int64 {
	t.Helper()
	for k := from; k < from+100000; k++ {
		if e.ShardOf(storage.Int(k)) == shard {
			return k
		}
	}
	t.Fatalf("no key found for shard %d", shard)
	return 0
}

func TestCrossShardCommitAtomic(t *testing.T) {
	for _, mode := range []txn.Mode{txn.ModeNone, txn.ModeLog, txn.ModeNVM} {
		t.Run(subtest(mode), func(t *testing.T) {
			dir := ""
			if mode != txn.ModeNone {
				dir = t.TempDir()
			}
			e, err := Open(Config{
				Config: core.Config{Mode: mode, Dir: dir, NVMHeapSize: 8 << 20},
				Shards: 4,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			tbl, err := e.CreateTable("t", testSchema(t))
			if err != nil {
				t.Fatal(err)
			}

			k0 := keyOnShard(t, e, 0, 0)
			k1 := keyOnShard(t, e, 1, 0)
			k2 := keyOnShard(t, e, 2, 0)

			// A cross-shard transaction: all rows appear atomically.
			tx := e.Begin()
			for _, k := range []int64{k0, k1, k2} {
				if _, err := tx.Insert(tbl, []storage.Value{storage.Int(k), storage.Str("x"), storage.Float(1)}); err != nil {
					t.Fatal(err)
				}
			}
			before := e.LastCID()
			if err := tx.Commit(); err != nil {
				t.Fatalf("cross-shard commit: %v", err)
			}
			if after := e.LastCID(); after <= before {
				t.Fatalf("commit horizon did not advance: %d -> %d", before, after)
			}

			rd := e.Begin()
			n, err := rd.Count(context.Background(), tbl)
			if err != nil {
				t.Fatal(err)
			}
			if n != 3 {
				t.Fatalf("visible rows = %d, want 3", n)
			}
			rd.Abort() //nolint:errcheck

			// An aborted cross-shard transaction leaves nothing.
			tx2 := e.Begin()
			for _, k := range []int64{k0 + 7, k1 + 7, k2 + 7} {
				if _, err := tx2.Insert(tbl, []storage.Value{storage.Int(k), storage.Str("y"), storage.Float(2)}); err != nil {
					t.Fatal(err)
				}
			}
			if err := tx2.Abort(); err != nil {
				t.Fatal(err)
			}
			rd2 := e.Begin()
			n2, err := rd2.Count(context.Background(), tbl)
			if err != nil {
				t.Fatal(err)
			}
			if n2 != 3 {
				t.Fatalf("after abort visible rows = %d, want 3", n2)
			}
			rd2.Abort() //nolint:errcheck

			// No decision records should outlive the commits they decided.
			if c := e.Coordinator(); c != nil && c.Decisions() != 0 {
				t.Fatalf("%d decision records leaked", c.Decisions())
			}
		})
	}
}

func TestShardRestartPreservesData(t *testing.T) {
	dir := t.TempDir()
	e := openShards(t, dir, 4, txn.ModeNVM)
	tbl, err := e.CreateTable("t", testSchema(t), "id")
	if err != nil {
		t.Fatal(err)
	}
	loadRows(t, e, tbl, 64)

	// One cross-shard transaction on top.
	k0 := keyOnShard(t, e, 0, 1000)
	k3 := keyOnShard(t, e, 3, 1000)
	tx := e.Begin()
	for _, k := range []int64{k0, k3} {
		if _, err := tx.Insert(tbl, []storage.Value{storage.Int(k), storage.Str("xs"), storage.Float(9)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	horizon := e.LastCID()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	re := openShards(t, dir, 4, txn.ModeNVM)
	defer re.Close()
	if got := re.LastCID(); got < horizon {
		t.Fatalf("horizon after restart = %d, want >= %d", got, horizon)
	}
	rtbl, err := re.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	rd := re.Begin()
	n, err := rd.Count(context.Background(), rtbl)
	if err != nil {
		t.Fatal(err)
	}
	if n != 66 {
		t.Fatalf("rows after restart = %d, want 66", n)
	}
	if err := re.Fsck(); err != nil {
		t.Fatalf("fsck: %v", err)
	}

	// Wrong shard count must refuse to open.
	if _, err := Open(Config{
		Config: core.Config{Mode: txn.ModeNVM, Dir: dir, NVMHeapSize: 8 << 20},
		Shards: 2,
	}); err == nil {
		t.Fatal("open with wrong shard count succeeded")
	}
}

// TestShardMetaRefused pins the SHARDS file rules: a directory opens
// only at the count its file records, and a file recording fewer than 2
// shards (which no fleet writes) is corrupt. Neither refusal may leave
// a top-level heap behind.
func TestShardMetaRefused(t *testing.T) {
	dir := t.TempDir()
	e := openShards(t, dir, 2, txn.ModeNVM)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	meta := filepath.Join(dir, shardMetaFile)
	open := func(shards int) error {
		e, err := Open(Config{
			Config: core.Config{Mode: txn.ModeNVM, Dir: dir, NVMHeapSize: 8 << 20},
			Shards: shards,
		})
		if err == nil {
			e.Close()
		}
		return err
	}
	for _, shards := range []int{1, 3} {
		if err := open(shards); err == nil {
			t.Errorf("a 2-shard database opened with %d shards", shards)
		}
	}
	for _, rec := range []string{"0", "1", "-2", "two"} {
		if err := os.WriteFile(meta, []byte(rec+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		if n, err := RecordedShards(dir); err == nil {
			t.Errorf("SHARDS %q: RecordedShards = %d, want an error", rec, n)
		}
		for _, shards := range []int{1, 2} {
			if err := open(shards); err == nil {
				t.Errorf("SHARDS %q: opened with %d shards", rec, shards)
			}
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "heap.nvm")); !os.IsNotExist(err) {
		t.Fatalf("a refused open left a top-level heap.nvm (stat: %v)", err)
	}
	if err := os.WriteFile(meta, []byte("2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if n, err := RecordedShards(dir); err != nil || n != 2 {
		t.Fatalf("RecordedShards = %d, %v; want 2", n, err)
	}
	openShards(t, dir, 2, txn.ModeNVM).Close()
}

// TestInDoubtResolution drives the 2PC window by hand through the txn
// layer: prepared-but-undecided parts must roll back (presumed abort),
// decided parts must redo from the coordinator record, even when the
// decided CID is below the shard's lastCID.
func TestInDoubtResolution(t *testing.T) {
	dir := t.TempDir()
	e := openShards(t, dir, 2, txn.ModeNVM)
	tbl, err := e.CreateTable("t", testSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	k0 := keyOnShard(t, e, 0, 0)
	k1 := keyOnShard(t, e, 1, 0)

	// Transaction A: prepared on both shards, decided at the
	// coordinator, but never finished (simulated crash before phase 2).
	txA := e.Begin()
	rowsA := make([]uint64, 0, 2)
	for _, k := range []int64{k0, k1} {
		r, err := txA.Insert(tbl, []storage.Value{storage.Int(k), storage.Str("A"), storage.Float(1)})
		if err != nil {
			t.Fatal(err)
		}
		rowsA = append(rowsA, r)
	}
	gtidA := e.Coordinator().NextGTID()
	for i := 0; i < 2; i++ {
		if err := txA.parts[i].Prepare(gtidA); err != nil {
			t.Fatal(err)
		}
	}
	cidA := e.Clock().Next()
	if err := e.Coordinator().Decide(gtidA, cidA); err != nil {
		t.Fatal(err)
	}

	// Transaction B: prepared on both shards, never decided.
	txB := e.Begin()
	for _, k := range []int64{k0 + 11, k1 + 11} {
		if _, err := txB.Insert(tbl, []storage.Value{storage.Int(k), storage.Str("B"), storage.Float(2)}); err != nil {
			t.Fatal(err)
		}
	}
	gtidB := e.Coordinator().NextGTID()
	for i := 0; i < 2; i++ {
		if err := txB.parts[i].Prepare(gtidB); err != nil {
			t.Fatal(err)
		}
	}

	// "Crash": drop the engine without finishing either transaction.
	for _, h := range e.Heaps() {
		h.Close()
	}
	e.Coordinator().Heap().Close()

	re := openShards(t, dir, 2, txn.ModeNVM)
	defer re.Close()
	st := re.RecoveryStats()
	if st.Committed2PC != 2 {
		t.Errorf("Committed2PC = %d, want 2 (one part per shard)", st.Committed2PC)
	}
	if st.Aborted2PC != 2 {
		t.Errorf("Aborted2PC = %d, want 2", st.Aborted2PC)
	}
	if st.Decisions2PC != 1 {
		t.Errorf("Decisions2PC = %d, want 1", st.Decisions2PC)
	}

	rtbl, err := re.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	rd := re.Begin()
	rows, err := rd.Select(context.Background(), rtbl, exec.Pred{Col: 1, Op: exec.Eq, Val: storage.Str("A")})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("decided transaction has %d visible rows, want 2", len(rows))
	}
	rowsB, err := rd.Select(context.Background(), rtbl, exec.Pred{Col: 1, Op: exec.Eq, Val: storage.Str("B")})
	if err != nil {
		t.Fatal(err)
	}
	if len(rowsB) != 0 {
		t.Fatalf("undecided transaction has %d visible rows, want 0", len(rowsB))
	}

	// The surviving decision must be cleared after full recovery, and
	// the heaps must be structurally sound.
	if n := re.Coordinator().Decisions(); n != 0 {
		t.Errorf("%d decision records survive recovery", n)
	}
	if err := re.Fsck(); err != nil {
		t.Fatalf("fsck: %v", err)
	}
	_ = rowsA
}

func TestUpdateMovesShard(t *testing.T) {
	e := openShards(t, t.TempDir(), 4, txn.ModeNVM)
	defer e.Close()
	tbl, err := e.CreateTable("t", testSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	k0 := keyOnShard(t, e, 0, 0)
	k2 := keyOnShard(t, e, 2, 0)

	tx := e.Begin()
	row, err := tx.Insert(tbl, []storage.Value{storage.Int(k0), storage.Str("a"), storage.Float(1)})
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	tx2 := e.Begin()
	newRow, err := tx2.Update(tbl, row, []storage.Value{storage.Int(k2), storage.Str("a"), storage.Float(2)})
	if err != nil {
		t.Fatal(err)
	}
	if s, _ := splitRow(newRow); s != 2 {
		t.Fatalf("updated row lives on shard %d, want 2", s)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}

	rd := e.Begin()
	defer rd.Abort() //nolint:errcheck
	n, err := rd.Count(context.Background(), tbl)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("visible rows = %d, want 1 (old version dead, new visible)", n)
	}
	vals, err := rd.Row(context.Background(), tbl, newRow)
	if err != nil {
		t.Fatal(err)
	}
	if vals[0].I != k2 || vals[2].F != 2 {
		t.Fatalf("moved row = %v", vals)
	}
}

func TestSnapshotIsolationAcrossShards(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			e := openShards(t, t.TempDir(), shards, txn.ModeNVM)
			defer e.Close()
			tbl, err := e.CreateTable("t", testSchema(t))
			if err != nil {
				t.Fatal(err)
			}
			k0 := keyOnShard(t, e, 0, 0)
			k1 := keyOnShard(t, e, shards-1, k0+1)

			rd := e.Begin() // snapshot before the (cross-shard, when there are shards to cross) commit

			tx := e.Begin()
			for _, k := range []int64{k0, k1} {
				if _, err := tx.Insert(tbl, []storage.Value{storage.Int(k), storage.Str("x"), storage.Float(1)}); err != nil {
					t.Fatal(err)
				}
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}

			// The old snapshot sees neither row; a fresh one sees both.
			n, err := rd.Count(context.Background(), tbl)
			if err != nil {
				t.Fatal(err)
			}
			if n != 0 {
				t.Fatalf("old snapshot sees %d rows, want 0", n)
			}
			rd2 := e.Begin()
			n2, err := rd2.Count(context.Background(), tbl)
			if err != nil {
				t.Fatal(err)
			}
			if n2 != 2 {
				t.Fatalf("new snapshot sees %d rows, want 2", n2)
			}
		})
	}
}

// TestFleetOfOne pins that Shards: 1 runs the code every other shard
// count runs: CIDs and snapshot horizons come from the engine's clock.
func TestFleetOfOne(t *testing.T) {
	ctx := context.Background()
	count := func(t *testing.T, tx *Tx, tbl *Table) int {
		t.Helper()
		n, err := tx.Count(ctx, tbl)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	horizon := func(t *testing.T, e *Engine) uint64 {
		t.Helper()
		if e.Clock() == nil {
			t.Fatal("a fleet of one has no clock")
		}
		if e.Shard(0).Manager().Clock() != e.Clock() {
			t.Fatal("the shard's manager does not draw CIDs from the engine's clock")
		}
		if e.LastCID() != e.Clock().Visible() {
			t.Fatalf("LastCID() = %d, clock horizon = %d", e.LastCID(), e.Clock().Visible())
		}
		return e.LastCID()
	}

	t.Run("nvm", func(t *testing.T) {
		dir := t.TempDir()
		e := openShards(t, dir, 1, txn.ModeNVM)
		tbl, err := e.CreateTable("t", testSchema(t))
		if err != nil {
			t.Fatal(err)
		}
		h0 := horizon(t, e)
		loadRows(t, e, tbl, 3)
		h := horizon(t, e)
		if h != h0+3 {
			t.Fatalf("horizon %d after 3 commits from %d", h, h0)
		}
		// A Begin issued after Commit returned sees that commit.
		if n := count(t, e.Begin(), tbl); n != 3 {
			t.Fatalf("fresh snapshot sees %d rows, want 3", n)
		}
		// Time travel clamps to the horizon, and reads below it.
		if at := e.BeginAt(h + 100); at.SnapshotCID() != h {
			t.Fatalf("BeginAt(future) reads at %d, want the horizon %d", at.SnapshotCID(), h)
		}
		if n := count(t, e.BeginAt(h-1), tbl); n != 2 {
			t.Fatalf("snapshot at %d sees %d rows, want 2", h-1, n)
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}

		// Reopen: the clock is seeded at the recovered lastCID.
		e = openShards(t, dir, 1, txn.ModeNVM)
		defer e.Close()
		if got := horizon(t, e); got != h {
			t.Fatalf("horizon %d after reopen, want %d", got, h)
		}
		tbl, err = e.Table("t")
		if err != nil {
			t.Fatal(err)
		}
		loadRows(t, e, tbl, 1)
		if got := horizon(t, e); got != h+1 {
			t.Fatalf("horizon %d after one more commit, want %d", got, h+1)
		}
		// A closed manager refuses the commit before it draws a CID.
		e.Shard(0).Manager().Close()
		tx := e.Begin()
		if _, err := tx.Insert(tbl, []storage.Value{storage.Int(9), storage.Str("x"), storage.Float(9)}); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); !errors.Is(err, txn.ErrClosed) {
			t.Fatalf("commit on a closed manager: %v, want ErrClosed", err)
		}
		if got := horizon(t, e); got != h+1 {
			t.Fatalf("refused commit moved the horizon to %d", got)
		}
	})

	// A commit that fails after it drew its CID retires the CID: the
	// horizon skips the gap instead of waiting on it forever.
	t.Run("log append error", func(t *testing.T) {
		e := openShards(t, t.TempDir(), 1, txn.ModeLog)
		defer e.Close()
		tbl, err := e.CreateTable("t", testSchema(t))
		if err != nil {
			t.Fatal(err)
		}
		loadRows(t, e, tbl, 1)
		h := horizon(t, e)
		e.Shard(0).Manager().LogWriter().Close()
		tx := e.Begin()
		if _, err := tx.Insert(tbl, []storage.Value{storage.Int(7), storage.Str("x"), storage.Float(7)}); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err == nil {
			t.Fatal("commit appended to a closed log")
		}
		if n := count(t, e.Begin(), tbl); n != 1 { // the horizon may cross the gap; nothing is stamped in it
			t.Fatalf("fresh snapshot sees %d rows after a failed commit, want 1", n)
		}
		if err := e.Checkpoint(); err != nil { // rotates in a working log writer
			t.Fatal(err)
		}
		loadRows(t, e, tbl, 1)
		if got := horizon(t, e); got != h+2 {
			t.Fatalf("horizon %d, want %d: past the failed commit's CID and the next one", got, h+2)
		}
		if n := count(t, e.Begin(), tbl); n != 2 {
			t.Fatalf("fresh snapshot sees %d rows, want 2", n)
		}
	})

	// A directory in the layout Shards: 1 has always had — what core.Open
	// writes: the heap at Dir itself, no SHARDS marker, no coordinator
	// heap — opens as a fleet of one and stays in that layout.
	t.Run("plain directory", func(t *testing.T) {
		dir := t.TempDir()
		ce, err := core.Open(core.Config{Mode: txn.ModeNVM, Dir: dir, NVMHeapSize: 8 << 20})
		if err != nil {
			t.Fatal(err)
		}
		ct, err := ce.CreateTable("t", testSchema(t))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			tx := ce.Begin()
			if _, err := tx.Insert(ct, []storage.Value{storage.Int(int64(i)), storage.Str("x"), storage.Float(1)}); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		last := ce.Manager().LastCID()
		if err := ce.Close(); err != nil {
			t.Fatal(err)
		}

		e := openShards(t, dir, 1, txn.ModeNVM)
		defer e.Close()
		if got := horizon(t, e); got != last {
			t.Fatalf("LastCID() = %d, the directory was written up to %d", got, last)
		}
		if err := e.Fsck(); err != nil {
			t.Fatal(err)
		}
		tbl, err := e.Table("t")
		if err != nil {
			t.Fatal(err)
		}
		if n := count(t, e.Begin(), tbl); n != 5 {
			t.Fatalf("%d rows, want 5", n)
		}
		if e.Coordinator() != nil {
			t.Fatal("a fleet of one opened a coordinator")
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 || entries[0].Name() != "heap.nvm" {
			t.Fatalf("directory holds %v, want heap.nvm alone", entries)
		}
	})
}

// TestNVMStatsSumsEveryField pins that the engine-wide counters are the
// field-by-field sum over the shard heaps: a field missing from the sum
// (Allocs, Frees and Drains once were) reads zero to every consumer.
func TestNVMStatsSumsEveryField(t *testing.T) {
	// A read latency, so that reads are charged.
	e, err := Open(Config{
		Config: core.Config{Mode: txn.ModeNVM, Dir: t.TempDir(), NVMHeapSize: 8 << 20, NVMLatency: nvm.LatencyModel{ReadNS: 1}},
		Shards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	tbl, err := e.CreateTable("t", testSchema(t), "id")
	if err != nil {
		t.Fatal(err)
	}
	loadRows(t, e, tbl, 16) // hash-routed: both shards allocate, fence and drain
	if _, err := e.Merge("t"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Scavenge(); err != nil { // frees the superseded partitions
		t.Fatal(err)
	}
	var want nvm.Stats
	wantV := reflect.ValueOf(&want).Elem()
	for _, h := range e.Heaps() {
		s := reflect.ValueOf(h.Stats())
		for i := 0; i < s.NumField(); i++ {
			wantV.Field(i).SetUint(wantV.Field(i).Uint() + s.Field(i).Uint())
		}
	}
	for i := 0; i < wantV.NumField(); i++ {
		if wantV.Field(i).Uint() == 0 {
			t.Fatalf("workload left nvm.Stats.%s at zero on every shard; the test proves nothing for it", wantV.Type().Field(i).Name)
		}
	}
	if got := e.NVMStats(); got != want {
		t.Fatalf("NVMStats() = %+v, want the per-field sum %+v", got, want)
	}
}
