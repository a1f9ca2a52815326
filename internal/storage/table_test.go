package storage

import (
	"math/bits"
	"slices"
	"testing"

	"hyrisenv/internal/mvcc"
	"hyrisenv/internal/nvm"
)

func ordersSchema(t *testing.T) Schema {
	t.Helper()
	s, err := NewSchema(
		ColumnDef{"id", TypeInt64},
		ColumnDef{"customer", TypeString},
		ColumnDef{"amount", TypeFloat64},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// tables builds a table per medium.
func tables(t *testing.T) map[string]*Table {
	t.Helper()
	h, _ := testNVMHeap(t)
	nt, err := CreateNVMTable(h, "orders", 1, ordersSchema(t), 0)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*Table{
		"dram": dramTable(t, ordersSchema(t), 0),
		"nvm":  nt,
	}
}

// commitRow makes row visible from cid on (bypassing the txn layer).
func commitRow(t *Table, row, cid uint64) {
	s, local := t.MVCCFor(row)
	s.SetBegin(local, cid)
	s.PersistBegin(local)
	s.ReleaseRow(local, s.TID(local))
}

func TestTableAppendAndVisibility(t *testing.T) {
	for name, tbl := range tables(t) {
		t.Run(name, func(t *testing.T) {
			row, err := tbl.AppendRow([]Value{Int(1), Str("alice"), Float(9.5)}, 77)
			if err != nil {
				t.Fatal(err)
			}
			if tbl.Rows() != 1 || tbl.MainRows() != 0 {
				t.Fatalf("Rows=%d MainRows=%d", tbl.Rows(), tbl.MainRows())
			}
			// Uncommitted: only owner sees it.
			if tbl.Visible(row, 100, 0) {
				t.Fatal("uncommitted row visible")
			}
			if !tbl.Visible(row, 100, 77) {
				t.Fatal("owner cannot see own insert")
			}
			commitRow(tbl, row, 5)
			if !tbl.Visible(row, 5, 0) || tbl.Visible(row, 4, 0) {
				t.Fatal("visibility after commit")
			}
			if got := tbl.Value(1, row); got.S != "alice" {
				t.Fatalf("Value = %v", got)
			}
		})
	}
}

func TestTableSchemaValidation(t *testing.T) {
	for name, tbl := range tables(t) {
		t.Run(name, func(t *testing.T) {
			if _, err := tbl.AppendRow([]Value{Int(1)}, 1); err == nil {
				t.Fatal("short row accepted")
			}
			if _, err := tbl.AppendRow([]Value{Str("x"), Str("y"), Float(1)}, 1); err == nil {
				t.Fatal("mistyped row accepted")
			}
		})
	}
}

func TestTableScanVisible(t *testing.T) {
	for name, tbl := range tables(t) {
		t.Run(name, func(t *testing.T) {
			for i := int64(0); i < 10; i++ {
				row, _ := tbl.AppendRow([]Value{Int(i), Str("c"), Float(0)}, 1)
				if i%2 == 0 {
					commitRow(tbl, row, 3)
				}
			}
			var visible []uint64
			tbl.ScanVisible(10, 0, func(row uint64) bool {
				visible = append(visible, row)
				return true
			})
			if len(visible) != 5 {
				t.Fatalf("visible rows = %d, want 5", len(visible))
			}
		})
	}
}

func TestTableMergeCompacts(t *testing.T) {
	for name, tbl := range tables(t) {
		t.Run(name, func(t *testing.T) {
			// Commit 10 rows, invalidate 3 of them at CID 6.
			var rows []uint64
			for i := int64(0); i < 10; i++ {
				row, _ := tbl.AppendRow([]Value{Int(i % 4), Str("c"), Float(float64(i))}, 1)
				commitRow(tbl, row, 5)
				rows = append(rows, row)
			}
			for _, r := range rows[:3] {
				s, local := tbl.MVCCFor(r)
				s.SetEnd(local, 6)
				s.PersistEnd(local)
			}
			stats, err := tbl.Merge(10)
			if err != nil {
				t.Fatal(err)
			}
			if stats.RowsBefore != 10 || stats.RowsAfter != 7 || stats.DeadDropped != 3 {
				t.Fatalf("stats = %+v", stats)
			}
			if tbl.MainRows() != 7 || tbl.Rows() != 7 {
				t.Fatalf("MainRows=%d Rows=%d", tbl.MainRows(), tbl.Rows())
			}
			// Values preserved: rows 3..9 had Int(i%4), Float(i).
			seen := map[float64]bool{}
			tbl.ScanVisible(10, 0, func(row uint64) bool {
				seen[tbl.Value(2, row).F] = true
				return true
			})
			for i := 3; i < 10; i++ {
				if !seen[float64(i)] {
					t.Fatalf("row with amount %d lost in merge", i)
				}
			}
			// Table stays writable after merge.
			row, err := tbl.AppendRow([]Value{Int(9), Str("post"), Float(99)}, 2)
			if err != nil {
				t.Fatal(err)
			}
			commitRow(tbl, row, 11)
			if !tbl.Visible(row, 11, 0) {
				t.Fatal("post-merge insert invisible")
			}
			// Merge again including the delta row.
			stats, err = tbl.Merge(12)
			if err != nil {
				t.Fatal(err)
			}
			if stats.RowsAfter != 8 {
				t.Fatalf("second merge rows = %d", stats.RowsAfter)
			}
		})
	}
}

func TestTableMergePreservesBegins(t *testing.T) {
	for name, tbl := range tables(t) {
		t.Run(name, func(t *testing.T) {
			r1, _ := tbl.AppendRow([]Value{Int(1), Str("a"), Float(1)}, 1)
			commitRow(tbl, r1, 5)
			r2, _ := tbl.AppendRow([]Value{Int(2), Str("b"), Float(2)}, 1)
			commitRow(tbl, r2, 9)
			if _, err := tbl.Merge(10); err != nil {
				t.Fatal(err)
			}
			// Begin CIDs preserved: at snapshot 7 only the first row shows.
			var n int
			tbl.ScanVisible(7, 0, func(uint64) bool { n++; return true })
			if n != 1 {
				t.Fatalf("rows visible at CID 7 after merge = %d, want 1", n)
			}
		})
	}
}

func TestTableMergeBusy(t *testing.T) {
	for name, tbl := range tables(t) {
		t.Run(name, func(t *testing.T) {
			tbl.AppendRow([]Value{Int(1), Str("a"), Float(1)}, 42) // owned, uncommitted
			if _, err := tbl.Merge(10); err != ErrMergeBusy {
				t.Fatalf("err = %v, want ErrMergeBusy", err)
			}
		})
	}
}

func TestNVMTableSurvivesReopen(t *testing.T) {
	h, path := testNVMHeap(t)
	tbl, err := CreateNVMTable(h, "orders", 3, ordersSchema(t), 0)
	if err != nil {
		t.Fatal(err)
	}
	h.SetRoot("tbl:orders", tbl.Root(), 0)
	for i := int64(0); i < 50; i++ {
		row, _ := tbl.AppendRow([]Value{Int(i), Str("cust"), Float(float64(i) / 2)}, 1)
		commitRow(tbl, row, 2)
	}
	if _, err := tbl.Merge(3); err != nil {
		t.Fatal(err)
	}
	// More rows after the merge, still in delta.
	for i := int64(50); i < 60; i++ {
		row, _ := tbl.AppendRow([]Value{Int(i), Str("cust"), Float(float64(i) / 2)}, 1)
		commitRow(tbl, row, 4)
	}

	h2 := reopenHeap(t, h, path)
	root, _, _ := h2.Root("tbl:orders")
	tbl2, err := OpenNVMTable(h2, "orders", root)
	if err != nil {
		t.Fatal(err)
	}
	if tbl2.ID != 3 {
		t.Fatalf("ID = %d", tbl2.ID)
	}
	if tbl2.MainRows() != 50 || tbl2.Rows() != 60 {
		t.Fatalf("MainRows=%d Rows=%d", tbl2.MainRows(), tbl2.Rows())
	}
	var sum int64
	tbl2.ScanVisible(100, 0, func(row uint64) bool {
		sum += tbl2.Value(0, row).I
		return true
	})
	if sum != 59*60/2 {
		t.Fatalf("sum of ids = %d, want %d", sum, 59*60/2)
	}
	// Writable after restart.
	row, err := tbl2.AppendRow([]Value{Int(60), Str("new"), Float(1)}, 9)
	if err != nil {
		t.Fatal(err)
	}
	commitRow(tbl2, row, 5)
	if !tbl2.Visible(row, 5, 0) {
		t.Fatal("post-restart insert invisible")
	}
}

func TestNVMTableTornRowAppendRepaired(t *testing.T) {
	h, path := testNVMHeap(t)
	tbl, err := CreateNVMTable(h, "orders", 1, ordersSchema(t), 0b001)
	if err != nil {
		t.Fatal(err)
	}
	h.SetRoot("tbl:orders", tbl.Root(), 0)
	for i := int64(0); i < 5; i++ {
		row, _ := tbl.AppendRow([]Value{Int(i), Str("x"), Float(0)}, 1)
		commitRow(tbl, row, 2)
	}
	// Crash in the middle of a row append, at several barrier counts:
	// each leaves a different torn state (partial columns, partial MVCC).
	for fail := int64(1); fail <= 10; fail++ {
		func() {
			defer func() { recover() }()
			h.FailAfter(fail)
			tbl.AppendRow([]Value{Int(99), Str("torn"), Float(9)}, 7)
			h.FailAfter(0)
		}()
		h.FailAfter(0)
		h2 := reopenHeap(t, h, path)
		root, _, _ := h2.Root("tbl:orders")
		tbl2, err := OpenNVMTable(h2, "orders", root)
		if err != nil {
			t.Fatalf("fail=%d: %v", fail, err)
		}
		// All 5 committed rows intact; torn row invisible.
		var n int
		tbl2.ScanVisible(100, 0, func(row uint64) bool {
			n++
			if tbl2.Value(1, row).S == "torn" {
				t.Fatalf("fail=%d: torn row visible", fail)
			}
			return true
		})
		if n != 5 {
			t.Fatalf("fail=%d: visible rows = %d, want 5", fail, n)
		}
		// Columns re-aligned: appending must work and read back intact.
		row, err := tbl2.AppendRow([]Value{Int(123), Str("after"), Float(1)}, 3)
		if err != nil {
			t.Fatalf("fail=%d: append after repair: %v", fail, err)
		}
		commitRow(tbl2, row, 3)
		if got := tbl2.Value(0, row); got.I != 123 {
			t.Fatalf("fail=%d: misaligned append: %v", fail, got)
		}
		if got := tbl2.Value(1, row); got.S != "after" {
			t.Fatalf("fail=%d: misaligned append col1: %v", fail, got)
		}
		// Undo the extra row for the next iteration by invalidating it.
		s, local := tbl2.MVCCFor(row)
		s.SetEnd(local, 3)
		s.PersistEnd(local)
		n = 0
		tbl2.ScanVisible(100, 0, func(uint64) bool { n++; return true })
		if n != 5 {
			t.Fatalf("fail=%d: cleanup failed, visible=%d", fail, n)
		}
		h = h2
		tbl = tbl2
	}

	// The cuts an indexed column's publish words add, made by hand: stage
	// a row, fence, store only some of the publish words, and restart.
	// Rows so far: ids 0-4 committed, then ten ids 123 rolled back.
	cut := func(id int64, publish func(d *NVMDelta)) {
		t.Helper()
		ps := tbl.parts.Load()
		if err := tbl.stageRow(ps, []Value{Int(id), Str("torn"), Float(9)}, 7, ps.deltaMVCC.Rows(), nil); err != nil {
			t.Fatal(err)
		}
		h.Fence()
		publish(ps.delta[0])
		h.Fence()
		h = reopenHeap(t, h, path)
		root, _, _ := h.Root("tbl:orders")
		if tbl, err = OpenNVMTable(h, "orders", root); err != nil {
			t.Fatal(err)
		}
		if err := tbl.FsckNVM(10); err != nil {
			t.Fatalf("cut of id %d: %v", id, err)
		}
	}
	// lookup returns the rows of id visible at CID 10, in order, and
	// fails on one that comes back twice.
	lookup := func(id int64) []uint64 {
		t.Helper()
		var rows []uint64
		tbl.LookupRows(0, Int(id).EncodeKey(nil), func(r uint64) bool {
			if tbl.Visible(r, 10, 0) {
				if slices.Contains(rows, r) {
					t.Fatalf("lookup(%d) yields row %d twice", id, r)
				}
				rows = append(rows, r)
			}
			return true
		})
		slices.Sort(rows)
		return rows
	}
	appendRow := func(id int64) uint64 {
		t.Helper()
		row, err := tbl.AppendRow([]Value{Int(id), Str("after"), Float(1)}, 3)
		if err != nil {
			t.Fatal(err)
		}
		commitRow(tbl, row, 4)
		return row
	}
	heads := func(d *NVMDelta) { d.heads.Publish() }
	dict := func(d *NVMDelta) { d.dictVec.Publish() }

	// A new key's heads length is durable, its dictionary length is not:
	// the heads are cut back, and the key is new again.
	cut(200, heads)
	if got := lookup(200); got != nil {
		t.Fatalf("heads length without dictionary length: lookup(200) = %v", got)
	}
	if row := appendRow(200); !slices.Equal(lookup(200), []uint64{row}) {
		t.Fatalf("lookup(200) = %v, want [%d]", lookup(200), row)
	}
	// Its dictionary length is durable, its heads length is not: the
	// heads are rolled forward over the head staged beside the entry.
	cut(201, dict)
	if got := lookup(201); got != nil {
		t.Fatalf("dictionary length without heads length: lookup(201) = %v", got)
	}
	if row := appendRow(201); !slices.Equal(lookup(201), []uint64{row}) {
		t.Fatalf("lookup(201) = %v, want [%d]", lookup(201), row)
	}
	// A repeated key's head overwrite is durable without its row, whose
	// slot a row of another key and then one of the same key reuse.
	before := lookup(3)
	cut(3, heads)
	if got := lookup(3); !slices.Equal(got, before) {
		t.Fatalf("head overwrite without its row: lookup(3) = %v, want %v", got, before)
	}
	other := appendRow(202)
	if got := lookup(3); !slices.Equal(got, before) {
		t.Fatalf("slot reused by another key: lookup(3) = %v, want %v", got, before)
	}
	if got := lookup(202); !slices.Equal(got, []uint64{other}) {
		t.Fatalf("lookup(202) = %v, want [%d]", got, other)
	}
	cut(3, heads)
	row := appendRow(3)
	if got, want := lookup(3), append(slices.Clone(before), row); !slices.Equal(got, want) {
		t.Fatalf("slot reused by the same key: lookup(3) = %v, want %v", got, want)
	}
	if err := tbl.FsckNVM(10); err != nil {
		t.Fatal(err)
	}
}

func TestNVMTableMergeCrashSafety(t *testing.T) {
	h, path := testNVMHeap(t)
	tbl, err := CreateNVMTable(h, "orders", 1, ordersSchema(t), 0)
	if err != nil {
		t.Fatal(err)
	}
	h.SetRoot("tbl:orders", tbl.Root(), 0)
	for i := int64(0); i < 20; i++ {
		row, _ := tbl.AppendRow([]Value{Int(i), Str("x"), Float(0)}, 1)
		commitRow(tbl, row, 2)
	}
	// Crash at many points during the merge; the table must always come
	// back with exactly the 20 rows (either pre- or post-merge layout).
	for fail := int64(1); fail <= 60; fail += 7 {
		func() {
			defer func() { recover() }()
			h.FailAfter(fail)
			tbl.Merge(5)
			h.FailAfter(0)
		}()
		h.FailAfter(0)
		h2 := reopenHeap(t, h, path)
		root, _, _ := h2.Root("tbl:orders")
		tbl2, err := OpenNVMTable(h2, "orders", root)
		if err != nil {
			t.Fatalf("fail=%d: %v", fail, err)
		}
		var sum int64
		var n int
		tbl2.ScanVisible(100, 0, func(row uint64) bool {
			n++
			sum += tbl2.Value(0, row).I
			return true
		})
		if n != 20 || sum != 19*20/2 {
			t.Fatalf("fail=%d: n=%d sum=%d", fail, n, sum)
		}
		h = h2
		tbl = tbl2
	}
}

func TestMVCCForAddressing(t *testing.T) {
	tbl := dramTable(t, ordersSchema(t), 0)
	r, _ := tbl.AppendRow([]Value{Int(1), Str("a"), Float(1)}, 1)
	commitRow(tbl, r, 1)
	tbl.Merge(2)
	r2, _ := tbl.AppendRow([]Value{Int(2), Str("b"), Float(2)}, 1)
	s, local := tbl.MVCCFor(0)
	if s != tbl.MainMVCC() || local != 0 {
		t.Fatal("main row misaddressed")
	}
	s, local = tbl.MVCCFor(r2)
	if s != tbl.DeltaMVCC() || local != 0 {
		t.Fatal("delta row misaddressed")
	}
	if s.Begin(local) != mvcc.Inf {
		t.Fatal("fresh delta row should be uncommitted")
	}
}

var _ = nvm.PPtr(0) // keep import when tests are pruned

// TestOpenNVMTableAfterScansLearned: what scans learn about a table's
// blocks (mvcc's frozen-block records) lives in DRAM. A restart opens the
// table without it — for the same number of allocations whatever the row
// count, give or take the vectors' doubling segments — and the first scan
// afterwards reads the stamps, including one persisted into a block whose
// record the scans had learned before the restart.
func TestOpenNVMTableAfterScansLearned(t *testing.T) {
	const block = mvcc.SummaryRows
	var bm [block / 64]uint64
	visible := func(tbl *Table, snap uint64) int {
		n := 0
		v := tbl.View()
		for lo := uint64(0); lo < v.MainRows(); lo += block {
			hi := min(lo+block, v.MainRows())
			v.MainMVCC().VisibleBits(lo, hi, snap, 0, bm[:])
			for _, w := range bm[:(hi-lo+63)/64] {
				n += bits.OnesCount64(w)
			}
		}
		return n
	}
	openAllocs := func(rows int) float64 {
		h, path := testNVMHeap(t)
		tbl, err := CreateNVMTable(h, "orders", 3, ordersSchema(t), 0)
		if err != nil {
			t.Fatal(err)
		}
		h.SetRoot("tbl:orders", tbl.Root(), 0)
		for i := 0; i < rows; i++ {
			row, err := tbl.AppendRow([]Value{Int(int64(i)), Str("cust"), Float(float64(i % 97))}, 1)
			if err != nil {
				t.Fatal(err)
			}
			commitRow(tbl, row, 2)
		}
		if _, err := tbl.Merge(3); err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 2; pass++ { // learn, then answer from what was learned
			if got := visible(tbl, 3); got != rows {
				t.Fatalf("%d rows: pass %d sees %d", rows, pass, got)
			}
		}
		tbl.StampEnd(block+5, 4) // into a block whose record the scans had learned
		if got := visible(tbl, 4); got != rows-1 {
			t.Fatalf("%d rows: %d visible after an invalidation, want %d", rows, got, rows-1)
		}
		h2 := reopenHeap(t, h, path)
		root, _, _ := h2.Root("tbl:orders")
		var tbl2 *Table
		allocs := testing.AllocsPerRun(3, func() {
			if tbl2, err = OpenNVMTable(h2, "orders", root); err != nil {
				t.Fatal(err)
			}
		})
		if got := visible(tbl2, 4); got != rows-1 {
			t.Fatalf("%d rows: %d visible after reopen, want %d", rows, got, rows-1)
		}
		if got := visible(tbl2, 3); got != rows {
			t.Fatalf("%d rows: %d visible below the invalidation after reopen, want %d", rows, got, rows)
		}
		return allocs
	}
	small, large := openAllocs(2*block+100), openAllocs(16*block+100)
	// Eight times the rows is three more doubling segments in each of the
	// few vectors that grow with them; a per-block cost would be 14 more
	// blocks' worth.
	if large > small+12 {
		t.Fatalf("OpenNVMTable allocates %v times over %d rows, %v over %d", large, 16*block+100, small, 2*block+100)
	}
}
