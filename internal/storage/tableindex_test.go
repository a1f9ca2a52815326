package storage

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"hyrisenv/internal/nvm"
	"hyrisenv/internal/pstruct"
)

// indexedTables builds tables with column 0 (id) and 1 (customer) indexed.
func indexedTables(t *testing.T) map[string]*Table {
	t.Helper()
	h, _ := testNVMHeap(t)
	nt, err := CreateNVMTable(h, "orders", 1, ordersSchema(t), 0b011)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*Table{
		"dram": dramTable(t, ordersSchema(t), 0b011),
		"nvm":  nt,
	}
}

func lookupVisible(tbl *Table, col int, v Value, cid uint64) []uint64 {
	var rows []uint64
	tbl.LookupRows(col, v.EncodeKey(nil), func(r uint64) bool {
		if tbl.Visible(r, cid, 0) {
			rows = append(rows, r)
		}
		return true
	})
	return rows
}

func TestTableLookupRowsDeltaOnly(t *testing.T) {
	for name, tbl := range indexedTables(t) {
		t.Run(name, func(t *testing.T) {
			if !tbl.Indexed(0) || !tbl.Indexed(1) || tbl.Indexed(2) {
				t.Fatal("index mask wiring")
			}
			for i := int64(0); i < 20; i++ {
				row, _ := tbl.AppendRow([]Value{Int(i % 4), Str("c"), Float(0)}, 1)
				commitRow(tbl, row, 2)
			}
			rows := lookupVisible(tbl, 0, Int(3), 5)
			if len(rows) != 5 {
				t.Fatalf("lookup id=3: %v", rows)
			}
			for _, r := range rows {
				if tbl.Value(0, r).I != 3 {
					t.Fatalf("row %d has wrong value", r)
				}
			}
			if got := lookupVisible(tbl, 0, Int(99), 5); got != nil {
				t.Fatalf("lookup of absent value: %v", got)
			}
			// Unindexed column reports !ok.
			if ok := tbl.LookupRows(2, Float(0).EncodeKey(nil), func(uint64) bool { return true }); ok {
				t.Fatal("unindexed column lookup returned ok")
			}
		})
	}
}

func TestTableLookupRowsAcrossMerge(t *testing.T) {
	for name, tbl := range indexedTables(t) {
		t.Run(name, func(t *testing.T) {
			for i := int64(0); i < 10; i++ {
				row, _ := tbl.AppendRow([]Value{Int(i % 3), Str("x"), Float(0)}, 1)
				commitRow(tbl, row, 2)
			}
			if _, err := tbl.Merge(3); err != nil {
				t.Fatal(err)
			}
			// Post-merge: lookups resolve through the main group-key index.
			rows := lookupVisible(tbl, 0, Int(1), 5)
			if len(rows) != 3 {
				t.Fatalf("post-merge lookup: %v", rows)
			}
			// New delta rows found too.
			row, _ := tbl.AppendRow([]Value{Int(1), Str("y"), Float(0)}, 1)
			commitRow(tbl, row, 6)
			rows = lookupVisible(tbl, 0, Int(1), 7)
			if len(rows) != 4 {
				t.Fatalf("mixed main+delta lookup: %v", rows)
			}
		})
	}
}

func TestTableLookupRange(t *testing.T) {
	for name, tbl := range indexedTables(t) {
		t.Run(name, func(t *testing.T) {
			for i := int64(0); i < 10; i++ {
				row, _ := tbl.AppendRow([]Value{Int(i), Str("x"), Float(0)}, 1)
				commitRow(tbl, row, 2)
			}
			tbl.Merge(3) // move into main
			// Two more in delta.
			for i := int64(10); i < 12; i++ {
				row, _ := tbl.AppendRow([]Value{Int(i), Str("x"), Float(0)}, 1)
				commitRow(tbl, row, 4)
			}
			var vals []int64
			tbl.LookupRowsInRange(0, Int(3).EncodeKey(nil), Int(11).EncodeKey(nil), func(r uint64) bool {
				if tbl.Visible(r, 10, 0) {
					vals = append(vals, tbl.Value(0, r).I)
				}
				return true
			})
			if len(vals) != 8 { // 3..10
				t.Fatalf("range vals = %v", vals)
			}
			for _, v := range vals {
				if v < 3 || v >= 11 {
					t.Fatalf("out-of-range value %d", v)
				}
			}
		})
	}
}

func TestTableIndexSurvivesRestartNVM(t *testing.T) {
	h, path := testNVMHeap(t)
	tbl, err := CreateNVMTable(h, "orders", 1, ordersSchema(t), 0b001)
	if err != nil {
		t.Fatal(err)
	}
	h.SetRoot("tbl:orders", tbl.Root(), 0)
	for i := int64(0); i < 30; i++ {
		row, _ := tbl.AppendRow([]Value{Int(i % 5), Str("c"), Float(0)}, 1)
		commitRow(tbl, row, 2)
	}
	h2 := reopenHeap(t, h, path)
	root, _, _ := h2.Root("tbl:orders")
	tbl2, err := OpenNVMTable(h2, "orders", root)
	if err != nil {
		t.Fatal(err)
	}
	// The delta index is usable immediately — no rebuild call.
	rows := lookupVisible(tbl2, 0, Int(2), 5)
	if len(rows) != 6 {
		t.Fatalf("post-restart index lookup: %v", rows)
	}
}

func TestTableStaleIndexEntryFiltered(t *testing.T) {
	// A crash can leave a delta-index entry for a row that the restart
	// fixup truncates; if the slot is later reused by a different value
	// the stale entry must not surface.
	h, path := testNVMHeap(t)
	tbl, err := CreateNVMTable(h, "orders", 1, ordersSchema(t), 0b001)
	if err != nil {
		t.Fatal(err)
	}
	h.SetRoot("tbl:orders", tbl.Root(), 0)
	row, _ := tbl.AppendRow([]Value{Int(1), Str("a"), Float(0)}, 1)
	commitRow(tbl, row, 2)
	// Crash mid-append of a row with value 777: index entry may be
	// persisted while the row gets truncated.
	func() {
		defer func() { recover() }()
		h.FailAfter(8)
		tbl.AppendRow([]Value{Int(777), Str("b"), Float(0)}, 3)
		h.FailAfter(0)
	}()
	h.FailAfter(0)
	h2 := reopenHeap(t, h, path)
	root, _, _ := h2.Root("tbl:orders")
	tbl2, err := OpenNVMTable(h2, "orders", root)
	if err != nil {
		t.Fatal(err)
	}
	// Reuse the slot with a different value.
	row2, _ := tbl2.AppendRow([]Value{Int(888), Str("c"), Float(0)}, 1)
	commitRow(tbl2, row2, 3)
	// 777 must not return row2 (whatever the stale index says).
	for _, r := range lookupVisible(tbl2, 0, Int(777), 10) {
		if tbl2.Value(0, r).I != 777 {
			t.Fatalf("stale index entry surfaced row %d", r)
		}
	}
	got := lookupVisible(tbl2, 0, Int(888), 10)
	if len(got) != 1 || got[0] != row2 {
		t.Fatalf("lookup(888) = %v", got)
	}
}

// TestRebuildIndexes: a table read back from a checkpoint has no
// secondary indexes until RebuildIndexes builds them from its main and
// delta rows; then lookups and the structural checks agree with the
// table it was written from.
func TestRebuildIndexes(t *testing.T) {
	nh, _ := testNVMHeap(t)
	heaps := map[string]*nvm.Heap{"dram": testDRAMHeap(t), "nvm": nh}
	for name, tbl := range indexedTables(t) {
		t.Run(name, func(t *testing.T) {
			for i := int64(0); i < 10; i++ {
				row, _ := tbl.AppendRow([]Value{Int(i % 2), Str("x"), Float(0)}, 1)
				commitRow(tbl, row, 2)
			}
			tbl.Merge(3)
			for _, id := range []int64{1, 1, 0} {
				row, _ := tbl.AppendRow([]Value{Int(id), Str("x"), Float(0)}, 1)
				commitRow(tbl, row, 4)
			}
			var buf bytes.Buffer
			if err := tbl.WriteCheckpoint(&buf); err != nil {
				t.Fatal(err)
			}
			loaded, err := ReadCheckpoint(heaps[name], &buf)
			if err != nil {
				t.Fatal(err)
			}
			if loaded.LookupRows(0, Int(1).EncodeKey(nil), func(uint64) bool { return true }) {
				t.Fatal("a table read from a checkpoint answers from an index before the rebuild")
			}
			if err := loaded.RebuildIndexes(); err != nil {
				t.Fatal(err)
			}
			if rows := lookupVisible(loaded, 0, Int(1), 10); len(rows) != 7 {
				t.Fatalf("post-rebuild lookup(1): %v", rows)
			}
			if rows := lookupVisible(loaded, 0, Int(0), 10); len(rows) != 6 {
				t.Fatalf("post-rebuild lookup(0): %v", rows)
			}
			rep, err := loaded.Check()
			if err != nil {
				t.Fatal(err)
			}
			if rep.IndexedCols != 2 || rep.VisibleRows != 13 {
				t.Fatalf("Check after rebuild: %+v", rep)
			}
			if err := loaded.FsckNVM(10); err != nil {
				t.Fatal(err)
			}
			// A table whose indexes exist has nothing to rebuild.
			if err := loaded.RebuildIndexes(); err != nil {
				t.Fatal(err)
			}
			if rows := lookupVisible(loaded, 0, Int(1), 10); len(rows) != 7 {
				t.Fatalf("second rebuild: lookup(1) = %v", rows)
			}
		})
	}
}

// TestLookupRowsDuplicateStaleEntry pins the crash-window hazard found
// by the sharded chaos harness: a power loss can leave a posting that
// recovery cannot attribute to anyone — a head overwrite durable without
// its row. When the rolled-back delta slot is later reused by an insert
// of the SAME key, the stale and live postings agree on both value ID and
// slot — verification passes for both, and only duplicate suppression
// keeps the row from being served twice.
func TestLookupRowsDuplicateStaleEntry(t *testing.T) {
	h, _ := testNVMHeap(t)
	tbl, err := CreateNVMTable(h, "orders", 1, ordersSchema(t), 0b001)
	if err != nil {
		t.Fatal(err)
	}
	row, err := tbl.AppendRow([]Value{Int(7), Str("c"), Float(0)}, 1)
	if err != nil {
		t.Fatal(err)
	}
	commitRow(tbl, row, 2)
	// Fabricate the crash-stale duplicate: a second posting for the same
	// (value ID, slot) pair, pushed onto the list the way an append does.
	d := tbl.parts.Load().delta[0]
	id := d.ValueID(row)
	node, err := pstruct.ListStage(d.idx.Arena(), row, d.heads.Get(id))
	if err != nil {
		t.Fatal(err)
	}
	d.heads.StageSet(id, uint64(node))
	h.Fence()
	d.heads.Publish()
	h.Fence()
	var n int
	d.Postings(id, func(uint64) bool { n++; return true })
	if n != 2 {
		t.Fatalf("planted list holds %d postings, want 2", n)
	}
	got := lookupVisible(tbl, 0, Int(7), 5)
	if len(got) != 1 || got[0] != row {
		t.Fatalf("lookup with stale duplicate entry = %v, want [%d] once", got, row)
	}
}

// TestIndexedAppendCost: an indexed column's delta index is the
// dictionary it keeps anyway plus a posting per row, and the posting of
// a key the column has not seen is a heads slot beside its dictionary
// slot that holds the row itself. So an append of a unique key costs at
// most 4 flushed lines, no fence and 48 bytes more on an indexed column
// than on the same column unindexed — no fence to two decimals: the
// heads vector's doubling segments persist as they are linked.
func TestIndexedAppendCost(t *testing.T) {
	const rows = 20000
	perRow := func(mask uint64) (flushes, fences, bytes float64) {
		h, _ := testNVMHeap(t)
		tbl, err := CreateNVMTable(h, "orders", 1, ordersSchema(t), mask)
		if err != nil {
			t.Fatal(err)
		}
		s0 := h.Stats()
		for i := int64(0); i < rows; i++ {
			if _, err := tbl.AppendRow([]Value{Int(i), Str("c"), Float(0)}, 1); err != nil {
				t.Fatal(err)
			}
		}
		s1 := h.Stats()
		return float64(s1.Flushes-s0.Flushes) / rows, float64(s1.Fences-s0.Fences) / rows,
			float64(s1.BytesUsed-s0.BytesUsed) / rows
	}
	f0, n0, b0 := perRow(0)
	f1, n1, b1 := perRow(0b001)
	t.Logf("per row, unindexed: %.2f lines, %.2f fences, %.1f B; id indexed: %.2f lines, %.2f fences, %.1f B",
		f0, n0, b0, f1, n1, b1)
	if f1-f0 > 4 || n1-n0 >= 0.005 || b1-b0 > 48 {
		t.Fatalf("indexing id costs %.2f lines, %.2f fences and %.1f B more per row, budget 4, 0 and 48",
			f1-f0, n1-n0, b1-b0)
	}
}

// TestFsckReportsBadPostingLists: a heads vector whose length differs
// from its dictionary's, and a posting node outside the dictionary
// index's arena, are FsckNVM's to report.
func TestFsckReportsBadPostingLists(t *testing.T) {
	h, _ := testNVMHeap(t)
	tbl, err := CreateNVMTable(h, "orders", 1, ordersSchema(t), 0b001)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 20; i++ {
		row, _ := tbl.AppendRow([]Value{Int(i % 4), Str("c"), Float(0)}, 1)
		commitRow(tbl, row, 2)
	}
	if err := tbl.FsckNVM(10); err != nil {
		t.Fatal(err)
	}
	d := tbl.parts.Load().delta[0]
	last := d.heads.Get(3)
	d.heads.Truncate(3)
	if err := tbl.FsckNVM(10); err == nil || !strings.Contains(err.Error(), "3 posting-list heads for a dictionary of 4") {
		t.Fatalf("short heads vector: FsckNVM = %v", err)
	}
	if _, err := d.heads.Append(last); err != nil {
		t.Fatal(err)
	}
	if err := tbl.FsckNVM(10); err != nil {
		t.Fatalf("restored heads vector flagged: %v", err)
	}
	outside, err := h.Alloc(16)
	if err != nil {
		t.Fatal(err)
	}
	d.heads.SetNoPersist(2, uint64(outside))
	d.heads.PersistAt(2)
	if err := tbl.FsckNVM(10); err == nil || !strings.Contains(err.Error(), "value ID 2") ||
		!strings.Contains(err.Error(), "in no segment") {
		t.Fatalf("posting node outside the arena: FsckNVM = %v", err)
	}
}

// TestLookupRowsUnderAppends: readers look keys up while a writer
// appends rows of them to the posting lists (run it with -race). Every
// row a lookup yields carries the key, and once the writer is done every
// row is found.
func TestLookupRowsUnderAppends(t *testing.T) {
	const rows, keys = 2000, 7
	tbl := dramTable(t, ordersSchema(t), 0b001)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := int64(0); ; k = (k + 1) % keys {
				select {
				case <-done:
					return
				default:
				}
				v := tbl.View()
				v.LookupRows(0, Int(k).EncodeKey(nil), func(row uint64) bool {
					if got := v.Value(0, row).I; got != k {
						t.Errorf("lookup(%d) yielded row %d holding %d", k, row, got)
						return false
					}
					return true
				})
			}
		}()
	}
	for i := int64(0); i < rows; i++ {
		row, err := tbl.AppendRow([]Value{Int(i % keys), Str("c"), Float(0)}, 1)
		if err != nil {
			t.Fatal(err)
		}
		commitRow(tbl, row, 2)
	}
	close(done)
	wg.Wait()
	for k := int64(0); k < keys; k++ {
		if got, want := len(lookupVisible(tbl, 0, Int(k), 2)), (rows+keys-1-int(k))/keys; got != want {
			t.Fatalf("lookup(%d) found %d rows, want %d", k, got, want)
		}
	}
}
