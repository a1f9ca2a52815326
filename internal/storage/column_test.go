package storage

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"hyrisenv/internal/nvm"
)

func testNVMHeap(t *testing.T) (*nvm.Heap, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "heap.nvm")
	h, err := nvm.Create(path, 256<<20)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	t.Cleanup(func() { h.Close() })
	return h, path
}

func reopenHeap(t *testing.T, h *nvm.Heap, path string) *nvm.Heap {
	t.Helper()
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	h2, err := nvm.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h2.Close() })
	return h2
}

// deltaColumns builds one column per backend so every test runs on both.
func deltaColumns(t *testing.T, typ ColType) map[string]DeltaColumn {
	t.Helper()
	h, _ := testNVMHeap(t)
	nd, err := NewNVMDelta(h, typ)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]DeltaColumn{
		"dram": NewVolatileDelta(typ),
		"nvm":  nd,
	}
}

func TestDeltaColumnAppendLookup(t *testing.T) {
	for name, d := range deltaColumns(t, TypeString) {
		t.Run(name, func(t *testing.T) {
			vals := []string{"red", "green", "red", "blue", "green", "red"}
			for i, s := range vals {
				id, err := d.Append(Str(s))
				if err != nil {
					t.Fatal(err)
				}
				if got := d.ValueID(uint64(i)); got != id {
					t.Fatalf("row %d: ValueID = %d, want %d", i, got, id)
				}
			}
			if d.Rows() != 6 {
				t.Fatalf("Rows = %d", d.Rows())
			}
			if d.DictLen() != 3 {
				t.Fatalf("DictLen = %d, want 3 distinct", d.DictLen())
			}
			// Duplicate values share IDs.
			if d.ValueID(0) != d.ValueID(2) || d.ValueID(0) != d.ValueID(5) {
				t.Fatal("duplicate values got different IDs")
			}
			for i, s := range vals {
				if got := d.Value(uint64(i)); got.S != s {
					t.Fatalf("Value(%d) = %q, want %q", i, got.S, s)
				}
			}
			id, ok := d.LookupValueID(Str("blue").EncodeKey(nil))
			if !ok || d.DictValue(id).S != "blue" {
				t.Fatalf("LookupValueID(blue) = %d,%v", id, ok)
			}
			if _, ok := d.LookupValueID(Str("purple").EncodeKey(nil)); ok {
				t.Fatal("found a value never inserted")
			}
			var n int
			d.ScanIDs(func(row, id uint64) bool { n++; return true })
			if n != 6 {
				t.Fatalf("ScanIDs visited %d", n)
			}
		})
	}
}

func TestDeltaColumnIntFloat(t *testing.T) {
	for name, d := range deltaColumns(t, TypeInt64) {
		t.Run(name+"/int", func(t *testing.T) {
			for _, v := range []int64{5, -3, 5, 0} {
				if _, err := d.Append(Int(v)); err != nil {
					t.Fatal(err)
				}
			}
			if d.DictLen() != 3 {
				t.Fatalf("DictLen = %d", d.DictLen())
			}
			if d.Value(1).I != -3 {
				t.Fatalf("Value(1) = %v", d.Value(1))
			}
		})
	}
	for name, d := range deltaColumns(t, TypeFloat64) {
		t.Run(name+"/float", func(t *testing.T) {
			d.Append(Float(3.5))
			if got := d.Value(0); got.F != 3.5 {
				t.Fatalf("Value = %v", got)
			}
		})
	}
}

func TestDeltaColumnTruncate(t *testing.T) {
	for name, d := range deltaColumns(t, TypeInt64) {
		t.Run(name, func(t *testing.T) {
			for i := int64(0); i < 10; i++ {
				d.Append(Int(i))
			}
			d.Truncate(4)
			if d.Rows() != 4 {
				t.Fatalf("Rows = %d", d.Rows())
			}
			// Appending after truncation reuses slots consistently.
			d.Append(Int(100))
			if d.Value(4).I != 100 {
				t.Fatalf("Value(4) = %v", d.Value(4))
			}
		})
	}
}

func TestNVMDeltaSurvivesReopen(t *testing.T) {
	h, path := testNVMHeap(t)
	d, err := NewNVMDelta(h, TypeString)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := d.Append(Str(fmt.Sprintf("v%03d", i%17))); err != nil {
			t.Fatal(err)
		}
	}
	h.SetRoot("col", d.Root(), 0)
	h2 := reopenHeap(t, h, path)
	root, _, _ := h2.Root("col")
	d2 := AttachNVMDelta(h2, root)
	if d2.Type() != TypeString {
		t.Fatalf("Type = %v", d2.Type())
	}
	if d2.Rows() != 100 || d2.DictLen() != 17 {
		t.Fatalf("Rows=%d DictLen=%d", d2.Rows(), d2.DictLen())
	}
	for i := 0; i < 100; i++ {
		want := fmt.Sprintf("v%03d", i%17)
		if got := d2.Value(uint64(i)); got.S != want {
			t.Fatalf("Value(%d) = %q, want %q", i, got.S, want)
		}
	}
	// Dictionary index works without rebuild: insert an existing value,
	// same ID must come back.
	id0 := d2.ValueID(0)
	id, err := d2.Append(Str("v000"))
	if err != nil {
		t.Fatal(err)
	}
	if id != id0 {
		t.Fatalf("post-restart append of existing value: id %d, want %d", id, id0)
	}
}

func mainColumns(t *testing.T, typ ColType, rowKeys [][]byte) map[string]MainColumn {
	t.Helper()
	h, _ := testNVMHeap(t)
	nm, err := BuildNVMMain(h, typ, rowKeys)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]MainColumn{
		"dram": BuildVolatileMain(typ, rowKeys),
		"nvm":  nm,
	}
}

func encodeInts(vals ...int64) [][]byte {
	keys := make([][]byte, len(vals))
	for i, v := range vals {
		keys[i] = Int(v).EncodeKey(nil)
	}
	return keys
}

func TestMainColumnBasics(t *testing.T) {
	rows := []int64{30, 10, 20, 10, 30, 30}
	for name, m := range mainColumns(t, TypeInt64, encodeInts(rows...)) {
		t.Run(name, func(t *testing.T) {
			if m.Rows() != 6 {
				t.Fatalf("Rows = %d", m.Rows())
			}
			if m.DictLen() != 3 {
				t.Fatalf("DictLen = %d", m.DictLen())
			}
			// Dictionary is sorted: IDs order like values.
			if m.DictValue(0).I != 10 || m.DictValue(1).I != 20 || m.DictValue(2).I != 30 {
				t.Fatal("dictionary not sorted")
			}
			for i, v := range rows {
				if got := m.Value(uint64(i)); got.I != v {
					t.Fatalf("Value(%d) = %v, want %d", i, got, v)
				}
			}
			id, ok := m.LookupValueID(Int(20).EncodeKey(nil))
			if !ok || id != 1 {
				t.Fatalf("LookupValueID(20) = %d,%v", id, ok)
			}
			if _, ok := m.LookupValueID(Int(15).EncodeKey(nil)); ok {
				t.Fatal("found 15")
			}
			lo, hi := m.LookupRange(Int(10).EncodeKey(nil), Int(30).EncodeKey(nil))
			if lo != 0 || hi != 2 {
				t.Fatalf("LookupRange = [%d,%d), want [0,2)", lo, hi)
			}
			var count int
			m.ScanIDs(func(row, id uint64) bool { count++; return true })
			if count != 6 {
				t.Fatalf("ScanIDs visited %d", count)
			}
		})
	}
}

func TestMainColumnEmpty(t *testing.T) {
	for name, m := range mainColumns(t, TypeInt64, nil) {
		t.Run(name, func(t *testing.T) {
			if m.Rows() != 0 || m.DictLen() != 0 {
				t.Fatalf("empty main: Rows=%d DictLen=%d", m.Rows(), m.DictLen())
			}
			if _, ok := m.LookupValueID(Int(1).EncodeKey(nil)); ok {
				t.Fatal("lookup in empty main")
			}
		})
	}
}

func TestNVMMainSurvivesReopen(t *testing.T) {
	h, path := testNVMHeap(t)
	rows := encodeInts(5, 1, 5, 9, 1)
	m, err := BuildNVMMain(h, TypeInt64, rows)
	if err != nil {
		t.Fatal(err)
	}
	h.SetRoot("main", m.Root(), 0)
	h2 := reopenHeap(t, h, path)
	root, _, _ := h2.Root("main")
	m2 := AttachNVMMain(h2, root)
	want := []int64{5, 1, 5, 9, 1}
	for i, v := range want {
		if got := m2.Value(uint64(i)); got.I != v {
			t.Fatalf("Value(%d) = %v, want %d", i, got, v)
		}
	}
	if m2.Type() != TypeInt64 {
		t.Fatal("type lost")
	}
}

// TestNVMTableRejectsSetIdxKindWord: the delta-column root word that
// once selected the dictionary index structure is reserved. A column
// that carries 1 there was written with the removed hash index, whose
// root must not be read as a skip list's: fsck reports the column, and
// the table does not open.
func TestNVMTableRejectsSetIdxKindWord(t *testing.T) {
	h, path := testNVMHeap(t)
	tbl, err := CreateNVMTable(h, "orders", 1, ordersSchema(t), 0b001)
	if err != nil {
		t.Fatal(err)
	}
	h.SetRoot("tbl:orders", tbl.Root(), 0)
	for i := int64(0); i < 10; i++ {
		row, _ := tbl.AppendRow([]Value{Int(i), Str("c"), Float(0)}, 1)
		commitRow(tbl, row, 2)
	}
	if err := tbl.FsckNVM(2); err != nil {
		t.Fatal(err)
	}
	// What the removed option left behind: kind 1, and an index root that
	// is not a skip list's — attaching it as one reads garbage pointers.
	root := tbl.parts.Load().nvmDelta[1].Root()
	notASkipList, err := h.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	for off := uint64(0); off < 64; off += 8 {
		h.PutU64(notASkipList.Add(off), 0x0101010101010101)
	}
	h.Persist(notASkipList, 64)
	h.PutU64(root.Add(ndOffIdx), uint64(notASkipList))
	h.PutU64(root.Add(ndOffIdxKind), 1)
	h.Persist(root, ndRootSize)
	if err := tbl.FsckNVM(2); err == nil || !strings.Contains(err.Error(), "column 1") ||
		!strings.Contains(err.Error(), "dictionary index kind 1") {
		t.Fatalf("fsck of a set index-kind word = %v, want a finding naming column 1", err)
	}
	h2 := reopenHeap(t, h, path)
	tblRoot, _, _ := h2.Root("tbl:orders")
	_, err = OpenNVMTable(h2, "orders", tblRoot)
	if err == nil || !strings.Contains(err.Error(), "column 1 (customer)") ||
		!strings.Contains(err.Error(), "dictionary index kind 1") {
		t.Fatalf("OpenNVMTable with a set index-kind word = %v, want an error naming column 1 (customer)", err)
	}
}
