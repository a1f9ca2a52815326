package storage

import (
	"fmt"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
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

// testDRAMHeap returns a heap that does not persist: the medium of the
// log-based and volatile engines, and of every "dram" variant here.
func testDRAMHeap(t testing.TB) *nvm.Heap {
	t.Helper()
	h, err := nvm.CreateVolatile()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.Close() })
	return h
}

// dramTable creates a table on a heap of its own that does not persist.
func dramTable(t testing.TB, schema Schema, indexMask uint64) *Table {
	t.Helper()
	tbl, err := CreateNVMTable(testDRAMHeap(t), "orders", 1, schema, indexMask)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
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

// deltaColumns builds one column per medium so every test runs on both.
func deltaColumns(t *testing.T, typ ColType, indexed bool) map[string]DeltaColumn {
	t.Helper()
	h, _ := testNVMHeap(t)
	out := map[string]DeltaColumn{}
	for name, h := range map[string]*nvm.Heap{"dram": testDRAMHeap(t), "nvm": h} {
		d, err := NewNVMDelta(h, typ, indexed)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = d
	}
	return out
}

func TestDeltaColumnAppendLookup(t *testing.T) {
	for name, d := range deltaColumns(t, TypeString, false) {
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
	for name, d := range deltaColumns(t, TypeInt64, false) {
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
	for name, d := range deltaColumns(t, TypeFloat64, false) {
		t.Run(name+"/float", func(t *testing.T) {
			d.Append(Float(3.5))
			if got := d.Value(0); got.F != 3.5 {
				t.Fatalf("Value = %v", got)
			}
		})
	}
}

// postings collects the rows Postings yields for the dictionary ID of v.
func postings(d DeltaColumn, v Value) []uint64 {
	id, ok := d.LookupValueID(v.EncodeKey(nil))
	if !ok {
		return nil
	}
	var rows []uint64
	d.Postings(id, func(r uint64) bool { rows = append(rows, r); return true })
	slices.Sort(rows)
	return rows
}

// TestDeltaColumnPostings: an indexed column is its own delta index —
// the rows of a value are its value ID's posting list — and an
// unindexed one posts nothing.
func TestDeltaColumnPostings(t *testing.T) {
	for name, d := range deltaColumns(t, TypeString, true) {
		t.Run(name, func(t *testing.T) {
			for i := 0; i < 50; i++ {
				if _, err := d.Append(Str(fmt.Sprintf("k%d", i%5))); err != nil {
					t.Fatal(err)
				}
			}
			want := []uint64{3, 8, 13, 18, 23, 28, 33, 38, 43, 48}
			if got := postings(d, Str("k3")); !slices.Equal(got, want) {
				t.Fatalf("postings(k3) = %v, want %v", got, want)
			}
			if got := postings(d, Str("absent")); got != nil {
				t.Fatalf("postings(absent) = %v", got)
			}
			id, _ := d.LookupValueID(Str("k3").EncodeKey(nil))
			var n int
			d.Postings(id, func(uint64) bool { n++; return false })
			if n != 1 {
				t.Fatalf("early stop visited %d", n)
			}
		})
	}
	for name, d := range deltaColumns(t, TypeString, false) {
		t.Run(name+"/unindexed", func(t *testing.T) {
			d.Append(Str("k"))
			d.Postings(0, func(uint64) bool { t.Fatal("an unindexed column posted a row"); return false })
		})
	}
}

func TestDeltaColumnTruncate(t *testing.T) {
	for name, d := range deltaColumns(t, TypeInt64, false) {
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
	d, err := NewNVMDelta(h, TypeString, true)
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

// TestNVMDeltaLookupUnderGrowingWriter: readers look values up in an
// NVM delta column while one writer appends enough new values to double
// the dictionary index's directory several times (run it with -race).
// Every value the writer has appended is found with its ID, and no value
// it has not appended is found.
func TestNVMDeltaLookupUnderGrowingWriter(t *testing.T) {
	const n = 3000
	h, _ := testNVMHeap(t)
	d, err := NewNVMDelta(h, TypeInt64, false)
	if err != nil {
		t.Fatal(err)
	}
	var appended atomic.Int64
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := int64(r); ; i = (i*7 + 1) % n {
				select {
				case <-done:
					return
				default:
				}
				have := appended.Load()
				id, ok := d.LookupValueID(Int(i).EncodeKey(nil))
				switch {
				case i < have && (!ok || id != uint64(i)):
					t.Errorf("value %d, appended as ID %d, looks up as %d, %v", i, i, id, ok)
					return
				case ok && id != uint64(i):
					t.Errorf("value %d looks up as ID %d", i, id)
					return
				}
				if _, ok := d.LookupValueID(Int(n + i).EncodeKey(nil)); ok {
					t.Errorf("value %d, never appended, is found", n+i)
					return
				}
			}
		}(r)
	}
	for i := int64(0); i < n; i++ {
		if id, err := d.Append(Int(i)); err != nil || id != uint64(i) {
			t.Errorf("Append(%d) = %d, %v", i, id, err)
			break
		}
		appended.Store(i + 1)
	}
	close(done)
	wg.Wait()
	if err := d.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestNVMDeltaPostingsSurviveReopen: an indexed NVM delta column's
// posting lists are found again after a restart, without a rebuild, and
// take appends afterwards.
func TestNVMDeltaPostingsSurviveReopen(t *testing.T) {
	h, path := testNVMHeap(t)
	d, err := NewNVMDelta(h, TypeString, true)
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
	want := []uint64{0, 17, 34, 51, 68, 85}
	if got := postings(d2, Str("v000")); !slices.Equal(got, want) {
		t.Fatalf("after reopen postings(v000) = %v, want %v", got, want)
	}
	if _, err := d2.Append(Str("v000")); err != nil {
		t.Fatal(err)
	}
	want = append(want, 100)
	if got := postings(d2, Str("v000")); !slices.Equal(got, want) {
		t.Fatalf("post-restart postings(v000) = %v, want %v", got, want)
	}
}

func mainColumns(t *testing.T, typ ColType, rowKeys [][]byte) map[string]MainColumn {
	t.Helper()
	h, _ := testNVMHeap(t)
	out := map[string]MainColumn{}
	for name, h := range map[string]*nvm.Heap{"dram": testDRAMHeap(t), "nvm": h} {
		m, err := BuildNVMMain(h, typ, rowKeys)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = m
	}
	return out
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
