package storage

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"hyrisenv/internal/nvm"
)

// visibleMultiset captures the visible row contents at a snapshot,
// order-insensitively.
func visibleMultiset(tbl *Table, snap uint64) []string {
	var out []string
	tbl.ScanVisible(snap, 0, func(row uint64) bool {
		var s string
		for c := 0; c < tbl.Schema.NumCols(); c++ {
			s += tbl.Value(c, row).String() + "|"
		}
		out = append(out, s)
		return true
	})
	sort.Strings(out)
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestMergePreservesVisibleContentProperty drives random insert /
// delete / abort patterns and checks the fundamental merge property:
// the visible multiset of rows is identical before and after a merge,
// on both backends.
func TestMergePreservesVisibleContentProperty(t *testing.T) {
	type deckCard struct {
		table *Table
		name  string
	}
	mkTables := func() []deckCard {
		h, _ := testNVMHeap(t)
		nt, err := CreateNVMTable(h, "orders", 1, ordersSchema(t), 0b001)
		if err != nil {
			t.Fatal(err)
		}
		return []deckCard{
			{dramTable(t, ordersSchema(t), 0b001), "dram"},
			{nt, "nvm"},
		}
	}

	f := func(seed int64, nOps uint8) bool {
		ops := int(nOps)%60 + 10
		for _, tc := range mkTables() {
			tbl := tc.table
			rng := rand.New(rand.NewSource(seed))
			cid := uint64(1)
			var liveRows []uint64
			for i := 0; i < ops; i++ {
				switch rng.Intn(10) {
				case 0, 1, 2, 3, 4, 5: // committed insert
					row, err := tbl.AppendRow([]Value{
						Int(int64(rng.Intn(20))),
						Str(fmt.Sprintf("c%d", rng.Intn(5))),
						Float(float64(rng.Intn(100))),
					}, 1)
					if err != nil {
						t.Fatal(err)
					}
					cid++
					commitRow(tbl, row, cid)
					liveRows = append(liveRows, row)
				case 6, 7: // committed delete of a live row
					if len(liveRows) == 0 {
						continue
					}
					k := rng.Intn(len(liveRows))
					cid++
					tbl.StampEnd(liveRows[k], cid)
					liveRows = append(liveRows[:k], liveRows[k+1:]...)
				default: // aborted insert: stays invisible forever
					if _, err := tbl.AppendRow([]Value{
						Int(-1), Str("ghost"), Float(0),
					}, 9999); err != nil {
						t.Fatal(err)
					}
					// Simulate abort: release the row lock.
					r := tbl.Rows() - 1
					tbl.ReleaseOwner(r, 9999)
				}
			}
			snap := cid + 1
			before := visibleMultiset(tbl, snap)
			if _, err := tbl.Merge(snap); err != nil {
				t.Fatalf("%s: merge: %v", tc.name, err)
			}
			after := visibleMultiset(tbl, snap)
			if !equalStrings(before, after) {
				t.Fatalf("%s: merge changed visible content:\nbefore=%v\nafter=%v",
					tc.name, before, after)
			}
			// Merging again immediately must be a no-op contentwise.
			if _, err := tbl.Merge(snap + 1); err != nil {
				t.Fatalf("%s: second merge: %v", tc.name, err)
			}
			if again := visibleMultiset(tbl, snap+1); !equalStrings(before, again) {
				t.Fatalf("%s: double merge changed content", tc.name)
			}
			// Structural integrity after merging.
			if _, err := tbl.Check(); err != nil {
				t.Fatalf("%s: check after merge: %v", tc.name, err)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

func TestCheckDetectsCorruption(t *testing.T) {
	tbl := dramTable(t, ordersSchema(t), 0)
	row, _ := tbl.AppendRow([]Value{Int(1), Str("a"), Float(1)}, 1)
	commitRow(tbl, row, 2)
	if _, err := tbl.Check(); err != nil {
		t.Fatalf("clean table flagged: %v", err)
	}
	// Corrupt MVCC: end before begin.
	tbl.StampBegin(row, 10)
	tbl.StampEnd(row, 5)
	if _, err := tbl.Check(); err == nil {
		t.Fatal("end<begin not detected")
	}
}

// TestCheckReportsBadAttributeVector: a main attribute vector with a set
// bit in the padding rows of its last segment, or under a root that claims
// a width no value ID has, is Check's and FsckNVM's to report — attach
// slices nothing it cannot, and nothing panics.
func TestCheckReportsBadAttributeVector(t *testing.T) {
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
	bpRoot := tbl.parts.Load().main[0].bp.Root()
	data := nvm.PPtr(h.GetU64(bpRoot.Add(16)))
	reopened := func() *Table {
		t.Helper()
		h = reopenHeap(t, h, path)
		root, _, _ := h.Root("tbl:orders")
		tbl, err := OpenNVMTable(h, "orders", root)
		if err != nil {
			t.Fatal(err)
		}
		return tbl
	}
	set := func(p nvm.PPtr, v uint64) {
		h.PutU64(p, v)
		h.Persist(p, 8)
	}

	// 50 rows are one segment: bit 63 of its first plane is a padding row.
	plane := h.GetU64(data)
	set(data, plane|1<<63)
	if _, err := reopened().Check(); err == nil || !strings.Contains(err.Error(), "padding") {
		t.Fatalf("set padding bit: Check = %v", err)
	}
	set(data, plane)
	if _, err := reopened().Check(); err != nil {
		t.Fatalf("restored vector flagged: %v", err)
	}

	set(bpRoot, 33)
	tbl = reopened()
	if _, err := tbl.Check(); err == nil {
		t.Fatal("width 33: Check passed")
	}
	if err := tbl.FsckNVM(10); err == nil || !strings.Contains(err.Error(), "width 33") {
		t.Fatalf("width 33: FsckNVM = %v", err)
	}
}

// TestMainFromPartsRejectsWideID: building a main column from a
// dictionary and row IDs — the checkpoint load path — refuses a value ID
// its dictionary's width does not hold.
func TestMainFromPartsRejectsWideID(t *testing.T) {
	h := testDRAMHeap(t)
	if _, err := nvmMainFromParts(h, TypeString, []string{"a", "b"}, []uint64{0, 1, 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := nvmMainFromParts(h, TypeString, []string{"a", "b"}, []uint64{0, 2, 1}); err == nil {
		t.Fatal("ID 2 accepted at width 1")
	}
}
