package storage

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
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
	dict := [][]byte{[]byte("a"), []byte("b")}
	if _, err := nvmMainFromParts(h, TypeString, dict, []uint64{0, 1, 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := nvmMainFromParts(h, TypeString, dict, []uint64{0, 2, 1}); err == nil {
		t.Fatal("ID 2 accepted at width 1")
	}
}

// buildDict is the oracle of the merge: it deduplicates rowKeys through a
// map and sorts them, returning the sorted dictionary and the per-row
// dictionary IDs. It keeps the keys in the order they come, not the
// map's, so that a fuzzer sees the same coverage for the same input.
func buildDict(rowKeys [][]byte) (dict [][]byte, ids []uint64) {
	set := make(map[string]struct{}, len(rowKeys))
	var sorted []string
	for _, k := range rowKeys {
		if _, ok := set[string(k)]; !ok {
			set[string(k)] = struct{}{}
			sorted = append(sorted, string(k))
		}
	}
	sort.Strings(sorted)
	idx := make(map[string]uint64, len(sorted))
	for i, k := range sorted {
		idx[k] = uint64(i)
		dict = append(dict, []byte(k))
	}
	ids = make([]uint64, len(rowKeys))
	for i, k := range rowKeys {
		ids[i] = idx[string(k)]
	}
	return dict, ids
}

// oracleMerge merges tbl as Merge does, but builds each column's
// dictionary with buildDict from a copy of every visible row's key.
func oracleMerge(t *testing.T, tbl *Table, snap uint64) {
	t.Helper()
	v := tbl.View()
	ncols := tbl.Schema.NumCols()
	keys := make([][][]byte, ncols)
	var begins []uint64
	v.ScanVisible(snap, 0, func(row uint64) bool {
		s, local := v.MVCCFor(row)
		begins = append(begins, s.Begin(local))
		for c := range keys {
			var k []byte
			if row < v.MainRows() {
				m := v.MainColumnAt(c)
				k = m.DictKey(m.ValueID(local))
			} else {
				d := v.DeltaColumnAt(c)
				k = d.DictKey(d.ValueID(local))
			}
			keys[c] = append(keys[c], k)
		}
		return true
	})
	mains := make([]*NVMMain, ncols)
	for c := range mains {
		dict, ids := buildDict(keys[c])
		var err error
		if mains[c], err = nvmMainFromParts(tbl.h, tbl.Schema.Cols[c].Type, dict, ids); err != nil {
			t.Fatal(err)
		}
	}
	newPS, err := tbl.mergeNVM(mains, begins)
	if err != nil {
		t.Fatal(err)
	}
	tbl.parts.Store(newPS)
	tbl.epoch.Add(1)
}

// mergeKeys are values whose keys the merge must order and dedupe:
// negative numbers, -0.0 beside 0.0, infinities, and strings that share
// their first 8 bytes or differ from each other only by trailing zero
// bytes, which give them the same KeyWord.
var mergeKeys = struct {
	ints   []int64
	floats []float64
	strs   []string
}{
	ints:   []int64{math.MinInt64, -1 << 40, -7, -1, 0, 1, 7, 1 << 40, math.MaxInt64},
	floats: []float64{math.Inf(-1), -1e300, -2.5, -1, math.Copysign(0, -1), 0, 1e-300, 2.5, math.Inf(1)},
	strs: []string{"", "\x00", "a", "a\x00", "abc", "abc\x00", "abcdefgh", "abcdefgh\x00",
		"abcdefghi", "abcdefghij", "abcdefgz", "abcdefg", "prefix__0", "prefix__1", "prefix__10", "\xff\xff"},
}

// TestMergeMatchesOracle drives two tables through the same random
// inserts, updates, deletes and aborts and four merges — into an empty
// main, into a main with updated and deleted rows, with an empty delta,
// and with every row dead — and merges one with Merge, the other with
// oracleMerge. Every new main column must have the oracle's dictionary
// and value IDs, the heaps must have allocated the same bytes, and Check
// must pass.
func TestMergeMatchesOracle(t *testing.T) {
	schema, err := NewSchema(
		ColumnDef{"i", TypeInt64},
		ColumnDef{"f", TypeFloat64},
		ColumnDef{"s", TypeString},
	)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 8; seed++ {
		got, want := dramTable(t, schema, 0b101), dramTable(t, schema, 0b101)
		cid := uint64(1)
		for round, ops := range []int{300, 200, 0, -1} {
			opSeed, wantCID := seed<<8|int64(round), cid
			mutateForMerge(t, got, rand.New(rand.NewSource(opSeed)), &cid, ops)
			mutateForMerge(t, want, rand.New(rand.NewSource(opSeed)), &wantCID, ops)
			snap := cid + 1
			if _, err := got.Merge(snap); err != nil {
				t.Fatalf("seed %d round %d: merge: %v", seed, round, err)
			}
			oracleMerge(t, want, snap)
			gps, wps := got.parts.Load(), want.parts.Load()
			for c := range schema.Cols {
				g, w := gps.main[c], wps.main[c]
				if g.DictLen() != w.DictLen() || g.Rows() != w.Rows() {
					t.Fatalf("seed %d round %d column %d: dictionary %d keys over %d rows, oracle %d over %d",
						seed, round, c, g.DictLen(), g.Rows(), w.DictLen(), w.Rows())
				}
				for id := range g.DictLen() {
					if !bytes.Equal(g.DictKey(id), w.DictKey(id)) {
						t.Fatalf("seed %d round %d column %d: key %d is %q, oracle %q",
							seed, round, c, id, g.DictKey(id), w.DictKey(id))
					}
				}
				for r := range g.Rows() {
					if g.ValueID(r) != w.ValueID(r) {
						t.Fatalf("seed %d round %d column %d: row %d has ID %d, oracle %d",
							seed, round, c, r, g.ValueID(r), w.ValueID(r))
					}
				}
			}
			if g, w := got.h.Stats().BytesUsed, want.h.Stats().BytesUsed; g != w {
				t.Fatalf("seed %d round %d: heap holds %d bytes, oracle's %d", seed, round, g, w)
			}
			if _, err := got.Check(); err != nil {
				t.Fatalf("seed %d round %d: %v", seed, round, err)
			}
		}
		if got.MainRows() != 0 {
			t.Fatalf("seed %d: %d rows survive deleting all", seed, got.MainRows())
		}
	}
}

// mutateForMerge commits ops random inserts, updates and deletes to tbl,
// with aborted inserts and short-lived rows among them whose keys only
// dead rows use; ops < 0 deletes every visible row instead. *cid is the
// last commit ID, advanced past each commit.
func mutateForMerge(t *testing.T, tbl *Table, rng *rand.Rand, cid *uint64, ops int) {
	t.Helper()
	var live []uint64
	tbl.ScanVisible(*cid+1, 0, func(row uint64) bool {
		live = append(live, row)
		return true
	})
	if ops < 0 {
		*cid++
		for _, r := range live {
			tbl.StampEnd(r, *cid)
		}
		return
	}
	k := mergeKeys
	randRow := func() []Value {
		return []Value{
			Int(k.ints[rng.Intn(len(k.ints))] + int64(rng.Intn(3))),
			Float(k.floats[rng.Intn(len(k.floats))]),
			Str(k.strs[rng.Intn(len(k.strs))]),
		}
	}
	insert := func(vals []Value) uint64 {
		row, err := tbl.AppendRow(vals, 1)
		if err != nil {
			t.Fatal(err)
		}
		*cid++
		commitRow(tbl, row, *cid)
		return row
	}
	for range ops {
		switch n := rng.Intn(10); {
		case n < 5 || len(live) == 0:
			live = append(live, insert(randRow()))
		case n < 7: // update one column of a live row
			i := rng.Intn(len(live))
			vals := make([]Value, tbl.Schema.NumCols())
			for c := range vals {
				vals[c] = tbl.Value(c, live[i])
			}
			c := rng.Intn(len(vals))
			vals[c] = randRow()[c]
			*cid++
			tbl.StampEnd(live[i], *cid)
			live[i] = insert(vals)
		case n < 8: // delete
			i := rng.Intn(len(live))
			*cid++
			tbl.StampEnd(live[i], *cid)
			live = append(live[:i], live[i+1:]...)
		case n < 9: // a row that lives and dies before the merge
			row := insert([]Value{Int(int64(rng.Intn(1000)) + 1000), Float(rng.Float64() + 10), Str(fmt.Sprintf("gone%d", rng.Intn(1000)))})
			*cid++
			tbl.StampEnd(row, *cid)
		default: // aborted insert
			row, err := tbl.AppendRow([]Value{Int(-1000), Float(-1000), Str("ghost")}, 9999)
			if err != nil {
				t.Fatal(err)
			}
			tbl.ReleaseOwner(row, 9999)
		}
	}
}

// FuzzMergeDict merges fuzzed dictionaries: a sorted main dictionary and
// a delta dictionary in arrival order, each read from a byte string as
// length-prefixed keys, and random rows over both. The result must be
// buildDict's over the rows' keys.
func FuzzMergeDict(f *testing.F) {
	lp := func(keys ...string) []byte {
		var b []byte
		for _, k := range keys {
			b = append(append(b, byte(len(k))), k...)
		}
		return b
	}
	f.Add(lp("a", "abcdefgh", "abcdefghi", "b"), lp("abcdefghi", "abcdefgh\x00", "a\x00", "", "c"), int64(1))
	f.Add(lp(), lp("x", "y"), int64(2))
	f.Add(lp("x", "y"), lp(), int64(3))
	f.Add(lp(string(Int(-1).EncodeKey(nil)), string(Int(5).EncodeKey(nil))),
		lp(string(Int(5).EncodeKey(nil)), string(Int(math.MinInt64).EncodeKey(nil))), int64(4))
	f.Add(lp(string(Float(-2.5).EncodeKey(nil)), string(Float(0).EncodeKey(nil))),
		lp(string(Float(math.Copysign(0, -1)).EncodeKey(nil)), string(Float(0).EncodeKey(nil))), int64(5))
	f.Fuzz(func(t *testing.T, mainSrc, deltaSrc []byte, seed int64) {
		parse := func(b []byte) [][]byte {
			var keys [][]byte
			seen := map[string]bool{}
			for len(b) > 0 {
				n := min(int(b[0])%16, len(b)-1)
				k := b[1 : 1+n]
				b = b[1+n:]
				if !seen[string(k)] {
					seen[string(k)] = true
					keys = append(keys, k)
				}
			}
			return keys
		}
		mainDict, deltaDict := parse(mainSrc), parse(deltaSrc)
		slices.SortFunc(mainDict, bytes.Compare)
		rng := rand.New(rand.NewSource(seed))
		var ids []uint64
		var rowKeys [][]byte
		pick := func(dict [][]byte) {
			for range rng.Intn(2*len(dict) + 1) {
				id := rng.Intn(len(dict))
				ids = append(ids, uint64(id))
				rowKeys = append(rowKeys, dict[id])
			}
		}
		pick(mainDict)
		nMain := len(ids)
		pick(deltaDict)

		key := func(dict [][]byte) func(uint64) []byte {
			return func(id uint64) []byte { return dict[id] }
		}
		dict := mergeDict(ids, nMain, uint64(len(mainDict)), uint64(len(deltaDict)), key(mainDict), key(deltaDict))
		wantDict, wantIDs := buildDict(rowKeys)
		if !slices.EqualFunc(dict, wantDict, bytes.Equal) {
			t.Fatalf("dictionary %q, oracle %q", dict, wantDict)
		}
		if !slices.Equal(ids, wantIDs) {
			t.Fatalf("IDs %v, oracle %v", ids, wantIDs)
		}
	})
}
