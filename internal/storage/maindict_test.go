package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"hyrisenv/internal/nvm"
)

// dictEdgeValues are the keys each type's dictionary must order and find
// at its edges: the extreme integers, both zeros and both infinities,
// the empty string, strings that share their first 8 bytes, and strings
// that differ only by trailing zero bytes.
var dictEdgeValues = map[ColType][]Value{
	TypeInt64: {Int(math.MinInt64), Int(math.MinInt64 + 1), Int(-1), Int(0), Int(1), Int(math.MaxInt64 - 1), Int(math.MaxInt64)},
	TypeFloat64: {Float(math.Inf(-1)), Float(-math.MaxFloat64), Float(-1.5), Float(math.Copysign(0, -1)),
		Float(0), Float(math.SmallestNonzeroFloat64), Float(1.5), Float(math.MaxFloat64), Float(math.Inf(1))},
	TypeString: {Str(""), Str("\x00"), Str("a"), Str("a\x00"), Str("a\x00\x00"), Str("abcdefgh"), Str("abcdefgh\x00"),
		Str("abcdefgha"), Str("abcdefghz"), Str("abcdefghzz"), Str("abcdefg"), Str("\xff\xff\xff\xff\xff\xff\xff\xff\xff")},
}

// randomValue returns a value of typ drawn from rng.
func randomValue(rng *rand.Rand, typ ColType) Value {
	switch typ {
	case TypeInt64:
		return Int(rng.Int63() - rng.Int63())
	case TypeFloat64:
		return Float(rng.NormFloat64() * 1e6)
	default:
		b := make([]byte, rng.Intn(40))
		for i := range b {
			b[i] = "ab\x00z"[rng.Intn(4)]
		}
		return Str(string(b))
	}
}

// dictKeySets returns, for typ, sorted unique key sets of 0, 1, 2 and
// many keys, the edge keys among them.
func dictKeySets(typ ColType) map[string][][]byte {
	rng := rand.New(rand.NewSource(int64(typ)))
	keysOf := func(vals []Value) [][]byte {
		var keys [][]byte
		for _, v := range vals {
			keys = append(keys, v.EncodeKey(nil))
		}
		slices.SortFunc(keys, bytes.Compare)
		return slices.CompactFunc(keys, bytes.Equal)
	}
	edges := dictEdgeValues[typ]
	many := slices.Clone(edges)
	for range 2000 {
		many = append(many, randomValue(rng, typ))
	}
	return map[string][][]byte{
		"0":    nil,
		"1":    keysOf(edges[:1]),
		"2":    keysOf(edges[len(edges)-2:]),
		"edge": keysOf(edges),
		"many": keysOf(many),
	}
}

// dictProbes returns the keys to look up in a dictionary of keys: every
// key, each with a byte less and a zero byte more, and random keys of
// typ, the edges among them.
func dictProbes(typ ColType, keys [][]byte) [][]byte {
	rng := rand.New(rand.NewSource(7))
	probes := [][]byte{nil, {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}}
	for _, k := range keys {
		probes = append(probes, k, append(slices.Clone(k), 0))
		if len(k) > 0 {
			probes = append(probes, k[:len(k)-1])
		}
	}
	for _, v := range dictEdgeValues[typ] {
		probes = append(probes, v.EncodeKey(nil))
	}
	for range 200 {
		probes = append(probes, randomValue(rng, typ).EncodeKey(nil))
	}
	return probes
}

// checkDictAgainst checks the dictionary of m against ref, its sorted
// keys: DictKey, DictValue, LookupValueID and LookupRange all answer as a
// binary search of ref does.
func checkDictAgainst(t *testing.T, m MainColumn, ref [][]byte) {
	t.Helper()
	if got := m.DictLen(); got != uint64(len(ref)) {
		t.Fatalf("DictLen = %d, want %d", got, len(ref))
	}
	for i, k := range ref {
		if got := m.DictKey(uint64(i)); !bytes.Equal(got, k) {
			t.Fatalf("DictKey(%d) = %q, want %q", i, got, k)
		}
		if got := m.DictValue(uint64(i)).EncodeKey(nil); !bytes.Equal(got, k) {
			t.Fatalf("DictValue(%d) encodes as %q, want %q", i, got, k)
		}
	}
	probes := dictProbes(m.Type(), ref)
	lower := func(k []byte) uint64 {
		i, _ := slices.BinarySearchFunc(ref, k, bytes.Compare)
		return uint64(i)
	}
	for i, p := range probes {
		want, found := slices.BinarySearchFunc(ref, p, bytes.Compare)
		id, ok := m.LookupValueID(p)
		if ok != found || (found && id != uint64(want)) {
			t.Fatalf("LookupValueID(%q) = %d,%v, want %d,%v", p, id, ok, want, found)
		}
		q := probes[(i*7+3)%len(probes)]
		lo, hi := m.LookupRange(p, q)
		if lo != lower(p) || hi != lower(q) {
			t.Fatalf("LookupRange(%q, %q) = [%d, %d), want [%d, %d)", p, q, lo, hi, lower(p), lower(q))
		}
	}
}

// TestMainDictMatchesReference: the one-block dictionary of every type,
// at 0, 1, 2 and many keys with the edge keys among them, answers as a
// sorted [][]byte does, when built and after the heap is re-attached.
func TestMainDictMatchesReference(t *testing.T) {
	for _, typ := range []ColType{TypeInt64, TypeFloat64, TypeString} {
		for name, keys := range dictKeySets(typ) {
			t.Run(fmt.Sprintf("%s/%s", typ, name), func(t *testing.T) {
				h, path := testNVMHeap(t)
				ids := make([]uint64, 3*len(keys))
				for i := range ids {
					ids[i] = uint64(i % max(len(keys), 1))
				}
				if len(keys) == 0 {
					ids = nil
				}
				m, err := nvmMainFromParts(h, typ, keys, ids)
				if err != nil {
					t.Fatal(err)
				}
				checkDictAgainst(t, m, keys)
				if err := m.Check(); err != nil {
					t.Fatal(err)
				}
				if err := h.SetRoot("main", m.Root(), 0); err != nil {
					t.Fatal(err)
				}
				h2 := reopenHeap(t, h, path)
				root, _, _ := h2.Root("main")
				m2 := AttachNVMMain(h2, root)
				checkDictAgainst(t, m2, keys)
				if err := m2.Check(); err != nil {
					t.Fatal(err)
				}
				if err := m2.CheckIDs(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestMainDictRejectsBadKeyLength: an Int64 or Float64 dictionary holds
// 8-byte keys only — a checkpoint that says otherwise fails to load.
func TestMainDictRejectsBadKeyLength(t *testing.T) {
	h := testDRAMHeap(t)
	for _, typ := range []ColType{TypeInt64, TypeFloat64} {
		if _, err := nvmMainFromParts(h, typ, [][]byte{[]byte("abc")}, []uint64{0}); err == nil {
			t.Fatalf("%s: a 3-byte key accepted", typ)
		}
	}
}

// dictBlock returns the dictionary block of m.
func dictBlock(m *NVMMain) nvm.PPtr { return nvm.PPtr(m.h.GetU64(m.root.Add(nmOffDict))) }

// TestMainDictDamagedHeaderIsError: a dictionary block whose header
// describes more than the block holds, or the other layout, is read as
// no dictionary at all — every lookup answers, none panics — and Check
// says why.
func TestMainDictDamagedHeaderIsError(t *testing.T) {
	for _, tc := range []struct {
		name string
		typ  ColType
		off  uint64 // the header word to overwrite
		val  uint64
		want string
	}{
		{"count past the block", TypeInt64, 0, 1000, "1000 keys"},
		{"count past the heap", TypeString, 0, 1 << 62, "cannot fit the heap"},
		{"word dictionary with offsets", TypeInt64, 8, 4, "offset width 4"},
		{"string dictionary without offsets", TypeString, 8, 0, "offset width 0"},
		{"odd offset width", TypeString, 8, 5, "offset width 5"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := testDRAMHeap(t)
			keys := dictKeySets(tc.typ)["edge"]
			m, err := nvmMainFromParts(h, tc.typ, keys, []uint64{0, 1, 2})
			if err != nil {
				t.Fatal(err)
			}
			h.SetU64(dictBlock(m).Add(tc.off), tc.val)
			m = AttachNVMMain(h, m.Root())
			if m.DictLen() != 0 {
				t.Fatalf("DictLen = %d of a damaged block", m.DictLen())
			}
			if _, ok := m.LookupValueID(keys[0]); ok {
				t.Fatal("found a key in a damaged block")
			}
			if lo, hi := m.LookupRange(keys[0], keys[1]); lo != 0 || hi != 0 {
				t.Fatalf("LookupRange = [%d, %d)", lo, hi)
			}
			if err := m.Check(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Check = %v, want it to say %q", err, tc.want)
			}
		})
	}
}

// TestMainDictCheckFindsBreaches: Check names the first key out of order
// and the first offset out of place.
func TestMainDictCheckFindsBreaches(t *testing.T) {
	h := testDRAMHeap(t)
	ints := encodeInts(1, 2, 3, 4)
	m, err := nvmMainFromParts(h, TypeInt64, ints, []uint64{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	blk := dictBlock(m)
	copy(h.Bytes(blk.Add(16+8), 8), ints[2]) // key 1 := key 2
	if err := m.Check(); err == nil || !strings.Contains(err.Error(), "key 2 is not above key 1") {
		t.Fatalf("Check = %v", err)
	}

	strs := [][]byte{[]byte("a"), []byte("bb"), []byte("ccc")}
	m, err = nvmMainFromParts(h, TypeString, strs, []uint64{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	blk = dictBlock(m)
	h.PutU32(blk.Add(16+4), 7) // offset 1 past the 6-byte area
	m = AttachNVMMain(h, m.Root())
	if err := m.Check(); err == nil || !strings.Contains(err.Error(), "offset 1 (7) lies past the end") {
		t.Fatalf("Check = %v", err)
	}
	h.PutU32(blk.Add(16+4), 4) // offset 1 above offset 2 (3)
	if err := m.Check(); err == nil || !strings.Contains(err.Error(), "offset 2 (3) is below offset 1 (4)") {
		t.Fatalf("Check = %v", err)
	}
	for id := range m.DictLen() {
		m.DictKey(id) // clamped, not a panic
	}
	checkLookupsAnswer(m)
}

// checkLookupsAnswer runs the four dictionary reads of m over keys of
// its own and a few others; on a damaged dictionary each must return
// some answer, not panic.
func checkLookupsAnswer(m *NVMMain) {
	probes := [][]byte{nil, []byte("a"), make([]byte, 8), bytes.Repeat([]byte{0xff}, 9)}
	for id := range m.DictLen() {
		probes = append(probes, m.DictKey(id))
		m.DictValue(id)
	}
	for i, p := range probes {
		m.LookupValueID(p)
		m.LookupRange(p, probes[(i+1)%len(probes)])
	}
}

// FuzzMainDict writes fuzzed bytes over a main column's dictionary
// block — header, offsets and keys — then re-attaches the column and
// runs the four dictionary reads and Check. Every outcome is an error or
// an answer, never a panic, and a block Check passes answers as the keys
// it holds do.
func FuzzMainDict(f *testing.F) {
	header := func(n, offW uint64, body ...byte) []byte {
		b := binary.LittleEndian.AppendUint64(nil, n)
		return append(binary.LittleEndian.AppendUint64(b, offW), body...)
	}
	f.Add(false, header(2, 0, Int(1).EncodeKey(nil)...))
	f.Add(false, header(1<<40, 0))
	f.Add(true, header(2, 4, 0, 0, 0, 0, 1, 0, 0, 0, 3, 0, 0, 0, 'a', 'b', 'c'))
	f.Add(true, header(2, 4, 0, 0, 0, 0, 9, 0, 0, 0, 3, 0, 0, 0, 'a', 'b', 'c'))
	f.Add(true, header(1, 8, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0))
	f.Add(true, header(3, 4))
	f.Fuzz(func(t *testing.T, str bool, block []byte) {
		h := testDRAMHeap(t)
		typ, keys := TypeInt64, encodeInts(-5, 0, 7, 100)
		if str {
			typ, keys = TypeString, [][]byte{[]byte(""), []byte("abcdefgh"), []byte("abcdefgh\x00"), []byte("z")}
		}
		m, err := nvmMainFromParts(h, typ, keys, []uint64{0, 1, 2, 3})
		if err != nil {
			t.Fatal(err)
		}
		blk := dictBlock(m)
		copy(h.Bytes(blk, h.BlockSize(blk)), block)
		m = AttachNVMMain(h, m.Root())
		checkLookupsAnswer(m)
		if m.Check() != nil {
			return
		}
		var ref [][]byte
		for id := range m.DictLen() {
			ref = append(ref, m.DictKey(id))
		}
		for _, p := range append(slices.Clone(ref), nil, []byte("abcdefgh\x00\x00")) {
			want, found := slices.BinarySearchFunc(ref, p, bytes.Compare)
			if id, ok := m.LookupValueID(p); ok != found || (found && id != uint64(want)) {
				t.Fatalf("a checked dictionary: LookupValueID(%q) = %d,%v, want %d,%v", p, id, ok, want, found)
			}
		}
	})
}
