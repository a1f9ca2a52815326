package storage

import (
	"bytes"
	"slices"

	"hyrisenv/internal/nvm"
	"hyrisenv/internal/pstruct"
)

// MainColumn is the read-optimized column format: a *sorted* dictionary
// and a bit-sliced attribute vector of value IDs. Main columns are
// immutable — they are produced wholesale by the delta→main merge — which
// makes their NVM crash consistency trivial (build, persist, swap one
// pointer).
type MainColumn interface {
	Type() ColType
	Rows() uint64
	ValueID(row uint64) uint64
	// UnpackIDs decodes the value IDs of rows [lo, hi) into
	// dst[:hi-lo] — ValueID for a block of rows.
	UnpackIDs(lo, hi uint64, dst []uint32)
	// FilterIDs clears from bm, whose bit i stands for row lo+i, the rows
	// of [lo, hi) whose value ID lies outside [idLo, idLo+span) — inside
	// it when neg — without decoding the block (pstruct.FilterBits).
	FilterIDs(lo, hi uint64, idLo, span uint32, neg bool, bm []uint64)
	Value(row uint64) Value
	DictLen() uint64
	DictKey(id uint64) []byte
	DictValue(id uint64) Value
	// LookupValueID binary-searches the sorted dictionary for encKey.
	LookupValueID(encKey []byte) (uint64, bool)
	// LookupRange returns the half-open dictionary ID range [lo, hi)
	// whose keys fall in [loKey, hiKey). Range scans exploit the sorted
	// dictionary: a value-range predicate becomes an ID-range check.
	LookupRange(loKey, hiKey []byte) (lo, hi uint64)
	ScanIDs(fn func(row, id uint64) bool)
	// CheckIDs verifies the attribute vector: it has the size Rows
	// implies, every value ID is below DictLen, and the padding rows of
	// its last segment are zero (pstruct.CheckBits).
	CheckIDs() error
	// CheckDict verifies the dictionary: its keys strictly increase
	// (pstruct.SortedDict.Check).
	CheckDict() error
}

// NVM main column root block layout.
const (
	nmOffDict  = 0
	nmOffBP    = 8
	nmOffType  = 16
	nmRootSize = 24
)

// NVMMain is the main column of Hyrise-NV: a sorted dictionary in one
// block (pstruct.SortedDict) plus a bit-sliced attribute vector, both on
// the table's heap. Attach is O(1), so restarting on NVM does not touch
// column data.
type NVMMain struct {
	h    *nvm.Heap
	root nvm.PPtr
	typ  ColType
	dict *pstruct.SortedDict
	bp   *pstruct.BitPacked
}

// BuildNVMMain constructs and persists a main column from per-row encoded
// keys, returning an attachable column. The keys are sorted once and the
// rows' value IDs read off the sorted run.
func BuildNVMMain(h *nvm.Heap, typ ColType, rowKeys [][]byte) (*NVMMain, error) {
	var dict [][]byte
	ids := make([]uint64, len(rowKeys))
	var last keyRef
	for i, e := range sortKeys(rowKeys) {
		if i == 0 || e.word != last.word || !bytes.Equal(rowKeys[e.i], rowKeys[last.i]) {
			dict = append(dict, rowKeys[e.i])
		}
		ids[e.i] = uint64(len(dict) - 1)
		last = e
	}
	return nvmMainFromParts(h, typ, dict, ids)
}

// nvmMainFromParts builds a main column from a sorted dictionary and the
// value ID of each row.
func nvmMainFromParts(h *nvm.Heap, typ ColType, dict [][]byte, ids []uint64) (*NVMMain, error) {
	sd, err := pstruct.BuildSortedDict(h, dict, wordKeys(typ))
	if err != nil {
		return nil, err
	}
	bp, err := pstruct.BuildBitPacked(h, ids, pstruct.BitsFor(uint64(max(len(dict), 1)-1)))
	if err != nil {
		return nil, err
	}
	root, err := h.Alloc(nmRootSize)
	if err != nil {
		return nil, err
	}
	h.PutU64(root.Add(nmOffDict), uint64(sd.Root()))
	h.PutU64(root.Add(nmOffBP), uint64(bp.Root()))
	h.PutU64(root.Add(nmOffType), uint64(typ))
	h.Persist(root, nmRootSize)
	return &NVMMain{h: h, root: root, typ: typ, dict: sd, bp: bp}, nil
}

// wordKeys reports whether typ's keys are 8-byte words, which its
// dictionary stores in the word layout.
func wordKeys(typ ColType) bool { return typ != TypeString }

// AttachNVMMain re-hydrates a persistent main column in O(1).
func AttachNVMMain(h *nvm.Heap, root nvm.PPtr) *NVMMain {
	typ := ColType(h.GetU64(root.Add(nmOffType)))
	return &NVMMain{
		h:    h,
		root: root,
		typ:  typ,
		dict: pstruct.AttachSortedDict(h, nvm.PPtr(h.GetU64(root.Add(nmOffDict))), wordKeys(typ)),
		bp:   pstruct.AttachBitPacked(h, nvm.PPtr(h.GetU64(root.Add(nmOffBP)))),
	}
}

var _ MainColumn = (*NVMMain)(nil)

// Root returns the persistent root pointer of the column.
func (m *NVMMain) Root() nvm.PPtr { return m.root }

// Type returns the column type.
func (m *NVMMain) Type() ColType { return m.typ }

// Rows returns the row count.
func (m *NVMMain) Rows() uint64 { return m.bp.Len() }

// ValueID implements MainColumn.
func (m *NVMMain) ValueID(row uint64) uint64 { return m.bp.Get(row) }

// UnpackIDs implements MainColumn.
func (m *NVMMain) UnpackIDs(lo, hi uint64, dst []uint32) { m.bp.Unpack(lo, hi, dst) }

// FilterIDs implements MainColumn.
func (m *NVMMain) FilterIDs(lo, hi uint64, idLo, span uint32, neg bool, bm []uint64) {
	m.bp.Filter(lo, hi, idLo, span, neg, bm)
}

// Value implements MainColumn.
func (m *NVMMain) Value(row uint64) Value { return m.DictValue(m.ValueID(row)) }

// DictLen implements MainColumn.
func (m *NVMMain) DictLen() uint64 { return m.dict.Len() }

// DictKey implements MainColumn.
func (m *NVMMain) DictKey(id uint64) []byte { return m.dict.Key(id) }

// DictValue implements MainColumn.
func (m *NVMMain) DictValue(id uint64) Value {
	return DecodeValue(m.typ, m.DictKey(id))
}

// LookupValueID implements MainColumn.
func (m *NVMMain) LookupValueID(encKey []byte) (uint64, bool) {
	if id, ok := m.dict.Search(encKey); ok {
		return id, true
	}
	return 0, false
}

// LookupRange implements MainColumn.
func (m *NVMMain) LookupRange(loKey, hiKey []byte) (uint64, uint64) {
	lo, _ := m.dict.Search(loKey)
	hi, _ := m.dict.Search(hiKey)
	return lo, hi
}

// ScanIDs implements MainColumn.
func (m *NVMMain) ScanIDs(fn func(row, id uint64) bool) { m.bp.Scan(fn) }

// CheckIDs implements MainColumn.
func (m *NVMMain) CheckIDs() error { return m.bp.CheckValues(m.DictLen()) }

// CheckDict implements MainColumn.
func (m *NVMMain) CheckDict() error { return m.dict.Check() }

// --- shared helpers -----------------------------------------------------------

// keyRef is a key's place in a slice of keys, beside its KeyWord.
type keyRef struct {
	word uint64
	i    uint64
}

// sortKeys returns a keyRef for each of keys, in the keys' order.
func sortKeys(keys [][]byte) []keyRef {
	refs := make([]keyRef, len(keys))
	for i, k := range keys {
		refs[i] = keyRef{pstruct.KeyWord(k), uint64(i)}
	}
	slices.SortFunc(refs, func(a, b keyRef) int {
		return pstruct.CompareKeys(a.word, keys[a.i], b.word, keys[b.i])
	})
	return refs
}

// Blocks yields the heap blocks owned by the main column.
func (m *NVMMain) Blocks(yield func(nvm.PPtr)) {
	yield(m.root)
	m.dict.Blocks(yield)
	m.bp.Blocks(yield)
}
