package storage

import (
	"sync"

	"hyrisenv/internal/nvm"
	"hyrisenv/internal/pstruct"
	"hyrisenv/internal/vec"
)

// DeltaColumn is the write-optimized column format: an append-only
// attribute vector of value IDs over an unsorted, append-only dictionary.
// New values get the next dictionary ID; the dictionary is indexed for
// value→ID lookups (a hash map on the DRAM backend, a persistent skip
// list on NVM so it is valid immediately after restart).
type DeltaColumn interface {
	Type() ColType
	// Rows returns the number of appended attribute-vector entries.
	Rows() uint64
	// Append adds v for the next row and returns its value ID.
	Append(v Value) (uint64, error)
	// ValueID returns the dictionary ID at row.
	ValueID(row uint64) uint64
	// LoadIDs copies the dictionary IDs of rows [lo, lo+len(dst)) into
	// dst — ValueID for a block of rows.
	LoadIDs(lo uint64, dst []uint64)
	// Value returns the decoded value at row.
	Value(row uint64) Value
	// DictLen returns the dictionary size.
	DictLen() uint64
	// DictKey returns the order-preserving encoded key of dictionary id.
	DictKey(id uint64) []byte
	// DictValue decodes dictionary id.
	DictValue(id uint64) Value
	// LookupValueID finds the ID of an encoded key, if present.
	LookupValueID(encKey []byte) (uint64, bool)
	// ScanIDs iterates (row, valueID) pairs.
	ScanIDs(fn func(row, id uint64) bool)
	// Truncate discards attribute-vector entries at index >= n. Used by
	// recovery to drop torn row appends; n must not exceed Rows().
	Truncate(n uint64)
}

// --- DRAM backend -----------------------------------------------------------

// VolatileDelta is the DRAM delta column used by the log-based baseline.
type VolatileDelta struct {
	typ ColType

	mu       sync.RWMutex
	dictKeys []string // encoded keys; index = value ID
	dictIdx  map[string]uint64

	av *vec.Volatile
}

// NewVolatileDelta returns an empty DRAM delta column.
func NewVolatileDelta(typ ColType) *VolatileDelta {
	return &VolatileDelta{
		typ:     typ,
		dictIdx: make(map[string]uint64),
		av:      vec.NewVolatile(10),
	}
}

var _ DeltaColumn = (*VolatileDelta)(nil)

// Type returns the column type.
func (d *VolatileDelta) Type() ColType { return d.typ }

// Rows returns the attribute-vector length.
func (d *VolatileDelta) Rows() uint64 { return d.av.Len() }

// Append implements DeltaColumn.
func (d *VolatileDelta) Append(v Value) (uint64, error) {
	key := string(v.EncodeKey(nil))
	d.mu.Lock()
	id, ok := d.dictIdx[key]
	if !ok {
		id = uint64(len(d.dictKeys))
		d.dictKeys = append(d.dictKeys, key)
		d.dictIdx[key] = id
	}
	d.mu.Unlock()
	if _, err := d.av.Append(id); err != nil {
		return 0, err
	}
	return id, nil
}

// ValueID implements DeltaColumn.
func (d *VolatileDelta) ValueID(row uint64) uint64 { return d.av.Get(row) }

// LoadIDs implements DeltaColumn.
func (d *VolatileDelta) LoadIDs(lo uint64, dst []uint64) { d.av.Load(lo, dst) }

// Value implements DeltaColumn.
func (d *VolatileDelta) Value(row uint64) Value { return d.DictValue(d.av.Get(row)) }

// DictLen implements DeltaColumn.
func (d *VolatileDelta) DictLen() uint64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return uint64(len(d.dictKeys))
}

// DictKey implements DeltaColumn.
func (d *VolatileDelta) DictKey(id uint64) []byte {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return []byte(d.dictKeys[id])
}

// DictValue implements DeltaColumn.
func (d *VolatileDelta) DictValue(id uint64) Value {
	d.mu.RLock()
	k := d.dictKeys[id]
	d.mu.RUnlock()
	return DecodeValue(d.typ, []byte(k))
}

// LookupValueID implements DeltaColumn.
func (d *VolatileDelta) LookupValueID(encKey []byte) (uint64, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	id, ok := d.dictIdx[string(encKey)]
	return id, ok
}

// ScanIDs implements DeltaColumn.
func (d *VolatileDelta) ScanIDs(fn func(row, id uint64) bool) { d.av.Scan(fn) }

// Truncate implements DeltaColumn.
func (d *VolatileDelta) Truncate(n uint64) { d.av.Truncate(n) }

// --- NVM backend -------------------------------------------------------------

// DictIndexKind selects the persistent structure indexing the delta
// dictionary (value → ID).
type DictIndexKind uint64

// Dictionary index kinds.
const (
	// DictIndexSkipList is the default: ordered, O(log n) lookups.
	DictIndexSkipList DictIndexKind = 0
	// DictIndexHash trades ordering away for O(1) point lookups.
	DictIndexHash DictIndexKind = 1
)

// dictIndex is the common surface of the two structures.
type dictIndex interface {
	Get(key []byte) (uint64, bool)
	Insert(key []byte, value uint64) (bool, error)
	Root() nvm.PPtr
	Blocks(yield func(nvm.PPtr))
}

// NVM delta column root block layout.
const (
	ndOffDictVec = 0
	ndOffIdx     = 8
	ndOffAV      = 16
	ndOffType    = 24
	ndOffIdxKind = 32
	ndRootSize   = 40

	// hashDictBucketsLog sizes the hash dictionary index; the delta is
	// bounded by the merge threshold, so a fixed directory suffices.
	hashDictBucketsLog = 12
)

// NVMDelta is the persistent delta column of Hyrise-NV. The dictionary
// storage (blob pointers), the dictionary index (skip list or hash map)
// and the attribute vector all live on NVM, so the column is fully
// usable immediately after Attach — no rebuild.
type NVMDelta struct {
	h    *nvm.Heap
	root nvm.PPtr
	typ  ColType

	mu      sync.RWMutex // serializes writers; readers of idx/vec are lock-free
	dictVec *pstruct.Vector
	idx     dictIndex
	av      *pstruct.Vector
}

// NewNVMDelta allocates an empty persistent delta column with the
// default (skip list) dictionary index.
func NewNVMDelta(h *nvm.Heap, typ ColType) (*NVMDelta, error) {
	return NewNVMDeltaWith(h, typ, DictIndexSkipList)
}

// NewNVMDeltaWith allocates an empty persistent delta column with the
// given dictionary index kind.
func NewNVMDeltaWith(h *nvm.Heap, typ ColType, kind DictIndexKind) (*NVMDelta, error) {
	dictVec, err := pstruct.NewVector(h, 8, 8)
	if err != nil {
		return nil, err
	}
	var idx dictIndex
	switch kind {
	case DictIndexHash:
		idx, err = pstruct.NewPHash(h, hashDictBucketsLog)
	default:
		kind = DictIndexSkipList
		idx, err = pstruct.NewSkipList(h)
	}
	if err != nil {
		return nil, err
	}
	av, err := pstruct.NewVector(h, 4, 10)
	if err != nil {
		return nil, err
	}
	root, err := h.Alloc(ndRootSize)
	if err != nil {
		return nil, err
	}
	h.PutU64(root.Add(ndOffDictVec), uint64(dictVec.Root()))
	h.PutU64(root.Add(ndOffIdx), uint64(idx.Root()))
	h.PutU64(root.Add(ndOffAV), uint64(av.Root()))
	h.PutU64(root.Add(ndOffType), uint64(typ))
	h.PutU64(root.Add(ndOffIdxKind), uint64(kind))
	h.Persist(root, ndRootSize)
	return &NVMDelta{h: h, root: root, typ: typ, dictVec: dictVec, idx: idx, av: av}, nil
}

// AttachNVMDelta re-hydrates a persistent delta column in O(1); the
// dictionary index kind is self-describing.
func AttachNVMDelta(h *nvm.Heap, root nvm.PPtr) *NVMDelta {
	var idx dictIndex
	idxRoot := nvm.PPtr(h.GetU64(root.Add(ndOffIdx)))
	switch DictIndexKind(h.GetU64(root.Add(ndOffIdxKind))) {
	case DictIndexHash:
		idx = pstruct.AttachPHash(h, idxRoot)
	default:
		idx = pstruct.AttachSkipList(h, idxRoot)
	}
	return &NVMDelta{
		h:       h,
		root:    root,
		typ:     ColType(h.GetU64(root.Add(ndOffType))),
		dictVec: pstruct.AttachVector(h, nvm.PPtr(h.GetU64(root.Add(ndOffDictVec)))),
		idx:     idx,
		av:      pstruct.AttachVector(h, nvm.PPtr(h.GetU64(root.Add(ndOffAV)))),
	}
}

var _ DeltaColumn = (*NVMDelta)(nil)

// Root returns the persistent root pointer of the column.
func (d *NVMDelta) Root() nvm.PPtr { return d.root }

// Type returns the column type.
func (d *NVMDelta) Type() ColType { return d.typ }

// Rows returns the attribute-vector length.
func (d *NVMDelta) Rows() uint64 { return d.av.Len() }

// Append implements DeltaColumn. A crash between the dictionary insert
// and the index insert can orphan a dictionary entry; the entry is then
// re-added under a fresh ID on the next append of the same value, which
// is benign (dictionary IDs need not be unique per value, only stable).
func (d *NVMDelta) Append(v Value) (uint64, error) {
	key := v.EncodeKey(nil)
	d.mu.Lock()
	id, ok := d.idx.Get(key)
	if !ok {
		blob, err := pstruct.WriteBlob(d.h, key)
		if err != nil {
			d.mu.Unlock()
			return 0, err
		}
		id, err = d.dictVec.Append(uint64(blob))
		if err != nil {
			d.mu.Unlock()
			return 0, err
		}
		if _, err := d.idx.Insert(key, id); err != nil {
			d.mu.Unlock()
			return 0, err
		}
	}
	d.mu.Unlock()
	if _, err := d.av.Append(id); err != nil {
		return 0, err
	}
	return id, nil
}

// ValueID implements DeltaColumn.
func (d *NVMDelta) ValueID(row uint64) uint64 { return d.av.Get(row) }

// LoadIDs implements DeltaColumn.
func (d *NVMDelta) LoadIDs(lo uint64, dst []uint64) { d.av.Load(lo, dst) }

// Value implements DeltaColumn.
func (d *NVMDelta) Value(row uint64) Value { return d.DictValue(d.av.Get(row)) }

// DictLen implements DeltaColumn.
func (d *NVMDelta) DictLen() uint64 { return d.dictVec.Len() }

// DictKey implements DeltaColumn.
func (d *NVMDelta) DictKey(id uint64) []byte {
	return pstruct.ReadBlob(d.h, nvm.PPtr(d.dictVec.Get(id)))
}

// DictValue implements DeltaColumn.
func (d *NVMDelta) DictValue(id uint64) Value {
	return DecodeValue(d.typ, d.DictKey(id))
}

// LookupValueID implements DeltaColumn.
func (d *NVMDelta) LookupValueID(encKey []byte) (uint64, bool) {
	return d.idx.Get(encKey)
}

// ScanIDs implements DeltaColumn.
func (d *NVMDelta) ScanIDs(fn func(row, id uint64) bool) { d.av.Scan(fn) }

// Truncate implements DeltaColumn.
func (d *NVMDelta) Truncate(n uint64) { d.av.Truncate(n) }

// Blocks yields the heap blocks owned by the delta column: its root, the
// dictionary vector and every dictionary blob, the dictionary index and
// the attribute vector.
func (d *NVMDelta) Blocks(yield func(nvm.PPtr)) {
	yield(d.root)
	d.dictVec.Blocks(yield)
	d.dictVec.Scan(func(_, blob uint64) bool {
		if blob != 0 {
			yield(nvm.PPtr(blob))
		}
		return true
	})
	d.idx.Blocks(yield)
	d.av.Blocks(yield)
}
