package storage

import (
	"fmt"
	"sync"
	"sync/atomic"

	"hyrisenv/internal/nvm"
	"hyrisenv/internal/pstruct"
)

// DeltaColumn is the write-optimized column format: an append-only
// attribute vector of value IDs over an unsorted, append-only dictionary.
// New values get the next dictionary ID; the dictionary is indexed for
// value→ID lookups by a hash dictionary on the table's heap, so on NVM it is
// valid immediately after restart. A scan resolves
// an equality to the one value ID the index returns, and compares ranges
// on KeyWords, a volatile word per dictionary ID that it builds on
// demand, so that it reads a key only for a String row whose word ties
// with the bound's.
//
// The column of an indexed table column is its own delta index: it keeps
// a posting list of rows per dictionary ID, so a point lookup is the
// dictionary search followed by that ID's list, and an append searches
// and stores its key once.
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
	LoadIDs(lo uint64, dst []uint32)
	// Value returns the decoded value at row.
	Value(row uint64) Value
	// DictLen returns the dictionary size.
	DictLen() uint64
	// DictKey returns the order-preserving encoded key of dictionary id.
	DictKey(id uint64) []byte
	// KeyWords returns pstruct.KeyWord(DictKey(id)) for every id below
	// n, which must not exceed DictLen, indexed by id: what a scan
	// compares instead of the keys. The words are a volatile cache of the column,
	// built by the first readers that ask, never at attach, and never
	// persisted. The slice is shared and must not be written.
	KeyWords(n uint64) []uint64
	// DictValue decodes dictionary id.
	DictValue(id uint64) Value
	// LookupValueID finds the ID of an encoded key, if present.
	LookupValueID(encKey []byte) (uint64, bool)
	// Postings calls fn for the rows of dictionary id, on an indexed
	// column (on an unindexed one, for none). After a crash it may also
	// name rows at or beyond Rows, rows that carry another ID since, and
	// a row twice: callers filter them (View.LookupRows). A list longer
	// than its arena can hold is a cycle a damaged link made: the error
	// wraps nvm.ErrCorrupt.
	Postings(id uint64, fn func(row uint64) bool) error
	// ScanIDs iterates (row, valueID) pairs.
	ScanIDs(fn func(row, id uint64) bool)
	// Truncate discards attribute-vector entries at index >= n. Used by
	// recovery to drop torn row appends; n must not exceed Rows().
	Truncate(n uint64)
}

// keyWords is a delta column's cache of KeyWords, extended by the
// readers that ask for more of it under mu and published through an
// atomic pointer: a dictionary ID's key never changes once the ID is
// handed out, so neither does its word, and whatever slice a reader
// loads holds every ID below the length it asked for.
type keyWords struct {
	mu    sync.Mutex
	words atomic.Pointer[[]uint64]
}

// get returns the words of the IDs below n, computing the missing ones
// from key.
func (c *keyWords) get(n uint64, key func(id uint64) []byte) []uint64 {
	if w := c.words.Load(); w != nil && uint64(len(*w)) >= n {
		return (*w)[:n]
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var w []uint64
	if p := c.words.Load(); p != nil {
		w = *p
	}
	if uint64(len(w)) < n {
		// The append may write into spare capacity beyond the length of
		// every slice a reader holds.
		for id := uint64(len(w)); id < n; id++ {
			w = append(w, pstruct.KeyWord(key(id)))
		}
		c.words.Store(&w)
	}
	return w[:n]
}

// NVM delta column root block layout. The heads vector's root is 0 on an
// unindexed column.
const (
	ndOffDictVec = 0
	ndOffIdx     = 8
	ndOffAV      = 16
	ndOffType    = 24
	ndOffHeads   = 32
	ndRootSize   = 40
)

// NVMDelta is the delta column of Hyrise-NV. The dictionary
// index (a hash dictionary) holds every value's key bytes in its records;
// the dictionary vector holds blob references to those keys, by value
// ID; the attribute vector holds a value ID per row. An indexed column
// also keeps a heads vector beside the dictionary vector: by value ID,
// the head word of the posting list of the rows carrying it (see
// pstruct.ListScan), whose nodes are bumped from the dictionary's arena.
// All of it lives on the table's heap, so on NVM the column is fully
// usable immediately after Attach — no rebuild.
type NVMDelta struct {
	h    *nvm.Heap
	root nvm.PPtr
	typ  ColType

	// One writer at a time (the table's write lock): the structures hold
	// staged state between the halves of an append. Readers are lock-free.
	dictVec *pstruct.Vector
	idx     *pstruct.HashDict
	av      *pstruct.Vector
	heads   *pstruct.Vector // nil on an unindexed column

	words keyWords // volatile, learned by scans
}

// NewNVMDelta allocates an empty persistent delta column, with posting
// lists if indexed.
func NewNVMDelta(h *nvm.Heap, typ ColType, indexed bool) (*NVMDelta, error) {
	dictVec, err := pstruct.NewVector(h, 8, 8)
	if err != nil {
		return nil, err
	}
	idx, err := pstruct.NewHashDict(h)
	if err != nil {
		return nil, err
	}
	av, err := pstruct.NewVector(h, 4, 10)
	if err != nil {
		return nil, err
	}
	var heads *pstruct.Vector
	var headsRoot nvm.PPtr
	if indexed {
		if heads, err = pstruct.NewVector(h, 8, 8); err != nil {
			return nil, err
		}
		headsRoot = heads.Root()
	}
	root, err := h.Alloc(ndRootSize)
	if err != nil {
		return nil, err
	}
	h.PutU64(root.Add(ndOffDictVec), uint64(dictVec.Root()))
	h.PutU64(root.Add(ndOffIdx), uint64(idx.Root()))
	h.PutU64(root.Add(ndOffAV), uint64(av.Root()))
	h.PutU64(root.Add(ndOffType), uint64(typ))
	h.PutU64(root.Add(ndOffHeads), uint64(headsRoot))
	h.Persist(root, ndRootSize)
	return &NVMDelta{h: h, root: root, typ: typ, dictVec: dictVec, idx: idx, av: av, heads: heads}, nil
}

// AttachNVMDelta re-hydrates a persistent delta column in O(1).
func AttachNVMDelta(h *nvm.Heap, root nvm.PPtr) *NVMDelta {
	d := &NVMDelta{
		h:       h,
		root:    root,
		typ:     ColType(h.GetU64(root.Add(ndOffType))),
		dictVec: pstruct.AttachVector(h, nvm.PPtr(h.GetU64(root.Add(ndOffDictVec)))),
		idx:     pstruct.AttachHashDict(h, nvm.PPtr(h.GetU64(root.Add(ndOffIdx)))),
		av:      pstruct.AttachVector(h, nvm.PPtr(h.GetU64(root.Add(ndOffAV)))),
	}
	if p := nvm.PPtr(h.GetU64(root.Add(ndOffHeads))); !p.IsNil() {
		d.heads = pstruct.AttachVector(h, p)
	}
	return d
}

var _ DeltaColumn = (*NVMDelta)(nil)

// Root returns the persistent root pointer of the column.
func (d *NVMDelta) Root() nvm.PPtr { return d.root }

// Type returns the column type.
func (d *NVMDelta) Type() ColType { return d.typ }

// Rows returns the attribute-vector length.
func (d *NVMDelta) Rows() uint64 { return d.av.Len() }

// StageAppend is the stage half of Append (see package pstruct): it
// writes v's value ID past the attribute vector's length and, for a value
// the dictionary has not seen, an index record carrying the key and the
// next value ID plus the dictionary slot that refers to the record's key.
// An indexed column also stages the row's posting: for a new value, a
// heads slot beside the dictionary slot that holds the row itself; for a
// value seen before, a posting node in front of the value's list and an
// overwrite of its head. Nothing reachable changes until Publish; the
// caller fences in between.
func (d *NVMDelta) StageAppend(v Value) (uint64, error) {
	next := d.dictVec.Len()
	rec, existed, err := d.idx.StageInsert(v.EncodeKey(nil), next)
	if err != nil {
		return 0, err
	}
	id := next
	if existed {
		id = d.idx.Value(rec)
	} else if _, err := d.dictVec.StageAppend(uint64(d.idx.KeyRef(rec))); err != nil {
		return 0, err
	}
	row, err := d.av.StageAppend(id)
	if err != nil {
		return 0, err
	}
	switch {
	case d.heads == nil:
	case !existed:
		_, err = d.heads.StageAppend(pstruct.ListEnd(row))
	default:
		var node nvm.PPtr
		if node, err = pstruct.ListStage(d.idx.Arena(), row, d.heads.Get(id)); err == nil {
			d.heads.StageSet(id, uint64(node))
		}
	}
	if err != nil {
		return 0, err
	}
	return id, nil
}

// Publish is the publish half of Append, in the order readers need: the
// dictionary and heads lengths before the index slot that hands out
// their last ID, and all three before the attribute-vector length that
// lets a row use it. Durability has no such order — a crash between the
// caller's fences may keep any of the publish words — so restart
// reconciles them (repairTornAppend, alignAfterRestart).
//
//nvm:nopersist publish half: the lengths, the head and the slot are flushed, not fenced; the caller's second fence covers them
func (d *NVMDelta) Publish() {
	d.dictVec.Publish()
	if d.heads != nil {
		d.heads.Publish()
	}
	d.idx.Publish()
	d.av.Publish()
}

// Unstage forgets a staged append that will not be published.
func (d *NVMDelta) Unstage() {
	d.dictVec.Unstage()
	if d.heads != nil {
		d.heads.Unstage()
	}
	d.idx.Unstage()
	d.av.Unstage()
}

// Append implements DeltaColumn: stage, fence, publish, fence.
func (d *NVMDelta) Append(v Value) (uint64, error) {
	id, err := d.StageAppend(v)
	if err != nil {
		d.Unstage()
		return 0, err
	}
	d.h.Fence()
	d.Publish()
	d.h.Fence()
	return id, nil
}

// load fills an empty column without posting lists from a checkpoint:
// keys is its dictionary in value-ID order, each key added once (stage,
// fence, publish, fence), and ids the value ID of each row, appended in
// bulk. A key repeated in keys is refused.
func (d *NVMDelta) load(keys [][]byte, ids []uint64) error {
	for i, k := range keys {
		rec, existed, err := d.idx.StageInsert(k, uint64(i))
		if err == nil && existed {
			err = fmt.Errorf("delta column %d: checkpoint dictionary repeats key %q", d.root, k)
		}
		if err == nil {
			_, err = d.dictVec.StageAppend(uint64(d.idx.KeyRef(rec)))
		}
		if err != nil {
			d.Unstage()
			return err
		}
		d.h.Fence()
		d.dictVec.Publish()
		d.idx.Publish()
		d.h.Fence()
	}
	_, err := d.av.AppendN(ids)
	return err
}

// indexRows gives an unindexed column its posting lists, built from the
// attribute vector — the log-based baseline's delta-index rebuild,
// O(rows). The caller holds off appends and readers.
func (d *NVMDelta) indexRows() error {
	heads := make([]uint64, d.DictLen())
	var err error
	d.av.Scan(func(row, id uint64) bool {
		if heads[id] == 0 {
			heads[id] = pstruct.ListEnd(row)
			return true
		}
		var node nvm.PPtr
		node, err = pstruct.ListStage(d.idx.Arena(), row, heads[id])
		heads[id] = uint64(node)
		return err == nil
	})
	if err != nil {
		return err
	}
	hv, err := pstruct.NewVector(d.h, 8, 8)
	if err != nil {
		return err
	}
	if _, err := hv.AppendN(heads); err != nil {
		return err
	}
	slot := d.root.Add(ndOffHeads)
	d.h.SetU64(slot, uint64(hv.Root()))
	d.h.Persist(slot, 8)
	d.heads = hv
	return nil
}

// repairTornAppend completes the dictionary half of an append a crash
// cut between its two fences. The dictionary length, the heads length,
// the index slot and the attribute-vector length are published together,
// so value ID n may already be handed out — by a durable index slot, or
// by the last attribute-vector entry — while the dictionary length is
// still n. Either is proof that the first fence completed, which made the
// slot the stage half wrote at n and the key it refers to durable: the
// entry is complete, and the length is rolled forward over it. Left
// alone, the next new value would take ID n while a row or the index
// still used it for the old one. Then the heads length is set to the
// dictionary's: cut back over a head whose dictionary entry did not
// survive, or rolled forward over the one the same stage half wrote
// beside a dictionary entry that did. O(1) lookups, at most one entry
// each: appends do not overlap.
func (d *NVMDelta) repairTornAppend() error {
	n := d.dictVec.Len()
	if ref, ok := d.dictVec.Staged(n); ok && ref != 0 && d.handedOut(n, nvm.PPtr(ref)) {
		if _, err := d.dictVec.Append(ref); err != nil {
			return err
		}
		n++
	}
	if d.heads == nil {
		return nil
	}
	switch hl := d.heads.Len(); {
	case hl > n:
		d.heads.Truncate(n)
	case hl < n:
		head, ok := d.heads.Staged(hl)
		if !ok || head == 0 {
			return fmt.Errorf("delta column %d: dictionary entry %d has no posting-list head", d.root, hl)
		}
		if _, err := d.heads.Append(head); err != nil {
			return err
		}
	}
	return nil
}

// handedOut reports whether value ID n, whose dictionary slot holds the
// key reference ref past the dictionary's length, is in use.
func (d *NVMDelta) handedOut(n uint64, ref nvm.PPtr) bool {
	if rows := d.av.Len(); rows > 0 && d.av.Get(rows-1) == n {
		return true
	}
	// Without the row's word for it the slot may be a leftover no fence
	// ever covered; only a key that lies in the arena can be looked up.
	if d.idx.Arena().ContainsBlob(ref) != nil {
		return false
	}
	id, found := d.idx.Get(pstruct.ReadBlob(d.h, ref))
	return found && id == n
}

// ValueID implements DeltaColumn.
func (d *NVMDelta) ValueID(row uint64) uint64 { return d.av.Get(row) }

// LoadIDs implements DeltaColumn.
func (d *NVMDelta) LoadIDs(lo uint64, dst []uint32) { d.av.Load(lo, dst) }

// Value implements DeltaColumn.
func (d *NVMDelta) Value(row uint64) Value { return d.DictValue(d.av.Get(row)) }

// DictLen implements DeltaColumn.
func (d *NVMDelta) DictLen() uint64 { return d.dictVec.Len() }

// DictKey implements DeltaColumn.
func (d *NVMDelta) DictKey(id uint64) []byte {
	return pstruct.ReadBlob(d.h, nvm.PPtr(d.dictVec.Get(id)))
}

// KeyWords implements DeltaColumn.
func (d *NVMDelta) KeyWords(n uint64) []uint64 { return d.words.get(n, d.DictKey) }

// DictValue implements DeltaColumn.
func (d *NVMDelta) DictValue(id uint64) Value {
	return DecodeValue(d.typ, d.DictKey(id))
}

// LookupValueID implements DeltaColumn.
func (d *NVMDelta) LookupValueID(encKey []byte) (uint64, bool) {
	return d.idx.Get(encKey)
}

// Postings implements DeltaColumn.
func (d *NVMDelta) Postings(id uint64, fn func(row uint64) bool) error {
	if d.heads == nil || id >= d.heads.Len() {
		return nil
	}
	if err := pstruct.ListScan(d.idx.Arena(), d.heads.Get(id), fn); err != nil {
		return fmt.Errorf("delta column %d: value ID %d: %w", d.root, id, err)
	}
	return nil
}

// ScanIDs implements DeltaColumn.
func (d *NVMDelta) ScanIDs(fn func(row, id uint64) bool) { d.av.Scan(fn) }

// Truncate implements DeltaColumn.
func (d *NVMDelta) Truncate(n uint64) { d.av.Truncate(n) }

// Blocks yields the heap blocks owned by the delta column: its root, the
// dictionary vector, the dictionary index (whose arena holds the keys and
// the posting nodes), the attribute vector and the heads vector.
func (d *NVMDelta) Blocks(yield func(nvm.PPtr)) {
	yield(d.root)
	d.dictVec.Blocks(yield)
	d.idx.Blocks(yield)
	d.av.Blocks(yield)
	if d.heads != nil {
		d.heads.Blocks(yield)
	}
}
