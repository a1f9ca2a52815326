// Package index provides the two index forms of the Hyrise architecture:
//
//   - Group-key indexes over the read-optimized main partition: a CSR
//     (offsets + positions) layout mapping each dictionary value ID to
//     the sorted list of rows carrying it. Built wholesale at merge time,
//     immutable afterwards.
//   - Delta indexes over the write-optimized delta partition: a map from
//     encoded value to a posting list of rows, maintained on every
//     insert.
//
// Both exist in a volatile flavor (the log-based baseline rebuilds them
// during recovery — a dominant component of its restart time) and an
// NVM-resident flavor (valid immediately after restart, the Hyrise-NV
// design).
package index

import (
	"sync"

	"hyrisenv/internal/nvm"
	"hyrisenv/internal/pstruct"
)

// --- Group-key (main partition) ------------------------------------------------

// GroupKey is the volatile group-key index: positions[offsets[id] :
// offsets[id+1]] are the main rows whose value ID is id, ascending.
type GroupKey struct {
	offsets   []uint64 // len = dictLen+1
	positions []uint64 // len = rows
}

// BuildGroupKey constructs a group-key index by counting sort over the
// attribute vector (O(rows + dict)).
func BuildGroupKey(rows, dictLen uint64, idAt func(row uint64) uint64) *GroupKey {
	offsets := make([]uint64, dictLen+1)
	for r := uint64(0); r < rows; r++ {
		offsets[idAt(r)+1]++
	}
	for i := 1; i <= int(dictLen); i++ {
		offsets[i] += offsets[i-1]
	}
	positions := make([]uint64, rows)
	cursor := make([]uint64, dictLen)
	for r := uint64(0); r < rows; r++ {
		id := idAt(r)
		positions[offsets[id]+cursor[id]] = r
		cursor[id]++
	}
	return &GroupKey{offsets: offsets, positions: positions}
}

// Rows yields the main rows with the given value ID in ascending order.
func (g *GroupKey) Rows(id uint64, fn func(row uint64) bool) {
	if id+1 >= uint64(len(g.offsets)) {
		return
	}
	for _, r := range g.positions[g.offsets[id]:g.offsets[id+1]] {
		if !fn(r) {
			return
		}
	}
}

// RowsInIDRange yields rows whose value ID falls in [lo, hi) — a range
// predicate resolved through the sorted dictionary.
func (g *GroupKey) RowsInIDRange(lo, hi uint64, fn func(row uint64) bool) {
	for id := lo; id < hi; id++ {
		done := false
		g.Rows(id, func(r uint64) bool {
			if !fn(r) {
				done = true
				return false
			}
			return true
		})
		if done {
			return
		}
	}
}

// --- NVM group-key ----------------------------------------------------------------

// NVM group-key root: offsetsVec u64 | positionsVec u64.
const ngkRootSize = 16

// NVMGroupKey is the persistent group-key index: the same CSR layout in
// two NVM vectors. Attach is O(1).
type NVMGroupKey struct {
	h         *nvm.Heap
	root      nvm.PPtr
	offsets   *pstruct.Vector
	positions *pstruct.Vector
}

// BuildNVMGroupKey constructs and persists a group-key index.
func BuildNVMGroupKey(h *nvm.Heap, rows, dictLen uint64, idAt func(row uint64) uint64) (*NVMGroupKey, error) {
	g := BuildGroupKey(rows, dictLen, idAt)
	off, err := pstruct.NewVector(h, 8, 10)
	if err != nil {
		return nil, err
	}
	if _, err := off.AppendN(g.offsets); err != nil {
		return nil, err
	}
	pos, err := pstruct.NewVector(h, 8, 10)
	if err != nil {
		return nil, err
	}
	if _, err := pos.AppendN(g.positions); err != nil {
		return nil, err
	}
	root, err := h.Alloc(ngkRootSize)
	if err != nil {
		return nil, err
	}
	h.PutU64(root, uint64(off.Root()))
	h.PutU64(root.Add(8), uint64(pos.Root()))
	h.Persist(root, ngkRootSize)
	return &NVMGroupKey{h: h, root: root, offsets: off, positions: pos}, nil
}

// AttachNVMGroupKey re-hydrates a persistent group-key index in O(1).
func AttachNVMGroupKey(h *nvm.Heap, root nvm.PPtr) *NVMGroupKey {
	return &NVMGroupKey{
		h:         h,
		root:      root,
		offsets:   pstruct.AttachVector(h, nvm.PPtr(h.GetU64(root))),
		positions: pstruct.AttachVector(h, nvm.PPtr(h.GetU64(root.Add(8)))),
	}
}

// Root returns the persistent root pointer.
func (g *NVMGroupKey) Root() nvm.PPtr { return g.root }

// Rows yields the main rows with the given value ID.
func (g *NVMGroupKey) Rows(id uint64, fn func(row uint64) bool) {
	if id+1 >= g.offsets.Len() {
		return
	}
	start, end := g.offsets.Get(id), g.offsets.Get(id+1)
	for i := start; i < end; i++ {
		if !fn(g.positions.Get(i)) {
			return
		}
	}
}

// RowsInIDRange yields rows whose value ID falls in [lo, hi).
func (g *NVMGroupKey) RowsInIDRange(lo, hi uint64, fn func(row uint64) bool) {
	for id := lo; id < hi; id++ {
		done := false
		g.Rows(id, func(r uint64) bool {
			if !fn(r) {
				done = true
				return false
			}
			return true
		})
		if done {
			return
		}
	}
}

// --- Delta index ------------------------------------------------------------------

// VolatileDeltaIndex is the DRAM delta index: encoded value → rows.
// It must be rebuilt from the delta partition after a log-based restart.
type VolatileDeltaIndex struct {
	mu sync.RWMutex
	m  map[string][]uint64
}

// NewVolatileDeltaIndex returns an empty index.
func NewVolatileDeltaIndex() *VolatileDeltaIndex {
	return &VolatileDeltaIndex{m: make(map[string][]uint64)}
}

// Insert records that delta row `row` carries encKey.
func (i *VolatileDeltaIndex) Insert(encKey []byte, row uint64) error {
	i.mu.Lock()
	i.m[string(encKey)] = append(i.m[string(encKey)], row)
	i.mu.Unlock()
	return nil
}

// Lookup yields the delta rows carrying encKey (insertion order).
func (i *VolatileDeltaIndex) Lookup(encKey []byte, fn func(row uint64) bool) {
	i.mu.RLock()
	rows := i.m[string(encKey)]
	i.mu.RUnlock()
	for _, r := range rows {
		if !fn(r) {
			return
		}
	}
}

// NVMDeltaIndex is the persistent delta index: a skip list from encoded
// value to the head of a persistent posting list of rows, with the
// posting nodes bumped from the skip list's arena beside its nodes. It
// is valid immediately after restart.
type NVMDeltaIndex struct {
	h    *nvm.Heap
	skip *pstruct.SkipList
	mu   sync.Mutex // single writer
}

// NewNVMDeltaIndex allocates an empty persistent delta index.
func NewNVMDeltaIndex(h *nvm.Heap) (*NVMDeltaIndex, error) {
	s, err := pstruct.NewSkipList(h)
	if err != nil {
		return nil, err
	}
	return &NVMDeltaIndex{h: h, skip: s}, nil
}

// AttachNVMDeltaIndex re-hydrates a persistent delta index in O(1).
func AttachNVMDeltaIndex(h *nvm.Heap, root nvm.PPtr) *NVMDeltaIndex {
	return &NVMDeltaIndex{h: h, skip: pstruct.AttachSkipList(h, root)}
}

// Root returns the persistent root pointer.
func (i *NVMDeltaIndex) Root() nvm.PPtr { return i.skip.Root() }

// StageInsert is the stage half of Insert (see package pstruct): it
// writes, for a value the index has not seen, a skip-list node with an
// empty posting list, and in every case the posting node for row,
// pointing at the list's current head. Nothing reachable changes until
// Publish, which links the node and moves the head; the caller fences in
// between.
func (i *NVMDeltaIndex) StageInsert(encKey []byte, row uint64) error {
	slot, _, err := i.skip.StageInsert(encKey, 0)
	if err != nil {
		return err
	}
	posting, err := pstruct.ListStage(i.skip.Arena(), row, nvm.PPtr(i.h.U64(slot)))
	if err != nil {
		return err
	}
	i.skip.StageSet(slot, uint64(posting))
	return nil
}

// Publish is the publish half of Insert: the skip-list link and the
// posting-list head.
//
//nvm:nopersist publish half: the link and the head are flushed, not fenced; the caller's second fence covers them
func (i *NVMDeltaIndex) Publish() { i.skip.Publish() }

// Settle finishes a published insert after the caller's second fence
// (see pstruct.SkipList.Settle).
func (i *NVMDeltaIndex) Settle() bool { return i.skip.Settle() }

// Unstage forgets a staged insert that will not be published.
func (i *NVMDeltaIndex) Unstage() { i.skip.Unstage() }

// Insert records that delta row `row` carries encKey: stage, fence,
// publish, fence. A crash in between leaves at most arena bytes nothing
// names, or an entry for a row its table never published, which lookups
// filter.
func (i *NVMDeltaIndex) Insert(encKey []byte, row uint64) error {
	i.mu.Lock()
	defer i.mu.Unlock()
	if err := i.StageInsert(encKey, row); err != nil {
		i.Unstage()
		return err
	}
	i.h.Fence()
	i.Publish()
	i.h.Fence()
	if i.Settle() {
		i.h.Fence()
	}
	return nil
}

// Lookup yields the delta rows carrying encKey (most recent first).
func (i *NVMDeltaIndex) Lookup(encKey []byte, fn func(row uint64) bool) {
	slot, ok := i.skip.ValueSlot(encKey)
	if !ok {
		return
	}
	pstruct.ListScan(i.h, slot, fn)
}

// Blocks yields the heap blocks owned by the group-key index.
func (g *NVMGroupKey) Blocks(yield func(nvm.PPtr)) {
	yield(g.root)
	g.offsets.Blocks(yield)
	g.positions.Blocks(yield)
}

// Blocks yields the heap blocks owned by the delta index: the skip list
// and its arena, which also holds every posting node.
func (i *NVMDeltaIndex) Blocks(yield func(nvm.PPtr)) { i.skip.Blocks(yield) }
