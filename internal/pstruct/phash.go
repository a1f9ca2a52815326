package pstruct

import (
	"bytes"
	"hash/fnv"

	"hyrisenv/internal/nvm"
)

// PHash is a persistent hash map from byte-string keys to uint64 values —
// the alternative to the skip list for the delta dictionary index when
// ordered access is not required (point lookups only, O(1) instead of
// O(log n)).
//
// Layout: a fixed bucket directory (power-of-two, chosen at creation)
// of head pointers; entries are chained nodes {next, value, key}, bumped
// from the map's arena. Crash consistency is the two halves' (see the
// package comment): the stage half writes and flushes a complete node
// that points at the current bucket head, the publish half redirects
// the head to it, so a reachable entry is always complete; a crash
// mid-insert leaves at most one node nothing names.
//
// The directory does not resize; chains degrade gracefully when the map
// outgrows it. Size the directory for the expected delta cardinality
// (the delta is bounded by the merge threshold by design).
//
// Concurrency: one writer at a time, one staged insert at a time;
// readers may run concurrently with the writer.
type PHash struct {
	h       *nvm.Heap
	root    nvm.PPtr
	buckets uint64
	arena   *Arena

	// The staged insert: the word Publish stores, and where.
	staged struct {
		slot  nvm.PPtr
		value uint64
	}
}

const (
	// root block: bucketsLog u64 | arena root u64 | heads[buckets] u64
	phOffBucketsLog = 0
	phOffArena      = 8
	phOffHeads      = 16

	// node: next u64 | value u64 | key blob (keyLen u32 | bytes)
	phnOffNext  = 0
	phnOffValue = 8
	phnOffKey   = 16
)

// NewPHash allocates an empty persistent hash map with 1<<bucketsLog
// buckets and an arena of its own.
func NewPHash(h *nvm.Heap, bucketsLog uint64) (*PHash, error) {
	arena, err := NewArena(h)
	if err != nil {
		return nil, err
	}
	buckets := uint64(1) << bucketsLog
	root, err := h.Alloc(phOffHeads + buckets*8)
	if err != nil {
		return nil, err
	}
	h.PutU64(root.Add(phOffBucketsLog), bucketsLog)
	h.PutU64(root.Add(phOffArena), uint64(arena.Root()))
	for i := uint64(0); i < buckets; i++ {
		h.PutU64(root.Add(phOffHeads+i*8), 0)
	}
	h.Persist(root, phOffHeads+buckets*8)
	return &PHash{h: h, root: root, buckets: buckets, arena: arena}, nil
}

// AttachPHash re-hydrates a persistent hash map from its root (O(1)
// besides the arena's segment directory).
func AttachPHash(h *nvm.Heap, root nvm.PPtr) *PHash {
	return &PHash{
		h:       h,
		root:    root,
		buckets: 1 << h.GetU64(root.Add(phOffBucketsLog)),
		arena:   AttachArena(h, nvm.PPtr(h.GetU64(root.Add(phOffArena)))),
	}
}

// Root returns the persistent root pointer.
func (p *PHash) Root() nvm.PPtr { return p.root }

// Arena returns the arena the map's nodes live in.
func (p *PHash) Arena() *Arena { return p.arena }

func (p *PHash) bucketSlot(key []byte) nvm.PPtr {
	f := fnv.New64a()
	f.Write(key)
	return p.root.Add(phOffHeads + (f.Sum64()&(p.buckets-1))*8)
}

// find returns the node holding key in the chain anchored at slot.
func (p *PHash) find(slot nvm.PPtr, key []byte) (nvm.PPtr, bool) {
	for cur := nvm.PPtr(p.h.U64(slot)); !cur.IsNil(); cur = nvm.PPtr(p.h.U64(cur.Add(phnOffNext))) {
		if bytes.Equal(ReadBlob(p.h, cur.Add(phnOffKey)), key) {
			return cur, true
		}
	}
	return 0, false
}

// Get returns the value stored under key.
func (p *PHash) Get(key []byte) (uint64, bool) {
	node, ok := p.find(p.bucketSlot(key), key)
	if !ok {
		return 0, false
	}
	return p.h.U64(node.Add(phnOffValue)), true
}

// KeyRef returns a blob reference (see ReadBlob) to the key of the entry
// whose value slot is slot.
func (p *PHash) KeyRef(slot nvm.PPtr) nvm.PPtr { return slot.Add(phnOffKey - phnOffValue) }

// StageInsert is the stage half of Insert. For an absent key it writes a
// complete node carrying value into the arena, pointing at the bucket's
// current head, and flushes it; nothing links it until Publish. For a
// present key it writes nothing and returns existed: the entry keeps its
// value unless the caller stages an overwrite with StageSet. Either way
// slot is the value slot of the key's entry.
//
//nvm:nopersist stage half: the node is flushed, not fenced; the caller fences before Publish
func (p *PHash) StageInsert(key []byte, value uint64) (slot nvm.PPtr, existed bool, err error) {
	p.staged.slot = 0
	bucket := p.bucketSlot(key)
	if node, ok := p.find(bucket, key); ok {
		return node.Add(phnOffValue), true, nil
	}
	size := phnOffKey + 4 + uint64(len(key))
	node, err := p.arena.Alloc(size)
	if err != nil {
		return 0, false, err
	}
	p.h.PutU64(node.Add(phnOffNext), p.h.U64(bucket))
	p.h.PutU64(node.Add(phnOffValue), value)
	putBlob(p.h, node.Add(phnOffKey), key)
	p.h.Flush(node, size)
	p.staged.slot, p.staged.value = bucket, uint64(node)
	return node.Add(phnOffValue), false, nil
}

// StageSet stages an overwrite of the value in slot, the value slot of a
// present entry. The store itself is the publish half.
func (p *PHash) StageSet(slot nvm.PPtr, value uint64) {
	p.staged.slot, p.staged.value = slot, value
}

// Publish is the publish half of Insert: one store redirects the bucket
// head to the staged node (or overwrites the staged value), and its line
// is flushed. The caller has fenced since StageInsert and fences again
// before it reports the insert done.
//
//nvm:nopersist publish half: the link is flushed, not fenced; the caller's second fence covers it
func (p *PHash) Publish() {
	if slot := p.staged.slot; !slot.IsNil() {
		p.h.SetU64(slot, p.staged.value)
		p.h.Flush(slot, 8)
		p.staged.slot = 0
	}
}

// Settle has nothing to finish: a hash chain has no accelerator links
// (see SkipList.Settle).
func (p *PHash) Settle() bool { return false }

// Unstage forgets a staged insert that will not be published; its node
// stays behind as arena bytes nothing names.
func (p *PHash) Unstage() { p.staged.slot = 0 }

// Insert stores value under key; existing keys are durably overwritten.
// It is stage, fence, publish, fence over this one map.
func (p *PHash) Insert(key []byte, value uint64) (existed bool, err error) {
	slot, existed, err := p.StageInsert(key, value)
	if err != nil {
		return false, err
	}
	if existed {
		p.StageSet(slot, value)
	}
	p.h.Fence()
	p.Publish()
	p.h.Fence()
	return existed, nil
}

// chains calls fn for every node, bucket by bucket.
func (p *PHash) chains(fn func(bucket uint64, node nvm.PPtr) bool) {
	for b := uint64(0); b < p.buckets; b++ {
		for cur := nvm.PPtr(p.h.U64(p.root.Add(phOffHeads + b*8))); !cur.IsNil(); cur = nvm.PPtr(p.h.U64(cur.Add(phnOffNext))) {
			if !fn(b, cur) {
				return
			}
		}
	}
}

// Len counts the entries (O(n); tests and statistics).
func (p *PHash) Len() uint64 {
	var n uint64
	p.chains(func(uint64, nvm.PPtr) bool { n++; return true })
	return n
}

// Scan calls fn for every entry (bucket order, not key order).
func (p *PHash) Scan(fn func(key []byte, val uint64) bool) {
	p.chains(func(_ uint64, node nvm.PPtr) bool {
		return fn(ReadBlob(p.h, node.Add(phnOffKey)), p.h.U64(node.Add(phnOffValue)))
	})
}

// Blocks yields the heap blocks owned by the map: its root and its
// arena, which holds every node.
func (p *PHash) Blocks(yield func(nvm.PPtr)) {
	yield(p.root)
	p.arena.Blocks(yield)
}
