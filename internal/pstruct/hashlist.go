package pstruct

import (
	"bytes"
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"

	"hyrisenv/internal/nvm"
)

// HashList is a persistent map from byte-string keys to 32-bit values:
// the NVM-resident dictionary index of a delta column, which maps each
// key to its value ID. It is a split-ordered list (Shalev and Shavit,
// "Split-ordered lists: lock-free extensible hash tables", JACM 2006):
// one singly linked list of nodes sorted by the bit-reversed hash of
// their keys, so that the keys of bucket b of a table of 2^k buckets —
// those whose hash ends in the k bits of b — lie together, and the
// buckets of the doubled table split each run in two without moving a
// node. A directory holds one finger per bucket: a node before the
// bucket's run, where a search starts walking. A search is a directory
// load and a walk of a few nodes, whatever the size of the list.
//
// Nodes, each with its key inside it, are bumped from the list's arena
// (Arena); an indexed column bumps its posting nodes from the same one.
// KeyRef hands out a blob reference to a node's key, so a caller that
// also needs the key bytes (a dictionary) stores the reference, not a
// copy. The order of keys is not kept: nothing reads the keys in order.
//
// Crash consistency: the stage half writes and flushes a complete node
// that nothing links; after the caller's fence the publish half links it
// into the list with one store, the durable ground truth; after the
// caller's second fence Settle stores the finger the search found stale
// or unset. Fingers are accelerators: one names only a node whose link
// is durable and that lies before its bucket's run, and nodes never move
// or go away, so a finger is never wrong — a lost one costs a longer
// walk, from the parent bucket's finger. A crash mid-insert leaves either
// an unreachable node (arena bytes nothing names) or a linked one (fully
// inserted).
//
// The directory doubles when the key count passes hlLoad keys per
// bucket, inside an insert's two halves: the stage half zeroes and
// flushes the new half's segment, and the publish half links it. The
// linked segments are the bucket count, and the buckets of the new half
// start with no finger. The count serves that growth alone: Settle
// stores and flushes it every hlLoad keys, so a reopened list may have
// lost fewer than hlLoad of them, and grows that much later.
//
// Concurrency: one writer at a time, one staged insert at a time;
// readers may run concurrently with the writer (links and fingers are
// updated with atomic 8-byte stores, the directory's segments are linked
// before the bucket count that reaches them is published).
type HashList struct {
	h     *nvm.Heap
	root  nvm.PPtr // root block, see hlRootOff*
	head  nvm.PPtr // a node of which only the link word exists
	arena *Arena

	// segs mirrors the root's segment table, so that a search does not
	// re-read it from NVM, and sizeLog the bucket count it implies. A
	// segment is stored before the bucket count that reaches it.
	sizeLog atomic.Uint64
	segs    [hlMaxSegs]atomic.Uint64
	count   uint64 // keys; writer only

	// The staged insert, between StageInsert and Settle.
	staged struct {
		pred, node nvm.PPtr // the new node and the node it goes after, or nil
		fslot      nvm.PPtr // a finger slot to store, or nil
		finger     nvm.PPtr // what to store in it
		seg        nvm.PPtr // a directory segment to link, or nil
	}
}

const (
	// Node layout: next u64 | split-order key u64 | value u32 | keyLen
	// u32 | key bytes, padded to 8. Length and bytes are adjacent so that
	// node+hlOffKey is a blob (see ReadBlob).
	hlOffNext  = 0
	hlOffSO    = 8
	hlOffValue = 16
	hlOffKey   = 20
	hlNodeHdr  = 24

	// Root block: arena root | head link | count | segment table |
	// segment 0. Segment 0 holds the fingers of buckets [0, 2^hlBaseLog)
	// and lives in the root; segment j ≥ 1, a piece of the arena, those
	// of [2^(hlBaseLog+j-1), 2^(hlBaseLog+j)), so each doubling adds one
	// segment as large as all before it, and k linked segments make
	// 2^(hlBaseLog+k-1) buckets. Bucket 0 starts at the head and has no
	// finger of its own.
	hlRootOffArena = 0
	hlRootOffHead  = 8
	hlRootOffCount = 16
	hlRootOffSegs  = 24
	hlMaxSegs      = 25
	hlRootOffSeg0  = hlRootOffSegs + 8*hlMaxSegs
	hlRootSize     = hlRootOffSeg0 + 8<<hlBaseLog

	hlBaseLog = 2
	// hlLoad is the most keys per bucket before the directory doubles: a
	// search walks about half a bucket, and the directory costs 1 to 2
	// bytes a key.
	hlLoad = 8
	// hlStale is how many nodes before its bucket's run a search walks
	// before the writer moves the bucket's finger past them: a finger
	// store is a flushed line, and a search may walk one node in vain.
	hlStale = 2
)

func hlNodeSize(keyLen int) uint64 { return (hlNodeHdr + uint64(keyLen) + 7) &^ 7 }

// hlSegLen is the number of fingers in directory segment j.
func hlSegLen(j int) uint64 {
	if j == 0 {
		return 1 << hlBaseLog
	}
	return 1 << (hlBaseLog + j - 1)
}

// hashKey is the list's hash: FNV-1a over the key, then SplitMix64's
// finaliser, which spreads every input bit over the whole word — the
// bucket reads the low bits, the split order all of them reversed. It
// is fixed and seedless, because the order of the list is persistent.
func hashKey(key []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range key {
		h = (h ^ uint64(c)) * 1099511628211
	}
	h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
	h = (h ^ h>>27) * 0x94d049bb133111eb
	return h ^ h>>31
}

// NewHashList allocates an empty persistent hash list with an arena of
// its own. Its Root must be linked into a reachable structure by the
// caller.
func NewHashList(h *nvm.Heap) (*HashList, error) {
	arena, err := NewArena(h)
	if err != nil {
		return nil, err
	}
	root, err := h.Alloc(hlRootSize)
	if err != nil {
		return nil, err
	}
	// Alloc zeroes the block, but a recycled block's zeros are not
	// durable yet: every word is stored and persisted.
	clear(h.Bytes(root, hlRootSize))
	h.PutU64(root.Add(hlRootOffArena), uint64(arena.Root()))
	h.PutU64(root.Add(hlRootOffSegs), uint64(root.Add(hlRootOffSeg0)))
	h.Persist(root, hlRootSize)
	return AttachHashList(h, root), nil
}

// AttachHashList re-hydrates a hash list from its root, reading the root
// block and the arena's segment directory and nothing else.
func AttachHashList(h *nvm.Heap, root nvm.PPtr) *HashList {
	s := &HashList{
		h:     h,
		root:  root,
		head:  root.Add(hlRootOffHead),
		arena: AttachArena(h, nvm.PPtr(h.GetU64(root.Add(hlRootOffArena)))),
		count: h.U64(root.Add(hlRootOffCount)),
	}
	for j := range s.segs {
		seg := h.U64(root.Add(hlRootOffSegs + 8*uint64(j)))
		if seg == 0 {
			break
		}
		s.segs[j].Store(seg)
		s.sizeLog.Store(hlBaseLog + uint64(j))
	}
	return s
}

// Root returns the persistent root pointer.
func (s *HashList) Root() nvm.PPtr { return s.root }

// Arena returns the arena the list's nodes live in, for an owner that
// keeps its own pieces (posting nodes) beside them.
func (s *HashList) Arena() *Arena { return s.arena }

// KeyRef returns a blob reference (see ReadBlob) to node's key.
func (s *HashList) KeyRef(node nvm.PPtr) nvm.PPtr { return node.Add(hlOffKey) }

// Value returns the value stored in node.
func (s *HashList) Value(node nvm.PPtr) uint64 { return uint64(s.h.GetU32(node.Add(hlOffValue))) }

func (s *HashList) next(node nvm.PPtr) nvm.PPtr { return nvm.PPtr(s.h.U64(node.Add(hlOffNext))) }

// fingerSlot returns the address of bucket b's finger, for b below the
// bucket count.
func (s *HashList) fingerSlot(b uint64) nvm.PPtr {
	j, off := 0, b
	if b >= 1<<hlBaseLog {
		n := bits.Len64(b)
		j, off = n-hlBaseLog, b-1<<(n-1)
	}
	return nvm.PPtr(s.segs[j].Load()).Add(8 * off)
}

// search is one walk of the list to key's place.
type search struct {
	pred  nvm.PPtr // the last node before key's place: the new node's predecessor
	match nvm.PPtr // the node holding key, or nil
	slot  nvm.PPtr // the finger slot of key's bucket, or nil for bucket 0
	// finger is the last node the walk passed before the bucket's run,
	// and skipped the number of such nodes a search from it would not
	// walk again.
	finger  nvm.PPtr
	skipped int
}

// find walks from the finger of key's bucket — or of its nearest
// ancestor that has one, the bucket with its top bit cleared, whose run
// the bucket's lies in — to where key is or would be.
func (s *HashList) find(key []byte, hash uint64) search {
	var r search
	b := hash & (1<<s.sizeLog.Load() - 1)
	cur := s.head
	for x := b; x != 0; x &^= 1 << (bits.Len64(x) - 1) {
		slot := s.fingerSlot(x)
		f := nvm.PPtr(s.h.U64(slot))
		if x == b {
			r.slot = slot
		}
		if !f.IsNil() {
			cur = f
			break
		}
	}
	so, start := bits.Reverse64(hash), bits.Reverse64(b)
	r.finger = cur
	charge := s.h.ReadLatencyEnabled()
	for {
		nxt := s.next(cur)
		if nxt.IsNil() {
			break
		}
		if charge {
			s.h.ChargeRead(hlNodeHdr)
		}
		nso := s.h.GetU64(nxt.Add(hlOffSO))
		if nso > so {
			break
		}
		if nso == so && bytes.Equal(ReadBlob(s.h, nxt.Add(hlOffKey)), key) {
			r.match = nxt
			break
		}
		if nso < start {
			r.finger = nxt
			r.skipped++
		}
		cur = nxt
	}
	r.pred = cur
	return r
}

// Get returns the value stored under key.
func (s *HashList) Get(key []byte) (val uint64, ok bool) {
	r := s.find(key, hashKey(key))
	if r.match.IsNil() {
		return 0, false
	}
	return s.Value(r.match), true
}

// StageInsert is the stage half of Insert. For an absent key it writes a
// complete node carrying value into the arena, pointing at its
// successor, and flushes it; nothing links it until Publish. For a
// present key it writes nothing and returns existed: an entry keeps its
// value. Either way node is the key's node. The search also stages the
// finger of the key's bucket for Settle when it walked hlStale nodes or
// more before the bucket's run, from an ancestor's finger or a stale one
// of its own. When the key count has reached the directory's load, it
// also stages the directory's next segment, zeroed, for Publish to link.
//
//nvm:nopersist stage half: the node and the segment are flushed, not fenced; the caller fences before Publish
func (s *HashList) StageInsert(key []byte, value uint64) (node nvm.PPtr, existed bool, err error) {
	st := &s.staged
	st.node, st.fslot, st.seg = 0, 0, 0
	if value > math.MaxUint32 {
		return 0, false, fmt.Errorf("pstruct: hash list value %d exceeds 32 bits", value)
	}
	hash := hashKey(key)
	r := s.find(key, hash)
	if !r.slot.IsNil() && r.skipped >= hlStale {
		st.fslot, st.finger = r.slot, r.finger
	}
	// A doubling's segment and a new key's node are bumped as one piece.
	var segLen, size uint64
	if j := int(s.sizeLog.Load()-hlBaseLog) + 1; s.count >= hlLoad<<s.sizeLog.Load() && j < hlMaxSegs {
		segLen = 8 * hlSegLen(j)
	}
	if r.match.IsNil() {
		size = hlNodeSize(len(key))
	}
	if segLen+size > 0 {
		p, err := s.arena.Alloc(segLen + size)
		if err != nil {
			return 0, false, err
		}
		if segLen > 0 {
			st.seg = p
			clear(s.h.Bytes(p, segLen))
			s.h.Flush(p, segLen)
		}
		node = p.Add(segLen)
	}
	if !r.match.IsNil() {
		return r.match, true, nil
	}
	s.h.PutU64(node.Add(hlOffNext), uint64(s.next(r.pred)))
	s.h.PutU64(node.Add(hlOffSO), bits.Reverse64(hash))
	s.h.PutU32(node.Add(hlOffValue), uint32(value))
	putBlob(s.h, node.Add(hlOffKey), key)
	s.h.Flush(node, size)
	st.pred, st.node = r.pred, node
	return node, false, nil
}

// Publish is the publish half of Insert: one store links the staged node
// after its predecessor, another a staged directory segment into the
// segment table, doubling the bucket count, and their lines are flushed.
// The caller has fenced since StageInsert and fences again before it
// reports the insert done.
//
//nvm:nopersist publish half: the links are flushed, not fenced; the caller's second fence covers them
func (s *HashList) Publish() {
	st := &s.staged
	if !st.node.IsNil() {
		p := st.pred.Add(hlOffNext)
		s.h.SetU64(p, uint64(st.node))
		s.h.Flush(p, 8)
	}
	if !st.seg.IsNil() {
		log := s.sizeLog.Load()
		j := log - hlBaseLog + 1
		p := s.root.Add(hlRootOffSegs + 8*j)
		s.h.SetU64(p, uint64(st.seg))
		s.h.Flush(p, 8)
		s.segs[j].Store(uint64(st.seg))
		s.sizeLog.Store(log + 1)
		st.seg = 0
	}
}

// Settle finishes an insert after the caller's second fence: it counts a
// published node, storing and flushing the count every hlLoad keys, and
// stores and flushes the finger the search staged. Both ride whatever
// fence comes next — losing either costs speed, not correctness. It
// reports whether it flushed anything.
//
//nvm:nopersist the count and the finger are accelerators; their flush rides the next fence
func (s *HashList) Settle() bool {
	st := &s.staged
	flushed := false
	if !st.node.IsNil() {
		if s.count++; s.count%hlLoad == 0 {
			p := s.root.Add(hlRootOffCount)
			s.h.SetU64(p, s.count)
			s.h.Flush(p, 8)
			flushed = true
		}
	}
	if !st.fslot.IsNil() {
		s.h.SetU64(st.fslot, uint64(st.finger))
		s.h.Flush(st.fslot, 8)
		flushed = true
	}
	st.node, st.fslot = 0, 0
	return flushed
}

// Unstage forgets a staged insert that will not be published; its node
// and segment stay behind as arena bytes nothing names.
func (s *HashList) Unstage() {
	s.staged.node, s.staged.fslot, s.staged.seg = 0, 0, 0
}

// Insert stores value under key unless the key is present, and reports
// whether it was. It is stage, fence, publish, fence over this one list,
// then Settle and a fence for what it flushes.
func (s *HashList) Insert(key []byte, value uint64) (existed bool, err error) {
	_, existed, err = s.StageInsert(key, value)
	if err != nil {
		s.Unstage()
		return false, err
	}
	s.h.Fence()
	s.Publish()
	s.h.Fence()
	s.Settle()
	s.h.Fence()
	return existed, nil
}

// Scan calls fn for every entry, in split order.
func (s *HashList) Scan(fn func(key []byte, val uint64) bool) {
	for cur := s.next(s.head); !cur.IsNil(); cur = s.next(cur) {
		if !fn(ReadBlob(s.h, cur.Add(hlOffKey)), s.Value(cur)) {
			return
		}
	}
}

// Blocks yields the heap blocks owned by the hash list: its root and its
// arena, which holds every node and directory segment.
func (s *HashList) Blocks(yield func(nvm.PPtr)) {
	yield(s.root)
	s.arena.Blocks(yield)
}

// SkipList and NewSkipList name the hash list for the benchmark's
// pstruct.skiplist_insert_ns instrument, and retire with it.
type SkipList = HashList

func NewSkipList(h *nvm.Heap) (*HashList, error) { return NewHashList(h) }
