package pstruct

import (
	"bytes"
	"math/rand"

	"hyrisenv/internal/nvm"
)

// SkipList is a persistent, ordered map from byte-string keys to uint64
// values: the NVM-resident dictionary index of a delta column, which
// maps each key to its value ID. It is the column's only search
// structure — an indexed column hangs its posting lists off the value
// IDs and bumps their nodes from this list's arena (Arena). Nodes, each
// with its key inside it, are bumped from the same arena; KeyRef hands
// out a blob reference to a node's key, so a caller that also needs the
// key bytes (a dictionary) stores the reference, not a copy.
//
// Crash consistency: the stage half writes and flushes a complete node
// that nothing links; after the caller's fence the publish half links it
// at the bottom level, the durable ground truth; after the caller's
// second fence Settle links the upper levels, which are accelerators and
// remain correct under partial linking. The order matters: an upper link
// that became durable before the bottom one would leave a node reachable
// only from above. A crash mid-insert leaves either an unreachable node
// (arena bytes nothing names) or a node reachable at its bottom level
// (fully inserted).
//
// Concurrency: one writer at a time, one staged insert at a time;
// readers may run concurrently with the writer (next pointers are
// updated with atomic 8-byte stores).
type SkipList struct {
	h     *nvm.Heap
	root  nvm.PPtr // root block: arena root | head node
	head  nvm.PPtr
	arena *Arena
	rnd   *rand.Rand

	// The staged insert, between StageInsert and Settle.
	staged struct {
		node   nvm.PPtr // the new node, or nil
		height int
		preds  [slMaxHeight]nvm.PPtr
		slot   nvm.PPtr // value slot of a present key to overwrite, or nil
		value  uint64
	}
}

const (
	slMaxHeight = 16

	// Node layout: value u64 | height u32 | keyLen u32 | key bytes,
	// padded to 8 | next[height] u64. Height, length and bytes are
	// adjacent so that node+slOffKey is a blob (see ReadBlob); the next
	// pointers follow the key, so their offset differs per node.
	slOffValue  = 0
	slOffHeight = 8
	slOffKey    = 12
	slOffBytes  = 16

	// Root block: arena root u64 | head node.
	slRootOffArena = 0
	slRootOffHead  = 8
	slRootSize     = slRootOffHead + slOffBytes + 8*slMaxHeight
)

func slNodeSize(keyLen uint64, height int) uint64 {
	return slOffBytes + (keyLen+7)&^7 + 8*uint64(height)
}

// NewSkipList allocates an empty persistent skip list with an arena of
// its own. Its Root must be linked into a reachable structure by the
// caller.
func NewSkipList(h *nvm.Heap) (*SkipList, error) {
	arena, err := NewArena(h)
	if err != nil {
		return nil, err
	}
	root, err := h.Alloc(slRootSize)
	if err != nil {
		return nil, err
	}
	h.PutU64(root.Add(slRootOffArena), uint64(arena.Root()))
	head := root.Add(slRootOffHead)
	h.PutU64(head.Add(slOffValue), 0)
	h.PutU32(head.Add(slOffHeight), slMaxHeight)
	h.PutU32(head.Add(slOffKey), 0)
	for i := 0; i < slMaxHeight; i++ {
		h.PutU64(head.Add(slOffBytes+uint64(i)*8), 0)
	}
	h.Persist(root, slRootSize)
	return &SkipList{h: h, root: root, head: head, arena: arena, rnd: rand.New(rand.NewSource(0x5eed))}, nil
}

// AttachSkipList re-hydrates a skip list from its root (O(1) besides the
// arena's segment directory).
func AttachSkipList(h *nvm.Heap, root nvm.PPtr) *SkipList {
	return &SkipList{
		h:     h,
		root:  root,
		head:  root.Add(slRootOffHead),
		arena: AttachArena(h, nvm.PPtr(h.GetU64(root.Add(slRootOffArena)))),
		rnd:   rand.New(rand.NewSource(0x5eed)),
	}
}

// Root returns the persistent root pointer.
func (s *SkipList) Root() nvm.PPtr { return s.root }

// Arena returns the arena the list's nodes live in, for an owner that
// keeps its own pieces (posting nodes) beside them.
func (s *SkipList) Arena() *Arena { return s.arena }

// nextSlot returns the address of node's next pointer at level.
func (s *SkipList) nextSlot(node nvm.PPtr, level int) nvm.PPtr {
	keyLen := uint64(s.h.GetU32(node.Add(slOffKey)))
	return node.Add(slOffBytes + (keyLen+7)&^7 + uint64(level)*8)
}

func (s *SkipList) next(node nvm.PPtr, level int) nvm.PPtr {
	return nvm.PPtr(s.h.U64(s.nextSlot(node, level)))
}

func (s *SkipList) key(node nvm.PPtr) []byte {
	return ReadBlob(s.h, node.Add(slOffKey))
}

func (s *SkipList) height(node nvm.PPtr) int {
	return int(s.h.GetU32(node.Add(slOffHeight)))
}

// KeyRef returns a blob reference (see ReadBlob) to the key of the entry
// whose value slot is slot.
func (s *SkipList) KeyRef(slot nvm.PPtr) nvm.PPtr { return slot.Add(slOffKey - slOffValue) }

// findPreds fills preds with the rightmost node < key at every level and
// returns the first node >= key at level 0 (or nil).
func (s *SkipList) findPreds(key []byte, preds *[slMaxHeight]nvm.PPtr) nvm.PPtr {
	cur := s.head
	for level := slMaxHeight - 1; level >= 0; level-- {
		for {
			nxt := s.next(cur, level)
			if nxt.IsNil() || bytes.Compare(s.key(nxt), key) >= 0 {
				break
			}
			cur = nxt
		}
		preds[level] = cur
	}
	return s.next(cur, 0)
}

// Get returns the value stored under key.
func (s *SkipList) Get(key []byte) (val uint64, ok bool) {
	var preds [slMaxHeight]nvm.PPtr
	n := s.findPreds(key, &preds)
	if n.IsNil() || !bytes.Equal(s.key(n), key) {
		return 0, false
	}
	return s.h.U64(n.Add(slOffValue)), true
}

// StageInsert is the stage half of Insert. For an absent key it writes a
// complete node carrying value into the arena, pointing at its
// successors, and flushes it; nothing links it until Publish. For a
// present key it writes nothing and returns existed: the entry keeps its
// value unless the caller stages an overwrite with StageSet. Either way
// slot is the value slot of the key's entry.
//
//nvm:nopersist stage half: the node is flushed, not fenced; the caller fences before Publish
func (s *SkipList) StageInsert(key []byte, value uint64) (slot nvm.PPtr, existed bool, err error) {
	st := &s.staged
	st.node, st.slot = 0, 0
	n := s.findPreds(key, &st.preds)
	if !n.IsNil() && bytes.Equal(s.key(n), key) {
		return n.Add(slOffValue), true, nil
	}
	height := 1
	for height < slMaxHeight && s.rnd.Intn(4) == 0 {
		height++
	}
	size := slNodeSize(uint64(len(key)), height)
	node, err := s.arena.Alloc(size)
	if err != nil {
		return 0, false, err
	}
	s.h.PutU64(node.Add(slOffValue), value)
	s.h.PutU32(node.Add(slOffHeight), uint32(height))
	putBlob(s.h, node.Add(slOffKey), key)
	nexts := node.Add(size - 8*uint64(height))
	for level := 0; level < height; level++ {
		s.h.PutU64(nexts.Add(uint64(level)*8), uint64(s.next(st.preds[level], level)))
	}
	s.h.Flush(node, size)
	st.node, st.height = node, height
	return node.Add(slOffValue), false, nil
}

// StageSet stages an overwrite of the value in slot, the value slot of a
// present entry. The store itself is the publish half.
func (s *SkipList) StageSet(slot nvm.PPtr, value uint64) {
	s.staged.slot, s.staged.value = slot, value
}

// Publish is the publish half of Insert: one store links the staged node
// at the bottom level (or overwrites the staged value), and its line is
// flushed. The caller has fenced since StageInsert and fences again
// before it reports the insert done.
//
//nvm:nopersist publish half: the link is flushed, not fenced; the caller's second fence covers it
func (s *SkipList) Publish() {
	st := &s.staged
	if !st.node.IsNil() {
		p := s.nextSlot(st.preds[0], 0)
		s.h.SetU64(p, uint64(st.node))
		s.h.Flush(p, 8)
	}
	if !st.slot.IsNil() {
		s.h.SetU64(st.slot, st.value)
		s.h.Flush(st.slot, 8)
		st.slot = 0
	}
}

// Settle finishes a published insert after the caller's second fence: it
// links the node's upper levels and flushes those links, which ride
// whatever fence comes next — losing one costs search speed, not
// correctness. It reports whether it flushed anything.
//
//nvm:nopersist the upper links are accelerators; their flush rides the next fence
func (s *SkipList) Settle() bool {
	st := &s.staged
	node, height := st.node, st.height
	st.node = 0
	if node.IsNil() || height == 1 {
		return false
	}
	for level := 1; level < height; level++ {
		p := s.nextSlot(st.preds[level], level)
		s.h.SetU64(p, uint64(node))
		s.h.Flush(p, 8)
	}
	return true
}

// Unstage forgets a staged insert that will not be published; its node
// stays behind as arena bytes nothing names.
func (s *SkipList) Unstage() {
	s.staged.node, s.staged.slot = 0, 0
}

// Insert stores value under key. If the key already exists its value is
// overwritten (durably) and existed=true is returned. It is stage,
// fence, publish, fence over this one list, plus a fence for the upper
// links of a node that has any.
func (s *SkipList) Insert(key []byte, value uint64) (existed bool, err error) {
	slot, existed, err := s.StageInsert(key, value)
	if err != nil {
		return false, err
	}
	if existed {
		s.StageSet(slot, value)
	}
	s.h.Fence()
	s.Publish()
	s.h.Fence()
	if s.staged.height > 1 && !existed {
		s.Settle()
		s.h.Fence()
	}
	return existed, nil
}

// Len counts the entries (O(n); used by tests and statistics).
func (s *SkipList) Len() uint64 {
	var n uint64
	for cur := s.next(s.head, 0); !cur.IsNil(); cur = s.next(cur, 0) {
		n++
	}
	return n
}

// Scan calls fn for every entry in key order.
func (s *SkipList) Scan(fn func(key []byte, val uint64) bool) {
	for it := s.First(); it.Valid(); it.Next() {
		if !fn(it.Key(), it.Value()) {
			return
		}
	}
}

// Iterator walks the list in key order.
type Iterator struct {
	s   *SkipList
	cur nvm.PPtr
}

// First positions the iterator at the smallest key.
func (s *SkipList) First() *Iterator {
	return &Iterator{s: s, cur: s.next(s.head, 0)}
}

// Valid reports whether the iterator points at an entry.
func (it *Iterator) Valid() bool { return !it.cur.IsNil() }

// Key returns the current key (aliasing NVM; do not mutate).
func (it *Iterator) Key() []byte { return it.s.key(it.cur) }

// Value returns the current value.
func (it *Iterator) Value() uint64 { return it.s.h.U64(it.cur.Add(slOffValue)) }

// Next advances the iterator.
func (it *Iterator) Next() { it.cur = it.s.next(it.cur, 0) }

// Blocks yields the heap blocks owned by the skip list: its root (which
// holds the head node) and its arena, which holds every other node.
func (s *SkipList) Blocks(yield func(nvm.PPtr)) {
	yield(s.root)
	s.arena.Blocks(yield)
}
