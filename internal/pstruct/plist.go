package pstruct

import (
	"hyrisenv/internal/nvm"
)

// Persistent posting lists: singly-linked lists of uint64 payloads whose
// head pointer lives in an arbitrary caller-owned persistent slot (for
// example the value word of a skip-list node). Secondary indexes map a
// column value to the posting list of row IDs carrying that value.
//
// Push is crash-atomic in the two halves of the package comment: the
// node is written and flushed before the caller's fence, the head slot
// is redirected to it after.

const (
	plOffVal  = 0
	plOffNext = 8
	plNodeLen = 16
)

// listWrite writes a posting node {val, next} at node and flushes it.
func listWrite(h *nvm.Heap, node nvm.PPtr, val uint64, next nvm.PPtr) {
	h.PutU64(node.Add(plOffVal), val)
	h.PutU64(node.Add(plOffNext), uint64(next))
	h.Flush(node, plNodeLen)
}

// ListStage is the stage half of a push onto a list whose nodes are
// bumped from the arena a: it writes and flushes a node {val, next},
// where next is the list's current head. Nothing links the node until
// the caller, after its fence, stores the node's address in the head
// slot — one 8-byte store, the publish half (SkipList.StageSet, when the
// slot is a skip-list value).
//
//nvm:nopersist stage half: the node is flushed, not fenced; the caller fences before it moves the head
func ListStage(a *Arena, val uint64, next nvm.PPtr) (nvm.PPtr, error) {
	node, err := a.Alloc(plNodeLen)
	if err != nil {
		return 0, err
	}
	listWrite(a.h, node, val, next)
	return node, nil
}

// ListPush prepends val to the list anchored at slot, in a node block of
// its own: stage, fence, publish, fence.
func ListPush(h *nvm.Heap, slot nvm.PPtr, val uint64) error {
	node, err := h.Alloc(plNodeLen)
	if err != nil {
		return err
	}
	listWrite(h, node, val, nvm.PPtr(h.U64(slot)))
	h.Fence()
	h.SetU64(slot, uint64(node))
	h.Flush(slot, 8)
	h.Fence()
	return nil
}

// ListScan calls fn for every value in the list anchored at slot, in
// most-recently-pushed-first order. fn returning false stops the scan.
func ListScan(h *nvm.Heap, slot nvm.PPtr, fn func(val uint64) bool) {
	cur := nvm.PPtr(h.U64(slot))
	for !cur.IsNil() {
		if h.ReadLatencyEnabled() {
			h.ChargeRead(plNodeLen)
		}
		if !fn(h.U64(cur.Add(plOffVal))) {
			return
		}
		cur = nvm.PPtr(h.U64(cur.Add(plOffNext)))
	}
}

// ListLen counts the list entries.
func ListLen(h *nvm.Heap, slot nvm.PPtr) uint64 {
	var n uint64
	ListScan(h, slot, func(uint64) bool { n++; return true })
	return n
}
