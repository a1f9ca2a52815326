package pstruct

import (
	"fmt"

	"hyrisenv/internal/nvm"
)

// Persistent posting lists: singly-linked lists of uint64 payloads below
// 2^63, most recently pushed first, whose nodes are bumped from an arena
// and whose head is a word the caller keeps (a delta column keeps one per
// dictionary value ID). Secondary indexes map a column value to the
// posting list of rows carrying it.
//
// A list word — a head, or a node's next — is 0 for the empty list, a
// node's address (8-aligned, so even) for a list that goes on in that
// node, or ListEnd(val) (odd) for a list whose last value is val: the
// last value of a list is kept in the word that would point at its node,
// so a list of one value costs no node at all.
//
// A push is the two halves of the package comment: ListStage writes and
// flushes a node that nothing links; after the caller's fence one 8-byte
// store of the node's address into the head publishes it.

const (
	plOffVal  = 0
	plOffNext = 8
	plNodeLen = 16
)

// ListEnd is the list word of a list holding val alone.
func ListEnd(val uint64) uint64 { return val<<1 | 1 }

// ListStage is the stage half of pushing val onto the list whose head
// word is head: it bumps a node {val, head} from the arena a and flushes
// it, and returns its address — the new head, for the caller to store
// after its fence.
//
//nvm:nopersist stage half: the node is flushed, not fenced; the caller fences before it moves the head
func ListStage(a *Arena, val, head uint64) (nvm.PPtr, error) {
	node, err := a.Alloc(plNodeLen)
	if err != nil {
		return 0, err
	}
	a.h.PutU64(node.Add(plOffVal), val)
	a.h.PutU64(node.Add(plOffNext), head)
	a.h.Flush(node, plNodeLen)
	return node, nil
}

// ListScan calls fn for every value in the list whose head word is
// head and whose nodes were bumped from the arena a, most recently pushed
// first. fn returning false stops the scan. A list cannot have more
// nodes than the arena holds, so a longer walk is a cycle a damaged link
// made, and ends in an error wrapping nvm.ErrCorrupt.
func ListScan(a *Arena, head uint64, fn func(val uint64) bool) error {
	// The cursor word, not the writer's copy of it: readers run beside
	// the writer.
	h := a.h
	for w, steps := head, h.U64(a.lenPtr())/plNodeLen; w != 0; steps-- {
		if w&1 != 0 {
			fn(w >> 1)
			return nil
		}
		if steps == 0 {
			return fmt.Errorf("posting list %d is longer than its arena holds: %w", head, nvm.ErrCorrupt)
		}
		if h.ReadLatencyEnabled() {
			h.ChargeRead(plNodeLen)
		}
		node := nvm.PPtr(w)
		if !fn(h.U64(node.Add(plOffVal))) {
			return nil
		}
		w = h.U64(node.Add(plOffNext))
	}
	return nil
}
