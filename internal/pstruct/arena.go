package pstruct

import (
	"fmt"

	"hyrisenv/internal/nvm"
)

// arenaBaseLog sizes an arena's first segment (4 KiB); later segments
// double, so an arena that stays small costs one small block and a large
// one is a handful of large blocks that a merge drops wholesale.
const arenaBaseLog = 12

// Arena is a persistent bump allocator for the variable-size pieces of
// one owning structure — keys, index nodes, posting nodes — over the
// same doubling segment directory as Vector, with bytes for elements and
// the bump cursor for the length word. It replaces a Heap.Alloc per
// piece: no block header, no size-class rounding, and neighbouring
// pieces share cache lines.
//
// The arena invariant: the durable cursor is never behind a reachable
// byte. Alloc stores and flushes the cursor in the stage half of
// whatever its caller is doing, and the caller's fence separates that
// from the publish half that links the allocated bytes, so a link can
// only be durable if the cursor that covers its target is. A crash
// between the two leaks the staged bytes — nothing names them, nothing
// frees them one by one; the arena goes away as a whole when its owner
// does — and never exposes them. Space is not reused and not zeroed: a
// piece is written in full before anything links it.
//
// Alloc is single-writer, like the structures that own arenas.
type Arena struct {
	segDir
	cursor uint64
}

// NewArena allocates an empty arena. Its Root must be linked into a
// reachable structure by the caller.
func NewArena(h *nvm.Heap) (*Arena, error) {
	root, err := newSegRoot(h, 1, arenaBaseLog)
	if err != nil {
		return nil, err
	}
	return &Arena{segDir: segDir{h: h, root: root, elemSize: 1, baseLog: arenaBaseLog}}, nil
}

// AttachArena re-hydrates an arena from its root in O(#segments). Bytes
// a crash left beyond the durable cursor are overwritten by later
// allocations.
func AttachArena(h *nvm.Heap, root nvm.PPtr) *Arena {
	a := &Arena{segDir: segDir{h: h, root: root}}
	a.attach()
	a.cursor = h.U64(a.lenPtr())
	return a
}

// Used returns the bump cursor: the bytes handed out so far, including
// the tails skipped at segment ends.
func (a *Arena) Used() uint64 { return a.cursor }

// Alloc reserves n bytes (rounded up to 8, contiguous, 8-byte aligned)
// and advances the cursor past them, flushing the cursor word. The bytes
// are the caller's to write and flush; they become reachable only
// through a link the caller publishes after its next fence.
//
//nvm:nopersist stage half: the cursor is flushed, not fenced; the caller fences before it links the bytes
func (a *Arena) Alloc(n uint64) (nvm.PPtr, error) {
	n = (n + 7) &^ 7
	k, off := a.locate(a.cursor)
	for off+n > a.segCap(k) {
		// The piece does not fit in what is left of this segment; the
		// tail is skipped. A piece larger than a whole segment skips that
		// segment too, without allocating it.
		k, off = k+1, 0
		if k >= vecMaxSegs {
			return 0, fmt.Errorf("pstruct: arena exceeds max capacity")
		}
	}
	if err := a.ensureSeg(k); err != nil {
		return 0, err
	}
	a.cursor = a.segStart(k) + off + n
	a.h.SetU64(a.lenPtr(), a.cursor)
	a.h.Flush(a.lenPtr(), 8)
	return a.seg(k).Add(off), nil
}

// Contains reports whether [p, p+n) lies inside one segment of the arena
// and below the cursor — the bounds check structural walkers apply to
// every pointer into an arena, in place of Heap.CheckBlock.
func (a *Arena) Contains(p nvm.PPtr, n uint64) error {
	if p.IsNil() {
		return fmt.Errorf("nil arena pointer")
	}
	for k := 0; k < vecMaxSegs; k++ {
		seg := a.seg(k)
		if seg.IsNil() || p < seg || uint64(p-seg) >= a.segCap(k) {
			continue
		}
		off := uint64(p - seg)
		if off+n > a.segCap(k) {
			return fmt.Errorf("arena %d: [%d, +%d) overruns segment %d", a.root, p, n, k)
		}
		if a.segStart(k)+off+n > a.cursor {
			return fmt.Errorf("arena %d: [%d, +%d) lies beyond the cursor", a.root, p, n)
		}
		return nil
	}
	return fmt.Errorf("arena %d: pointer %d is in no segment", a.root, p)
}

// ContainsBlob reports whether p refers to a complete blob (see ReadBlob)
// inside the arena: Contains for the length prefix, then for the bytes it
// announces.
func (a *Arena) ContainsBlob(p nvm.PPtr) error {
	if err := a.Contains(p, 4); err != nil {
		return err
	}
	return a.Contains(p, 4+BlobLen(a.h, p))
}

// Check verifies the arena's persistent invariants: a sound directory
// whose linked segments are large enough, and a cursor that ends inside
// a linked segment.
func (a *Arena) Check() error {
	if a.elemSize != 1 {
		return fmt.Errorf("arena %d: element size %d", a.root, a.elemSize)
	}
	cur := a.h.U64(a.lenPtr())
	last := -1
	if cur > 0 {
		last, _ = a.locate(cur - 1)
	}
	// Segments before the last may have been skipped whole by a piece
	// larger than they are; only the one the cursor ends in must exist.
	return a.checkSegs("arena", func(k int) bool { return k == last })
}
