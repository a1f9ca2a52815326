package pstruct

import (
	"errors"
	"fmt"
	"math/bits"
	"sync/atomic"

	"hyrisenv/internal/nvm"
)

const (
	vecMaxSegs = 56
	// vecRootSize: elemSize, length, baseLog, reserved + seg pointers.
	vecRootSize = 8 * (8 + vecMaxSegs)

	vecOffElemSize = 0
	vecOffLength   = 8
	vecOffBaseLog  = 16
	vecOffSegs     = 64
)

// segDir is the persistent segment directory under Vector and Arena: a
// root block holding an element size, a length word and the pointers of
// segments that double in size, so that growing never moves what is
// already stored and attaching costs O(log capacity). Segment k holds
// base<<k elements; the capacity before it is base*(2^k - 1).
//
// The length word is the only thing a reader or recovery trusts: nothing
// at or beyond it is reachable. A segment is allocated and durably
// linked (ensureSeg persists for itself) before anything is written into
// it.
type segDir struct {
	h        *nvm.Heap
	root     nvm.PPtr
	elemSize uint64
	baseLog  uint64
	// segs mirrors the persistent segment pointers to avoid re-reading
	// NVM on every access; it is re-hydrated on attach. The writer links
	// a segment before it publishes a length that reaches into it, and
	// readers index only below a length they have loaded, so the length
	// word orders the two. That word lives in the mapping, where the race
	// detector does not follow synchronisation, so the mirror is atomic.
	segs [vecMaxSegs]atomic.Uint64
}

// newSegRoot allocates and persists the root of an empty directory. The
// caller builds the directory by composite literal over it: stored
// through a receiver instead, the root would be a fresh, unpublished
// block to publishcheck, which then misses a publish that outruns its
// stage fence in Vector.Append and AppendN (make analyzer-mutants).
func newSegRoot(h *nvm.Heap, elemSize, baseLog uint64) (nvm.PPtr, error) {
	if baseLog == 0 || baseLog > 30 {
		return 0, fmt.Errorf("pstruct: bad baseLog %d", baseLog)
	}
	root, err := h.Alloc(vecRootSize)
	if err != nil {
		return 0, err
	}
	h.PutU64(root.Add(vecOffElemSize), elemSize)
	h.PutU64(root.Add(vecOffLength), 0)
	h.PutU64(root.Add(vecOffBaseLog), baseLog)
	for i := 0; i < vecMaxSegs; i++ {
		h.PutU64(root.Add(vecOffSegs+uint64(i)*8), 0)
	}
	h.Persist(root, vecRootSize)
	return root, nil
}

// attach re-hydrates the directory whose heap and root are set, in
// O(#segments).
func (d *segDir) attach() {
	d.elemSize = d.h.GetU64(d.root.Add(vecOffElemSize))
	d.baseLog = d.h.GetU64(d.root.Add(vecOffBaseLog))
	for i := range d.segs {
		d.segs[i].Store(d.h.GetU64(d.root.Add(vecOffSegs + uint64(i)*8)))
	}
}

// Root returns the persistent root pointer.
func (d *segDir) Root() nvm.PPtr { return d.root }

func (d *segDir) lenPtr() nvm.PPtr { return d.root.Add(vecOffLength) }

// locate maps a logical index to (segment, offset-within-segment).
func (d *segDir) locate(i uint64) (seg int, off uint64) {
	base := uint64(1) << d.baseLog
	k := bits.Len64(i/base+1) - 1
	before := base * ((uint64(1) << k) - 1)
	return k, i - before
}

func (d *segDir) segCap(k int) uint64 { return (uint64(1) << d.baseLog) << k }

// segStart is the logical index of the first element of segment k.
func (d *segDir) segStart(k int) uint64 {
	return (uint64(1) << d.baseLog) * ((uint64(1) << k) - 1)
}

// ensureSeg makes segment k exist, allocating and durably linking it.
func (d *segDir) ensureSeg(k int) error {
	if k >= vecMaxSegs {
		return fmt.Errorf("pstruct: segment directory exceeds max capacity")
	}
	if d.seg(k) != 0 {
		return nil
	}
	seg, err := d.h.Alloc(d.segCap(k) * d.elemSize)
	if err != nil {
		return err
	}
	slot := d.root.Add(vecOffSegs + uint64(k)*8)
	d.h.SetU64(slot, uint64(seg))
	d.h.Persist(slot, 8)
	d.segs[k].Store(uint64(seg))
	return nil
}

// seg returns the pointer of segment k, nil if it is not linked.
func (d *segDir) seg(k int) nvm.PPtr { return nvm.PPtr(d.segs[k].Load()) }

func (d *segDir) elemPtr(i uint64) nvm.PPtr {
	k, off := d.locate(i)
	return d.seg(k).Add(off * d.elemSize)
}

// Blocks yields the heap blocks the directory owns (its root and every
// segment), for reachability-based scavenging. It reads the persistent
// segment pointers directly so stale in-memory mirrors cannot hide a
// block.
func (d *segDir) Blocks(yield func(nvm.PPtr)) {
	yield(d.root)
	for i := 0; i < vecMaxSegs; i++ {
		if s := nvm.PPtr(d.h.GetU64(d.root.Add(vecOffSegs + uint64(i)*8))); !s.IsNil() {
			yield(s)
		}
	}
}

// checkSegs verifies the root block, the base and every linked segment's
// block. need reports whether a length of n requires segment k to exist.
func (d *segDir) checkSegs(what string, need func(k int) bool) error {
	var errs []error
	if d.baseLog == 0 || d.baseLog > 30 {
		errs = append(errs, fmt.Errorf("%s %d: invalid baseLog %d", what, d.root, d.baseLog))
	}
	if err := d.h.CheckBlock(d.root, vecRootSize); err != nil {
		errs = append(errs, fmt.Errorf("%s %d: root: %w", what, d.root, err))
	}
	if len(errs) > 0 {
		return errors.Join(errs...)
	}
	for k := 0; k < vecMaxSegs; k++ {
		seg := nvm.PPtr(d.h.GetU64(d.root.Add(vecOffSegs + uint64(k)*8)))
		if seg.IsNil() {
			if need(k) {
				errs = append(errs, fmt.Errorf("%s %d: length %d needs segment %d, which is nil",
					what, d.root, d.h.U64(d.lenPtr()), k))
			}
			continue
		}
		if err := d.h.CheckBlock(seg, d.segCap(k)*d.elemSize); err != nil {
			errs = append(errs, fmt.Errorf("%s %d: segment %d: %w", what, d.root, k, err))
		}
	}
	return errors.Join(errs...)
}
