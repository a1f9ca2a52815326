// Package pstruct provides the persistent (NVM-resident) container types
// the Hyrise-NV storage engine is built from: a segmented append-only
// vector, length-prefixed blobs, a bit-packed read-optimized vector, a
// multi-version skip list and persistent posting lists.
//
// All containers follow the same crash-consistency discipline: newly
// allocated memory is fully initialized and persisted *before* the single
// pointer (or length word) that makes it reachable is persisted. A crash
// therefore either exposes the old state or the complete new state.
package pstruct

import (
	"encoding/binary"
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

// Vector is a persistent, append-only vector of fixed-size elements
// (element sizes 4 and 8 are supported). Storage is segmented with
// doubling segment sizes, so a growing vector never relocates existing
// elements — essential both for lock-free readers and for crash safety.
//
// Appends are single-writer; reads may run concurrently with the writer.
// The length word is only advanced after the new elements are persisted,
// so a crash can never expose uninitialized data.
type Vector struct {
	h        *nvm.Heap
	root     nvm.PPtr
	elemSize uint64
	baseLog  uint64
	// segs mirrors the persistent segment pointers to avoid re-reading
	// NVM on every access; it is re-hydrated on Attach. The writer links
	// a segment before it publishes a length that reaches into it, and
	// readers index only below a length they have loaded, so the length
	// word orders the two. (The race detector does not follow
	// synchronisation through mapped memory and reports them as a race.)
	segs [vecMaxSegs]nvm.PPtr
}

// NewVector allocates a persistent vector with the given element size
// (4 or 8) and a first-segment capacity of 1<<baseLog elements.
// The returned vector's root pointer must be linked into a reachable
// structure by the caller.
func NewVector(h *nvm.Heap, elemSize uint64, baseLog uint64) (*Vector, error) {
	if elemSize != 4 && elemSize != 8 {
		return nil, fmt.Errorf("pstruct: unsupported element size %d", elemSize)
	}
	if baseLog == 0 || baseLog > 30 {
		return nil, fmt.Errorf("pstruct: bad baseLog %d", baseLog)
	}
	root, err := h.Alloc(vecRootSize)
	if err != nil {
		return nil, err
	}
	h.PutU64(root.Add(vecOffElemSize), elemSize)
	h.PutU64(root.Add(vecOffLength), 0)
	h.PutU64(root.Add(vecOffBaseLog), baseLog)
	for i := 0; i < vecMaxSegs; i++ {
		h.PutU64(root.Add(vecOffSegs+uint64(i)*8), 0)
	}
	h.Persist(root, vecRootSize)
	return &Vector{h: h, root: root, elemSize: elemSize, baseLog: baseLog}, nil
}

// AttachVector re-hydrates a Vector from its persistent root after a
// restart. It performs O(#segments) = O(log capacity) work.
func AttachVector(h *nvm.Heap, root nvm.PPtr) *Vector {
	v := &Vector{
		h:        h,
		root:     root,
		elemSize: h.GetU64(root.Add(vecOffElemSize)),
		baseLog:  h.GetU64(root.Add(vecOffBaseLog)),
	}
	for i := 0; i < vecMaxSegs; i++ {
		v.segs[i] = nvm.PPtr(h.GetU64(root.Add(vecOffSegs + uint64(i)*8)))
	}
	return v
}

// Root returns the persistent root pointer of the vector.
func (v *Vector) Root() nvm.PPtr { return v.root }

// Len returns the number of committed (persisted) elements.
func (v *Vector) Len() uint64 { return v.h.U64(v.root.Add(vecOffLength)) }

// locate maps a logical index to (segment, offset-within-segment).
// Segment k holds base<<k elements; cumulative capacity before segment k
// is base*(2^k - 1).
func (v *Vector) locate(i uint64) (seg int, off uint64) {
	base := uint64(1) << v.baseLog
	k := bits.Len64(i/base+1) - 1
	before := base * ((uint64(1) << k) - 1)
	return k, i - before
}

func (v *Vector) segCap(k int) uint64 { return (uint64(1) << v.baseLog) << k }

// ensureSeg makes segment k exist, allocating and durably linking it.
func (v *Vector) ensureSeg(k int) error {
	if v.segs[k] != 0 {
		return nil
	}
	if k >= vecMaxSegs {
		return fmt.Errorf("pstruct: vector exceeds max capacity")
	}
	seg, err := v.h.Alloc(v.segCap(k) * v.elemSize)
	if err != nil {
		return err
	}
	slot := v.root.Add(vecOffSegs + uint64(k)*8)
	v.h.SetU64(slot, uint64(seg))
	v.h.Persist(slot, 8)
	v.segs[k] = seg
	return nil
}

func (v *Vector) elemPtr(i uint64) nvm.PPtr {
	k, off := v.locate(i)
	return v.segs[k].Add(off * v.elemSize)
}

// Append appends one element (value truncated to the element size) and
// persists it, then durably advances the length. Returns the index.
func (v *Vector) Append(val uint64) (uint64, error) {
	i := v.Len()
	k, off := v.locate(i)
	if err := v.ensureSeg(k); err != nil {
		return 0, err
	}
	p := v.segs[k].Add(off * v.elemSize)
	v.writeElem(p, val)
	if brokenSkipElemPersist.Load() {
		// Advancing the length publishes the element region to
		// recovery with the element still dirty — exactly the ordering
		// bug publishcheck exists to flag, kept on purpose as the
		// detection-power hook for the pessimistic crash model.
		//nvmcheck:ignore publishcheck deliberately broken protocol, see brokenSkipElemPersist
		v.setLen(i + 1)
		return i, nil
	}
	v.h.Persist(p, v.elemSize) // elem persist (crosscheck removes this line)
	v.setLen(i + 1)
	return i, nil
}

// brokenSkipElemPersist, when set, makes Append skip the element persist
// before advancing the length — a deliberately broken protocol. Crash
// tests use it to demonstrate detection power: the optimistic crash
// model cannot tell the difference (every store survives anyway), while
// the pessimistic shadow model loses the unpersisted element and the
// fsck/verification pass catches the corruption. Never set outside
// tests.
var brokenSkipElemPersist atomic.Bool

// SetBrokenSkipElemPersist toggles the deliberately broken append
// protocol. Test hook only.
func SetBrokenSkipElemPersist(on bool) { brokenSkipElemPersist.Store(on) }

// AppendN appends vals with one persist per touched region and a single
// length advance — the bulk-load fast path.
func (v *Vector) AppendN(vals []uint64) (first uint64, err error) {
	first = v.Len()
	i := first
	rem := vals
	for len(rem) > 0 {
		k, off := v.locate(i)
		if err := v.ensureSeg(k); err != nil {
			return 0, err
		}
		n := v.segCap(k) - off
		if n > uint64(len(rem)) {
			n = uint64(len(rem))
		}
		start := v.segs[k].Add(off * v.elemSize)
		for j := uint64(0); j < n; j++ {
			v.writeElem(start.Add(j*v.elemSize), rem[j])
		}
		v.h.Persist(start, n*v.elemSize)
		rem = rem[n:]
		i += n
	}
	v.setLen(i)
	return first, nil
}

// writeElem stores one element at p without a barrier; Append/AppendN
// persist the written span once per segment before advancing the
// length, which persistcheck v2 verifies through the callgraph — no
// annotation needed.
func (v *Vector) writeElem(p nvm.PPtr, val uint64) {
	if v.elemSize == 8 {
		v.h.SetU64(p, val)
	} else {
		v.h.PutU32(p, uint32(val))
	}
}

func (v *Vector) setLen(n uint64) {
	lp := v.root.Add(vecOffLength)
	v.h.SetU64(lp, n)
	v.h.Persist(lp, 8)
}

// Get returns the element at index i. It panics when i is out of range.
func (v *Vector) Get(i uint64) uint64 {
	if i >= v.Len() {
		panic(fmt.Sprintf("pstruct: vector index %d out of range %d", i, v.Len()))
	}
	return v.getNoCheck(i)
}

func (v *Vector) getNoCheck(i uint64) uint64 {
	p := v.elemPtr(i)
	if v.elemSize == 8 {
		return v.h.U64(p)
	}
	return uint64(v.h.GetU32(p))
}

// run locates the elements from lo up to hi or the end of lo's segment,
// whichever comes first — one contiguous stretch of NVM — and charges
// the read model for it. It panics when hi exceeds Len.
func (v *Vector) run(lo, hi uint64) (start nvm.PPtr, n uint64) {
	if end := v.Len(); lo > hi || hi > end {
		panic(fmt.Sprintf("pstruct: vector range [%d, %d) out of range %d", lo, hi, end))
	}
	k, off := v.locate(lo)
	n = min(hi-lo, v.segCap(k)-off)
	if v.h.ReadLatencyEnabled() {
		v.h.ChargeRead(n * v.elemSize)
	}
	return v.segs[k].Add(off * v.elemSize), n
}

// Span returns the elements from lo up to hi or the end of lo's
// segment as a slice aliasing NVM — the bulk form of Get for 8-byte
// elements, which the caller reads with atomic loads.
func (v *Vector) Span(lo, hi uint64) []uint64 {
	if v.elemSize != 8 {
		panic(fmt.Sprintf("pstruct: span of a vector of %d-byte elements", v.elemSize))
	}
	return v.h.Words(v.run(lo, hi))
}

// Load copies elements [lo, lo+len(dst)) into dst, a run per segment.
func (v *Vector) Load(lo uint64, dst []uint64) {
	for len(dst) > 0 {
		start, n := v.run(lo, lo+uint64(len(dst)))
		if v.elemSize == 8 {
			words := v.h.Words(start, n)
			for i := range words {
				dst[i] = atomic.LoadUint64(&words[i])
			}
		} else {
			b := v.h.Bytes(start, n*4)
			for i := range dst[:n] {
				dst[i] = uint64(binary.LittleEndian.Uint32(b[i*4:]))
			}
		}
		dst = dst[n:]
		lo += n
	}
}

// Set overwrites element i in place and persists it. Used by MVCC commit
// stamping, where an 8-byte store is the atomic unit of update.
func (v *Vector) Set(i uint64, val uint64) {
	if i >= v.Len() {
		panic(fmt.Sprintf("pstruct: vector index %d out of range %d", i, v.Len()))
	}
	p := v.elemPtr(i)
	v.writeElem(p, val)
	v.h.Persist(p, v.elemSize)
}

// SetNoPersist overwrites element i without a persist barrier; callers
// batch a group of stamps and call PersistRange once (group commit).
// The annotation waives both the persistcheck obligation (unpersisted
// NVM write at return) and the publishcheck one (the segment is already
// published, so the dirty element is visible to recovery until the
// caller's batched persist lands).
//
//nvm:nopersist deferred durability is the contract; callers batch and PersistRange once
func (v *Vector) SetNoPersist(i uint64, val uint64) {
	if i >= v.Len() {
		panic(fmt.Sprintf("pstruct: vector index %d out of range %d", i, v.Len()))
	}
	v.writeElem(v.elemPtr(i), val)
}

// PersistAt persists the single element at index i.
func (v *Vector) PersistAt(i uint64) {
	v.h.Persist(v.elemPtr(i), v.elemSize)
}

// FlushAt flushes the single element at index i without fencing. The
// element is durable only after the caller's next Fence; group commit
// flushes a whole batch of stamps and fences once.
func (v *Vector) FlushAt(i uint64) {
	v.h.Flush(v.elemPtr(i), v.elemSize)
}

// Truncate durably drops elements at index >= n.
func (v *Vector) Truncate(n uint64) {
	if n > v.Len() {
		panic(fmt.Sprintf("pstruct: truncate %d beyond length %d", n, v.Len()))
	}
	v.setLen(n)
}

// Scan calls fn for each element in [0, Len()). Iteration is segment-wise
// and therefore cache-friendly.
func (v *Vector) Scan(fn func(i uint64, val uint64) bool) {
	n := v.Len()
	for i := uint64(0); i < n; {
		k, off := v.locate(i)
		segN := v.segCap(k) - off
		if segN > n-i {
			segN = n - i
		}
		base := v.segs[k].Add(off * v.elemSize)
		if v.h.ReadLatencyEnabled() {
			v.h.ChargeRead(segN * v.elemSize)
		}
		for j := uint64(0); j < segN; j++ {
			var val uint64
			if v.elemSize == 8 {
				val = v.h.U64(base.Add(j * 8))
			} else {
				val = uint64(v.h.GetU32(base.Add(j * 4)))
			}
			if !fn(i, val) {
				return
			}
			i++
		}
	}
}

// Blocks yields the heap blocks owned by the vector (its root and every
// segment), for reachability-based scavenging. It reads the persistent
// segment pointers directly so stale in-memory mirrors cannot hide a
// block.
func (v *Vector) Blocks(yield func(nvm.PPtr)) {
	yield(v.root)
	for i := 0; i < vecMaxSegs; i++ {
		if s := nvm.PPtr(v.h.GetU64(v.root.Add(vecOffSegs + uint64(i)*8))); !s.IsNil() {
			yield(s)
		}
	}
}
