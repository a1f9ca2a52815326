// Package pstruct provides the persistent (NVM-resident) container types
// the Hyrise-NV storage engine is built from: a segmented append-only
// vector, an append arena over the same segment directory, length-prefixed
// blobs, a bit-packed read-optimized vector, a one-block sorted
// dictionary, an extendible hash of 256-byte buckets and persistent
// posting lists.
//
// Every mutation is split in two halves, and neither half fences:
//
//   - the stage half writes the new bytes where nothing can reach them —
//     past a vector's published length, in arena space past every link —
//     and flushes their lines;
//   - the publish half is the one 8-byte store that makes them reachable
//     (a vector's length word, a hash bucket's slot, a posting-list
//     head in a vector element) plus the flush of that word; a bucket
//     split publishes a run of directory entries instead.
//
// The caller fences between the two, so that what a publish word names is
// durable before the word can be, and once after, so that the publication
// is durable when it returns. A caller that stages several structures —
// a table row spans columns, dictionaries, posting lists and MVCC vectors
// — pays those two fences once for all of them (storage.Table.AppendRow).
// The standalone Vector.Append and HashDict.Insert are that same
// composition over one structure: stage, fence, publish, fence.
//
// A crash before the first fence leaves staged bytes that nothing names; a
// crash between the fences may keep any subset of the publish words, each
// naming complete data; both leave every structure valid on its own, and
// the layer above reconciles structures that moved apart (storage's
// restart alignment). Setting up a structure or a segment persists for
// itself, outside the two-fence schedule.
//
// The read side is in place too. The bit-packed vector of a main column
// is bit-sliced — word j of a 64-value segment holds bit width-1-j of
// each of its values (PackBits) — and is never decoded as a whole: a
// scan runs a value-ID range predicate on the planes, 64 values per word
// operation, and ANDs the verdicts into a bitmap (FilterBits), which
// touches at most width/8 bytes per row and writes 1/8 of a byte; asks
// for a block of value IDs, a bit-matrix transpose per segment
// (UnpackBits — GROUP BY and the join need the IDs); or for one value,
// a bit from each of its segment's `width` words (GetBits).
package pstruct

import (
	"fmt"
	"sync/atomic"
	"unsafe"

	"hyrisenv/internal/nvm"
)

// Vector is a persistent, append-only vector of fixed-size elements
// (element sizes 4 and 8 are supported). Storage is segmented, four
// segments to a doubling, so a growing vector never relocates existing
// elements — essential both for lock-free readers and for crash safety.
//
// Appends are single-writer; reads may run concurrently with the writer.
// The length word is only advanced after the new elements are persisted,
// so a crash can never expose uninitialized data.
type Vector struct {
	segDir
	// staged counts the elements written so far, published or not: the
	// stage half appends at it, the publish half stores it in the length
	// word. Only the writer touches it.
	staged uint64
	// set is an overwrite of a published element staged by StageSet, for
	// the publish half to store.
	set struct {
		i, val uint64
		ok     bool
	}
}

// NewVector allocates a persistent vector with the given element size
// (4 or 8) and a first-segment capacity of 1<<baseLog elements.
// The returned vector's root pointer must be linked into a reachable
// structure by the caller.
func NewVector(h *nvm.Heap, elemSize uint64, baseLog uint64) (*Vector, error) {
	if elemSize != 4 && elemSize != 8 {
		return nil, fmt.Errorf("pstruct: unsupported element size %d", elemSize)
	}
	root, err := newSegRoot(h, elemSize, baseLog)
	if err != nil {
		return nil, err
	}
	return &Vector{segDir: segDir{h: h, root: root, elemSize: elemSize, baseLog: baseLog}}, nil
}

// AttachVector re-hydrates a Vector from its persistent root after a
// restart. It performs O(#segments) = O(log capacity) work.
func AttachVector(h *nvm.Heap, root nvm.PPtr) *Vector {
	v := &Vector{segDir: segDir{h: h, root: root}}
	v.attach()
	v.staged = v.Len()
	return v
}

// Len returns the number of committed (persisted) elements.
func (v *Vector) Len() uint64 { return v.h.U64(v.lenPtr()) }

// StageAppend is the stage half of Append: it writes val (truncated to
// the element size) past the published length and flushes its line.
// Nothing reachable changes until Publish. It returns the index the
// element will have.
//
//nvm:nopersist stage half: the element is flushed, not fenced; the caller fences before Publish
func (v *Vector) StageAppend(val uint64) (uint64, error) {
	i := v.staged
	k, off := v.locate(i)
	if err := v.ensureSeg(k); err != nil {
		return 0, err
	}
	v.putElems(v.seg(k).Add(off*v.elemSize), val)
	v.staged = i + 1
	return i, nil
}

// StageSet stages an overwrite of published element i with val, for a
// word whose new value names what the caller staged elsewhere (a
// posting-list head). The store itself is the publish half.
func (v *Vector) StageSet(i, val uint64) {
	v.set.i, v.set.val, v.set.ok = i, val, true
}

// Publish is the publish half of Append and StageSet: one store of the
// length word makes every staged element reachable, one store overwrites
// the element StageSet named, and each line is flushed. The caller has
// fenced since the stage half, and fences again before it reports the
// mutation done.
//
//nvm:nopersist publish half: the words are flushed, not fenced; the caller's second fence covers them
func (v *Vector) Publish() {
	if v.staged != v.Len() {
		v.h.SetU64(v.lenPtr(), v.staged)
		v.h.Flush(v.lenPtr(), 8)
	}
	if v.set.ok {
		p := v.elemPtr(v.set.i)
		v.writeElem(p, v.set.val)
		v.h.Flush(p, v.elemSize)
		v.set.ok = false
	}
}

// Unstage forgets what was staged since the last Publish; the next
// StageAppend overwrites the elements.
func (v *Vector) Unstage() {
	v.staged = v.Len()
	v.set.ok = false
}

// Append appends one element and returns its index: stage, fence,
// publish, fence.
func (v *Vector) Append(val uint64) (uint64, error) {
	i, err := v.StageAppend(val)
	if err != nil {
		return 0, err
	}
	v.h.Fence()
	v.Publish()
	v.h.Fence()
	return i, nil
}

// brokenSkipElemPersist, when set, makes the stage half flush nothing
// (see putElems), so that Publish advances the length over an element
// that is still dirty — a deliberately broken protocol. Crash tests use it to
// demonstrate detection power: the optimistic crash model cannot tell the
// difference (every store survives anyway), while the pessimistic shadow
// model loses the unpersisted element and the fsck/verification pass
// catches the corruption. Never set outside tests.
var brokenSkipElemPersist atomic.Bool

// SetBrokenSkipElemPersist toggles the deliberately broken append
// protocol. Test hook only.
func SetBrokenSkipElemPersist(on bool) { brokenSkipElemPersist.Store(on) }

// AppendN appends vals — staged with one flush per touched segment,
// published with a single length advance — the bulk-load fast path.
func (v *Vector) AppendN(vals []uint64) (first uint64, err error) {
	first = v.staged
	if len(vals) == 0 {
		return first, nil
	}
	// Every segment is linked before the first element is written.
	lastSeg, _ := v.locate(first + uint64(len(vals)) - 1)
	for k, _ := v.locate(first); k <= lastSeg; k++ {
		if err := v.ensureSeg(k); err != nil {
			return 0, err
		}
	}
	for i := first; len(vals) > 0; {
		k, off := v.locate(i)
		n := min(v.segCap(k)-off, uint64(len(vals)))
		v.putElems(v.seg(k).Add(off*v.elemSize), vals[:n]...)
		vals = vals[n:]
		i += n
		v.staged = i
	}
	v.h.Fence()
	v.Publish()
	v.h.Fence()
	return first, nil
}

func (v *Vector) writeElem(p nvm.PPtr, val uint64) {
	if v.elemSize == 8 {
		v.h.SetU64(p, val)
	} else {
		v.h.PutU32(p, uint32(val))
	}
}

// Get returns the element at index i. It panics when i is out of range.
func (v *Vector) Get(i uint64) uint64 {
	if i >= v.Len() {
		panic(fmt.Sprintf("pstruct: vector index %d out of range %d", i, v.Len()))
	}
	return v.getNoCheck(i)
}

// Staged returns the element stored at index i whether or not the length
// covers it — what a stage half wrote before a crash cut it off from its
// publish half, for recovery to inspect. ok is false when i's segment was
// never linked; a slot never written reads zero.
func (v *Vector) Staged(i uint64) (val uint64, ok bool) {
	if k, _ := v.locate(i); k >= vecMaxSegs || v.seg(k).IsNil() {
		return 0, false
	}
	return v.getNoCheck(i), true
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
	return v.seg(k).Add(off * v.elemSize), n
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

// Load copies elements [lo, lo+len(dst)) into dst, a run per segment —
// the bulk form of Get for 4-byte elements, as Span is for 8-byte ones.
func (v *Vector) Load(lo uint64, dst []uint32) {
	if v.elemSize != 4 {
		panic(fmt.Sprintf("pstruct: load of a vector of %d-byte elements", v.elemSize))
	}
	for len(dst) > 0 {
		start, n := v.run(lo, lo+uint64(len(dst)))
		// The run is 4-byte aligned and its elements little-endian, the
		// byte order Heap.Words already takes for 8-byte ones, so it is
		// copied as it lies.
		copy(dst[:n], unsafe.Slice((*uint32)(unsafe.Pointer(unsafe.SliceData(v.h.Bytes(start, n*4)))), n))
		dst = dst[n:]
		lo += n
	}
}

// SetNoPersist overwrites element i without a persist barrier; callers
// batch a group of stamps and call PersistRange once (group commit).
// The annotation waives the publishcheck obligation: the segment is
// already published, so the dirty element is visible to recovery until
// the caller's batched persist lands.
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
	v.h.SetU64(v.lenPtr(), n)
	v.h.Persist(v.lenPtr(), 8)
	v.staged = n
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
		base := v.seg(k).Add(off * v.elemSize)
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
