// Package vec abstracts the growable integer vectors the storage engine
// is built from, so the same column and MVCC code can run on a volatile
// DRAM backend (the log-based baseline) or on the persistent NVM backend
// (Hyrise-NV). The NVM implementation is pstruct.Vector; this package
// provides the interface and the volatile twin.
package vec

import (
	"fmt"
	"math/bits"
	"sync/atomic"
)

// Vec is a growable vector of unsigned integers with single-writer,
// multi-reader semantics. The persistence-related methods (Set vs
// SetNoPersist/PersistAt) are meaningful on the NVM implementation and
// cheap no-ops on the volatile one.
//
// *pstruct.Vector satisfies Vec.
type Vec interface {
	Len() uint64
	Append(v uint64) (uint64, error)
	// StageAppend and Publish are the two halves of Append: the first
	// writes an element past the published length, the second makes every
	// staged element reachable. On NVM the caller fences between and
	// after them, once for all the vectors of a batch (see package
	// pstruct). Unstage forgets what was staged and not published.
	StageAppend(v uint64) (uint64, error)
	Publish()
	Unstage()
	AppendN(vs []uint64) (uint64, error)
	Get(i uint64) uint64
	// Span returns the elements from lo up to hi or the end of lo's
	// segment, whichever comes first, as a slice aliasing the vector:
	// the bulk form of Get. A caller covers [lo, hi) run by run and
	// reads each element with an atomic load, as Get does. It panics
	// when hi exceeds Len.
	Span(lo, hi uint64) []uint64
	Set(i uint64, v uint64)
	SetNoPersist(i uint64, v uint64)
	PersistAt(i uint64)
	// FlushAt flushes element i's cache line without a fence; the caller
	// fences once for a whole batch (persist-group commit).
	FlushAt(i uint64)
	Scan(fn func(i uint64, v uint64) bool)
	// Truncate drops elements at index >= n (n must not exceed Len).
	// Recovery uses it to discard torn appends.
	Truncate(n uint64)
}

const volMaxSegs = 56

// Volatile is the DRAM implementation of Vec: segmented storage with
// doubling segments, so element addresses are stable and readers may run
// concurrently with the single writer (the length word is the
// happens-before edge, as in the NVM twin).
type Volatile struct {
	baseLog uint64
	length  atomic.Uint64
	staged  uint64 // elements written, published or not; the writer's
	segs    [volMaxSegs]atomic.Pointer[[]uint64]
}

// NewVolatile returns an empty volatile vector whose first segment holds
// 1<<baseLog elements.
func NewVolatile(baseLog uint64) *Volatile {
	if baseLog == 0 {
		baseLog = 10
	}
	return &Volatile{baseLog: baseLog}
}

var _ Vec = (*Volatile)(nil)

func (v *Volatile) locate(i uint64) (int, uint64) {
	base := uint64(1) << v.baseLog
	k := bits.Len64(i/base+1) - 1
	before := base * ((uint64(1) << k) - 1)
	return k, i - before
}

func (v *Volatile) segCap(k int) uint64 { return (uint64(1) << v.baseLog) << k }

func (v *Volatile) ensureSeg(k int) error {
	if v.segs[k].Load() != nil {
		return nil
	}
	if k >= volMaxSegs {
		return fmt.Errorf("vec: vector exceeds max capacity")
	}
	s := make([]uint64, v.segCap(k))
	v.segs[k].Store(&s)
	return nil
}

// Len returns the number of published elements.
func (v *Volatile) Len() uint64 { return v.length.Load() }

// StageAppend implements Vec.
func (v *Volatile) StageAppend(val uint64) (uint64, error) {
	i := v.staged
	k, off := v.locate(i)
	if err := v.ensureSeg(k); err != nil {
		return 0, err
	}
	(*v.segs[k].Load())[off] = val
	v.staged = i + 1
	return i, nil
}

// Publish implements Vec.
func (v *Volatile) Publish() { v.length.Store(v.staged) }

// Unstage implements Vec.
func (v *Volatile) Unstage() { v.staged = v.length.Load() }

// Append appends one element and returns its index.
func (v *Volatile) Append(val uint64) (uint64, error) {
	i, err := v.StageAppend(val)
	if err == nil {
		v.Publish()
	}
	return i, err
}

// AppendN appends vals and returns the index of the first.
func (v *Volatile) AppendN(vals []uint64) (uint64, error) {
	first := v.length.Load()
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
		copy((*v.segs[k].Load())[off:off+n], rem[:n])
		rem = rem[n:]
		i += n
	}
	v.staged = i
	v.Publish()
	return first, nil
}

// Extend appends zero elements until the vector holds n. A fresh segment
// is zero as allocated, so a vector that starts empty is extended at a
// cost per segment, not per element.
func (v *Volatile) Extend(n uint64) error {
	i := v.length.Load()
	if n <= i {
		return nil
	}
	for i < n {
		k, off := v.locate(i)
		reused := v.segs[k].Load() != nil
		if err := v.ensureSeg(k); err != nil {
			return err
		}
		run := min(v.segCap(k)-off, n-i)
		if reused {
			// Elements beyond a Truncate keep their old values.
			clear((*v.segs[k].Load())[off : off+run])
		}
		i += run
	}
	v.staged = n
	v.Publish()
	return nil
}

// Span implements Vec.
func (v *Volatile) Span(lo, hi uint64) []uint64 {
	if n := v.Len(); lo > hi || hi > n {
		panic(fmt.Sprintf("vec: range [%d, %d) out of range %d", lo, hi, n))
	}
	if lo == hi {
		return nil
	}
	k, off := v.locate(lo)
	return (*v.segs[k].Load())[off:min(off+hi-lo, v.segCap(k))]
}

// Load copies elements [lo, lo+len(dst)) into dst, a run per segment.
func (v *Volatile) Load(lo uint64, dst []uint64) {
	for hi := lo + uint64(len(dst)); lo < hi; {
		run := v.Span(lo, hi)
		for i := range run {
			dst[i] = atomic.LoadUint64(&run[i])
		}
		dst = dst[len(run):]
		lo += uint64(len(run))
	}
}

// Get returns element i; it panics when i is out of range.
func (v *Volatile) Get(i uint64) uint64 {
	if i >= v.Len() {
		panic(fmt.Sprintf("vec: index %d out of range %d", i, v.Len()))
	}
	k, off := v.locate(i)
	return atomic.LoadUint64(&(*v.segs[k].Load())[off])
}

// Set overwrites element i.
func (v *Volatile) Set(i uint64, val uint64) {
	if i >= v.Len() {
		panic(fmt.Sprintf("vec: index %d out of range %d", i, v.Len()))
	}
	k, off := v.locate(i)
	atomic.StoreUint64(&(*v.segs[k].Load())[off], val)
}

// SetNoPersist is identical to Set on the volatile backend.
func (v *Volatile) SetNoPersist(i uint64, val uint64) { v.Set(i, val) }

// CompareAndSwap atomically replaces element i if it equals old. The MVCC
// layer uses this to claim rows for invalidation (write locks).
func (v *Volatile) CompareAndSwap(i uint64, old, new uint64) bool {
	if i >= v.Len() {
		panic(fmt.Sprintf("vec: index %d out of range %d", i, v.Len()))
	}
	k, off := v.locate(i)
	return atomic.CompareAndSwapUint64(&(*v.segs[k].Load())[off], old, new)
}

// PersistAt is a no-op on the volatile backend.
func (v *Volatile) PersistAt(uint64) {}

// FlushAt is a no-op on the volatile backend.
func (v *Volatile) FlushAt(uint64) {}

// Truncate drops elements at index >= n.
func (v *Volatile) Truncate(n uint64) {
	if n > v.Len() {
		panic(fmt.Sprintf("vec: truncate %d beyond length %d", n, v.Len()))
	}
	v.staged = n
	v.Publish()
}

// Scan calls fn for each element in [0, Len()).
func (v *Volatile) Scan(fn func(i uint64, val uint64) bool) {
	n := v.Len()
	for i := uint64(0); i < n; {
		k, off := v.locate(i)
		seg := *v.segs[k].Load()
		segN := v.segCap(k) - off
		if segN > n-i {
			segN = n - i
		}
		for j := uint64(0); j < segN; j++ {
			if !fn(i, atomic.LoadUint64(&seg[off+j])) {
				return
			}
			i++
		}
	}
}
