package mvcc

import (
	"fmt"
	"math/bits"
	"sync/atomic"
)

const (
	ownerBaseLog = 10
	ownerMaxSegs = 54
)

// owners is a store's owner vector: the transient TID that write-locks
// each row. It lives in DRAM on every medium — after a restart no
// transaction owns a row, so it starts zero and opening a store costs a
// segment at a time, not a row at a time. Segments double in size, so an
// element never moves: readers index below a length they loaded, without
// a lock, while the single writer appends.
type owners struct {
	length atomic.Uint64
	segs   [ownerMaxSegs]atomic.Pointer[[]uint64]
}

func locateOwner(i uint64) (int, uint64) {
	k := bits.Len64(i>>ownerBaseLog+1) - 1
	return k, i - (uint64(1)<<k-1)<<ownerBaseLog
}

func ownerSegCap(k int) uint64 { return uint64(1) << (ownerBaseLog + k) }

// seg returns segment k, allocating it if it does not exist yet; fresh
// reports whether it was allocated now, and so is zero.
func (o *owners) seg(k int) (s []uint64, fresh bool, err error) {
	if k >= ownerMaxSegs {
		return nil, false, fmt.Errorf("mvcc: owner vector exceeds max capacity")
	}
	if p := o.segs[k].Load(); p != nil {
		return *p, false, nil
	}
	s = make([]uint64, ownerSegCap(k))
	o.segs[k].Store(&s)
	return s, true, nil
}

func (o *owners) at(i uint64) *uint64 {
	if n := o.length.Load(); i >= n {
		panic(fmt.Sprintf("mvcc: owner of row %d out of range %d", i, n))
	}
	k, off := locateOwner(i)
	return &(*o.segs[k].Load())[off]
}

// Len returns the number of rows.
func (o *owners) Len() uint64 { return o.length.Load() }

// Append adds the owner of the next row and returns its index.
func (o *owners) Append(tid uint64) (uint64, error) {
	i := o.length.Load()
	k, off := locateOwner(i)
	s, _, err := o.seg(k)
	if err != nil {
		return 0, err
	}
	atomic.StoreUint64(&s[off], tid)
	o.length.Store(i + 1)
	return i, nil
}

// AppendN adds the owners of len(tids) rows and returns the first index.
func (o *owners) AppendN(tids []uint64) (uint64, error) {
	first := o.length.Load()
	for i := first; len(tids) > 0; {
		k, off := locateOwner(i)
		s, _, err := o.seg(k)
		if err != nil {
			return 0, err
		}
		n := copy(s[off:], tids)
		tids = tids[n:]
		i += uint64(n)
		o.length.Store(i)
	}
	return first, nil
}

// Extend adds unowned rows until there are n. A fresh segment is zero as
// allocated, so extending an empty vector costs a segment at a time.
func (o *owners) Extend(n uint64) error {
	for i := o.length.Load(); i < n; {
		k, off := locateOwner(i)
		s, fresh, err := o.seg(k)
		if err != nil {
			return err
		}
		run := min(ownerSegCap(k)-off, n-i)
		if !fresh {
			// Rows beyond a Truncate keep their old owners.
			clear(s[off : off+run])
		}
		i += run
		o.length.Store(i)
	}
	return nil
}

// Truncate drops the rows at index n and beyond.
func (o *owners) Truncate(n uint64) {
	if l := o.length.Load(); n > l {
		panic(fmt.Sprintf("mvcc: truncate owners to %d beyond length %d", n, l))
	}
	o.length.Store(n)
}

// Get returns the owner of row i.
func (o *owners) Get(i uint64) uint64 { return atomic.LoadUint64(o.at(i)) }

// CompareAndSwap replaces the owner of row i with new if it is old.
func (o *owners) CompareAndSwap(i, old, new uint64) bool {
	return atomic.CompareAndSwapUint64(o.at(i), old, new)
}
