// Package mvcc implements the insert-only multi-version concurrency
// control of Hyrise: every row carries a begin and an end commit ID (CID)
// plus a transient transaction ID (TID) used as a row write-lock.
//
// A row is visible to a snapshot at CID s when begin <= s < end. Inserts
// append rows with begin = Inf (invisible); updates insert a new version
// and stamp the old row's end; both stamps are written at commit time with
// the committing transaction's CID.
//
// On the NVM backend the begin/end vectors live in non-volatile memory and
// are the *only* durable truth about transaction outcomes: a transaction
// is durably committed exactly when its row stamps are persisted and the
// global last-committed CID has been advanced past its CID (see package
// txn for the commit protocol). The TID vector is always volatile — after
// a restart no transaction owns any row, which is precisely correct.
package mvcc

import (
	"errors"
	"fmt"
	"sync/atomic"

	"hyrisenv/internal/vec"
)

// Inf is the CID meaning "never": rows with begin = Inf are uncommitted
// inserts, rows with end = Inf have not been invalidated.
const Inf = ^uint64(0)

// Store holds the MVCC vectors for one row region (main or delta
// partition of a table).
type Store struct {
	begin vec.Vec       // persistent on NVM backend
	end   vec.Vec       // persistent on NVM backend
	tid   *vec.Volatile // always volatile (row write locks)
}

// NewStore wraps begin/end vectors (backend-specific) into a Store.
// Both vectors must have equal lengths. Every row starts unowned: the
// owner vector is zero-extended segment by segment, not row by row.
func NewStore(begin, end vec.Vec) *Store {
	s := &Store{begin: begin, end: end, tid: vec.NewVolatile(10)}
	if err := s.tid.Extend(begin.Len()); err != nil {
		panic(fmt.Sprintf("mvcc: %d rows: %v", begin.Len(), err)) // beyond any vector's capacity
	}
	return s
}

// Rows returns the number of rows tracked. When the begin and end vectors
// disagree (a torn append after a crash), the shorter prefix governs.
func (s *Store) Rows() uint64 {
	b, e := s.begin.Len(), s.end.Len()
	if e < b {
		return e
	}
	return b
}

// BeginVec exposes the underlying begin-CID vector (recovery fixups).
func (s *Store) BeginVec() vec.Vec { return s.begin }

// EndVec exposes the underlying end-CID vector (recovery fixups).
func (s *Store) EndVec() vec.Vec { return s.end }

// AppendRow adds MVCC state for a freshly inserted row: begin = Inf
// (invisible), end = Inf, tid = owner. It returns the row index.
//
// Concurrent readers bound their row range by Rows() and Visible reads
// the owner of any row below it, so tid is published before begin/end
// make the row countable. A failed append is unwound, keeping the three
// vectors the same length for the next one.
func (s *Store) AppendRow(owner uint64) (uint64, error) {
	row, err := s.tid.Append(owner)
	if err != nil {
		return 0, err
	}
	if _, err := s.begin.Append(Inf); err != nil {
		s.tid.Truncate(row)
		return 0, err
	}
	if _, err := s.end.Append(Inf); err != nil {
		s.begin.Truncate(row)
		s.tid.Truncate(row)
		return 0, err
	}
	return row, nil
}

// StageRow is the stage half of AppendRow for a caller that appends a
// row across several structures under two fences of its own (see
// storage.Table.AppendRow): it writes begin = end = Inf past the
// vectors' published lengths and records the owner. The row does not
// count until PublishRow. tid runs ahead of begin and end, which is the
// order readers need.
func (s *Store) StageRow(owner uint64) (uint64, error) {
	row, err := s.tid.Append(owner)
	if err != nil {
		return 0, err
	}
	if _, err := s.begin.StageAppend(Inf); err != nil {
		s.UnstageRow()
		return 0, err
	}
	if _, err := s.end.StageAppend(Inf); err != nil {
		s.UnstageRow()
		return 0, err
	}
	return row, nil
}

// PublishRow is the publish half of AppendRow: the begin and end lengths
// advance over the staged row.
//
//nvm:nopersist publish half: the lengths are flushed, not fenced; the caller's second fence covers them
func (s *Store) PublishRow() {
	s.begin.Publish()
	s.end.Publish()
}

// UnstageRow forgets a staged row that will not be published.
func (s *Store) UnstageRow() {
	s.begin.Unstage()
	s.end.Unstage()
	s.tid.Truncate(s.Rows())
}

// AppendCommittedRows bulk-adds n rows that are visible from beginCID on —
// the bulk-load / merge path.
func (s *Store) AppendCommittedRows(n uint64, beginCID uint64) error {
	buf := make([]uint64, n)
	for i := range buf {
		buf[i] = beginCID
	}
	if _, err := s.begin.AppendN(buf); err != nil {
		return err
	}
	for i := range buf {
		buf[i] = Inf
	}
	if _, err := s.end.AppendN(buf); err != nil {
		return err
	}
	for i := range buf {
		buf[i] = 0
	}
	_, err := s.tid.AppendN(buf)
	return err
}

// Begin returns the begin CID of row.
func (s *Store) Begin(row uint64) uint64 { return s.begin.Get(row) }

// End returns the end CID of row.
func (s *Store) End(row uint64) uint64 { return s.end.Get(row) }

// TID returns the transient owner of row (0 = unowned).
func (s *Store) TID(row uint64) uint64 { return s.tid.Get(row) }

// ClaimRow attempts to write-lock row for transaction owner; it fails if
// another live transaction holds the row.
func (s *Store) ClaimRow(row, owner uint64) bool {
	return s.tid.CompareAndSwap(row, 0, owner)
}

// ReleaseRow drops the write lock if held by owner.
func (s *Store) ReleaseRow(row, owner uint64) {
	s.tid.CompareAndSwap(row, owner, 0)
}

// SetBegin stamps the begin CID of row without persisting (commit batches
// stamps and persists once).
//
//nvm:nopersist commit flushes a group's stamps via FlushBegin/FlushEnd under one fence; recovery persists via PersistBegin/PersistEnd
func (s *Store) SetBegin(row, cid uint64) { s.begin.SetNoPersist(row, cid) }

// SetEnd stamps the end CID of row without persisting.
//
//nvm:nopersist commit flushes a group's stamps via FlushBegin/FlushEnd under one fence; recovery persists via PersistBegin/PersistEnd
func (s *Store) SetEnd(row, cid uint64) { s.end.SetNoPersist(row, cid) }

// PersistBegin persists the begin stamp of row.
func (s *Store) PersistBegin(row uint64) { s.begin.PersistAt(row) }

// PersistEnd persists the end stamp of row.
func (s *Store) PersistEnd(row uint64) { s.end.PersistAt(row) }

// FlushBegin flushes the begin stamp of row without fencing; commit
// flushes all stamps of a group and fences once.
func (s *Store) FlushBegin(row uint64) { s.begin.FlushAt(row) }

// FlushEnd flushes the end stamp of row without fencing.
func (s *Store) FlushEnd(row uint64) { s.end.FlushAt(row) }

// Visible reports whether row is visible to a snapshot at snapCID taken
// by transaction selfTID. Uncommitted inserts are visible only to their
// owner; uncommitted invalidations (own deletes before commit) are
// handled by the transaction's write set, not here.
func (s *Store) Visible(row, snapCID, selfTID uint64) bool {
	b := s.Begin(row)
	if b == Inf {
		return selfTID != 0 && s.TID(row) == selfTID
	}
	if b > snapCID {
		return false
	}
	e := s.End(row)
	return e == Inf || e > snapCID
}

// VisibleBits is Visible for the rows [lo, hi) at once: bit i of bits
// (bit i%64 of word i/64) is set when row lo+i is visible, and the words
// covering the range are overwritten whole. The stamps are read in place
// as runs of contiguous words, with the loads Visible makes and a row's
// begin before its end; only a row with begin = Inf costs a look at its
// owner.
func (s *Store) VisibleBits(lo, hi, snapCID, selfTID uint64, bits []uint64) {
	clear(bits[:(hi-lo+63)/64])
	for row, bit := lo, uint64(0); row < hi; {
		begin := s.begin.Span(row, hi)
		end := s.end.Span(row, row+uint64(len(begin)))
		begin = begin[:len(end)]
		// One word of the bitmap at a time, so that a run may start and
		// end anywhere in a word.
		for len(begin) > 0 {
			n := min(64-int(bit%64), len(begin))
			var word uint64
			for i := range begin[:n] {
				b := atomic.LoadUint64(&begin[i])
				if b == Inf {
					if selfTID != 0 && s.TID(row+uint64(i)) == selfTID {
						word |= 1 << i
					}
				} else if b <= snapCID {
					if e := atomic.LoadUint64(&end[i]); e == Inf || e > snapCID {
						word |= 1 << i
					}
				}
			}
			bits[bit/64] |= word << (bit % 64)
			begin, end = begin[n:], end[n:]
			row, bit = row+uint64(n), bit+uint64(n)
		}
	}
}

// Check verifies the durable MVCC invariants that must hold at every
// crash point once recovery has run: the begin/end vectors are
// structurally sound (NVM backend), and every stamp is either Inf or a
// real commit ID in [1, lastCID]. A committed invalidation of a row
// whose insert never committed (begin = Inf, end < Inf) is impossible,
// as is end < begin — recovery undoes in-flight stamps before anything
// else runs.
func (s *Store) Check(lastCID uint64) error {
	var errs []error
	type structural interface{ Check() error }
	if c, ok := s.begin.(structural); ok {
		if err := c.Check(); err != nil {
			errs = append(errs, fmt.Errorf("begin vector: %w", err))
			return errors.Join(errs...) // element reads may be unsafe
		}
	}
	if c, ok := s.end.(structural); ok {
		if err := c.Check(); err != nil {
			errs = append(errs, fmt.Errorf("end vector: %w", err))
			return errors.Join(errs...)
		}
	}
	rows := s.Rows()
	for r := uint64(0); r < rows; r++ {
		b, e := s.begin.Get(r), s.end.Get(r)
		if b != Inf && (b == 0 || b > lastCID) {
			errs = append(errs, fmt.Errorf("row %d: begin stamp %d outside [1, %d]", r, b, lastCID))
		}
		if e != Inf && (e == 0 || e > lastCID) {
			errs = append(errs, fmt.Errorf("row %d: end stamp %d outside [1, %d]", r, e, lastCID))
		}
		if b == Inf && e != Inf {
			errs = append(errs, fmt.Errorf("row %d: invalidated (end %d) but never committed", r, e))
		}
		if b != Inf && e != Inf && e < b {
			errs = append(errs, fmt.Errorf("row %d: end %d before begin %d", r, e, b))
		}
	}
	return errors.Join(errs...)
}
