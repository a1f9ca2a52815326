// Package mvcc implements the insert-only multi-version concurrency
// control of Hyrise: every row carries a begin and an end commit ID (CID)
// plus a transient transaction ID (TID) used as a row write-lock.
//
// A row is visible to a snapshot at CID s when begin <= s < end. Inserts
// append rows with begin = Inf (invisible); updates insert a new version
// and stamp the old row's end; both stamps are written at commit time with
// the committing transaction's CID.
//
// The begin/end vectors are persistent vectors on the table's heap. On
// NVM they are the *only* durable truth about transaction outcomes: a
// transaction is durably committed exactly when its row stamps are
// persisted and the global last-committed CID has been advanced past its
// CID (see package txn for the commit protocol). The log-based and
// volatile engines run the same vectors on a heap that does not persist.
// The TID vector always lives in DRAM — after a restart no transaction
// owns any row, which is precisely correct.
//
// Visibility is asked in two shapes. Visible answers for one row: index
// lookups, row fetches and the write path. VisibleBits answers for a
// block of rows as a bitmap: every scan. A block in which no insert is in
// flight — the normal state of a merged partition, dead versions and all
// — is 16 KiB of stamps that say the same thing to every snapshot above
// the largest of them, so the store keeps, per aligned block of
// SummaryRows rows, a volatile record of that stamp and of which rows are
// live, and VisibleBits answers such a snapshot from the record without
// reading a stamp. Scans learn the records in a pass of their own; every
// SetEnd makes its block's record stale; nothing is persisted and a
// restart starts with none. The invariant and its memory-ordering
// argument are at VisibleBits.
package mvcc

import (
	"errors"
	"fmt"
	"math/bits"
	"sync/atomic"

	"hyrisenv/internal/pstruct"
)

// Inf is the CID meaning "never": rows with begin = Inf are uncommitted
// inserts, rows with end = Inf have not been invalidated.
const Inf = ^uint64(0)

// Store holds the MVCC vectors for one row region (main or delta
// partition of a table).
type Store struct {
	begin *pstruct.Vector
	end   *pstruct.Vector
	tid   owners    // volatile (row write locks)
	sum   summaries // volatile (what scans learned, see VisibleBits)
}

// NewStore wraps begin/end vectors into a Store. Both vectors must have
// equal lengths. Every row starts unowned: the owner vector is
// zero-extended segment by segment, not row by row.
func NewStore(begin, end *pstruct.Vector) *Store {
	s := &Store{begin: begin, end: end}
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

// StageRow is the stage half of a row append, for a caller that appends
// a row across several structures under two fences of its own (see
// storage.Table.AppendRow): it writes begin = end = Inf (invisible) past
// the vectors' published lengths and records the owner, and returns the
// row index. The row does not count until PublishRow. Concurrent readers
// bound their row range by Rows() and Visible reads the owner of any row
// below it, so tid runs ahead of begin and end. A failed stage is
// unwound, keeping the three vectors the same length for the next one.
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

// PublishRow is the publish half of a row append: the begin and end
// lengths advance over the staged row.
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

// SetBegin stamps the begin CID of row without persisting: commit
// flushes a group's stamps via FlushBegin/FlushEnd under one fence, and
// recovery persists them via PersistBegin/PersistEnd.
//
//nvm:nopersist the stamp is made durable by the caller's FlushBegin and fence, or PersistBegin
func (s *Store) SetBegin(row, cid uint64) { s.begin.SetNoPersist(row, cid) }

// SetEnd stamps the end CID of row without persisting, and then advances
// the version of the row's block, which makes whatever a scan had learned
// about the block stale (see VisibleBits): the caller publishes cid as a
// snapshot only afterwards. The stamp is made durable like SetBegin's.
//
//nvm:nopersist the stamp is made durable by the caller's FlushEnd and fence, or PersistEnd
func (s *Store) SetEnd(row, cid uint64) {
	s.storeEnd(row, cid)
	if sum := s.sum.at(row/SummaryRows, false); sum != nil {
		sum.version.Add(1)
	}
}

// storeEnd stores the end stamp of row.
func (s *Store) storeEnd(row, cid uint64) {
	if testHookBeforeEndStamp != nil {
		testHookBeforeEndStamp()
	}
	s.end.SetNoPersist(row, cid)
}

// testHookBeforeEndStamp, set by tests only, runs just before an end
// stamp is stored.
var testHookBeforeEndStamp func()

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

// VisibleBits is Visible for the rows [lo, hi) at once: bit i of bm
// (bit i%64 of word i/64) is set when row lo+i is visible, and the words
// covering the range are overwritten whole. The stamps are read in place
// as runs of contiguous words, with atomic loads and a row's begin before
// its end; only a row with begin = Inf costs a look at its owner.
//
// A range that is one whole summary block — SummaryRows rows starting at
// a multiple of SummaryRows, which is how the scan kernel asks — need not
// read a stamp at all. A block is frozen when none of its begins is Inf:
// no insert in it is in flight, so only an end can still change. For a
// frozen block a scan learns a record: the largest of its begins and of
// its finite ends (maxStamp), and a bitmap of the rows whose end is Inf.
// To a snapshot at or above maxStamp every row is visible exactly when
// its end is Inf, so VisibleBits copies that bitmap; a block whose every
// row is live is simply the case of a bitmap of ones. A snapshot below
// maxStamp, a block that is not frozen and a partition's ragged last
// block are answered from the stamps. Records are volatile, learned in a
// pass of their own by a scan that found the block frozen and no record
// for its current version: nothing is persisted, and nothing is built
// when a store is opened.
//
// Why a reader may trust a record. All summary accesses are atomic, so
// they are totally ordered with the atomic accesses around them. A record
// is immutable, carries the block version its stamps were read at, and is
// published by one pointer swap; a reader loads the version, then the
// record, and takes the record only when the two versions agree.
//
//   - Begins. A frozen block has no begin = Inf, and a begin that is a
//     real CID is never stamped again, so every begin the record covers
//     is a constant of the block.
//   - Ends. SetEnd stores the end stamp, then advances the block's
//     version; only then does the commit publish its CID as a snapshot
//     (txn's lastCID, the shared clock's watermark). A reader whose
//     snapshot covers the CID loaded the version after it moved, so a
//     record it takes was read at that version or later — from stamps
//     loaded after the store. A reader that takes a record from before
//     the store took its snapshot below the CID: it sees the row either
//     way, and should the learner have seen the new stamp after all,
//     maxStamp is at least the CID and the record is not used.
//   - Publishing. A scan reads the version before the block's stamps and
//     publishes its record with a compare-and-swap on the record it
//     found before reading them, never over one learned at its version
//     or a later one; a record that loses to a later SetEnd is merely
//     stale and is learned again. An undone stamp (end back to Inf, as
//     recovery writes it) advances the version like any other.
//
// The transaction's own uncommitted deletes are not MVCC state; callers
// clear them from the bitmap afterwards, whatever answered the block.
func (s *Store) VisibleBits(lo, hi, snapCID, selfTID uint64, bm []uint64) {
	var sum *blockSummary
	var seen uint64
	if lo%SummaryRows == 0 && hi-lo == SummaryRows {
		if sum = s.sum.at(lo/SummaryRows, true); sum != nil {
			seen = sum.version.Load()
			if rec := sum.rec.Load(); rec != nil && rec.version == seen {
				if rec.maxStamp <= snapCID {
					copy(bm, rec.live[:])
					return
				}
				sum = nil // learned at this version: nothing left to learn
			}
		}
	}
	clear(bm[:(hi-lo+63)/64])
	pending := false // a begin of Inf: an insert in flight
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
					pending = true
					if selfTID != 0 && s.TID(row+uint64(i)) == selfTID {
						word |= 1 << i
					}
				} else if b <= snapCID {
					e := atomic.LoadUint64(&end[i])
					if e == Inf || e > snapCID {
						word |= 1 << i
					}
				}
			}
			bm[bit/64] |= word << (bit % 64)
			begin, end = begin[n:], end[n:]
			row, bit = row+uint64(n), bit+uint64(n)
		}
	}
	if sum != nil && !pending {
		s.learn(sum, seen, lo)
	}
}

// learn reads every stamp of the whole block from lo and, if the block
// is frozen, publishes its record for version seen — unless a record
// learned at that version or a later one is there already.
func (s *Store) learn(sum *blockSummary, seen, lo uint64) {
	old := sum.rec.Load()
	if old != nil && old.version >= seen {
		return
	}
	rec := &frozen{version: seen}
	for row, hi := lo, lo+SummaryRows; row < hi; {
		begin := s.begin.Span(row, hi)
		end := s.end.Span(row, row+uint64(len(begin)))
		begin = begin[:len(end)]
		for i := range begin {
			b := atomic.LoadUint64(&begin[i])
			if b == Inf {
				return
			}
			rec.maxStamp = max(rec.maxStamp, b)
			if e := atomic.LoadUint64(&end[i]); e == Inf {
				bit := row - lo + uint64(i)
				rec.live[bit/64] |= 1 << (bit % 64)
			} else {
				rec.maxStamp = max(rec.maxStamp, e)
			}
		}
		row += uint64(len(begin))
	}
	sum.rec.CompareAndSwap(old, rec)
}

// SummaryRows is the number of rows one visibility summary covers: the
// scan kernel's block.
const SummaryRows = 1024

// frozen is what a scan learned about one frozen block (see VisibleBits).
// It is never written after it is published.
type frozen struct {
	version  uint64                   // of the block, loaded before its stamps were read
	maxStamp uint64                   // the largest begin and the largest finite end
	live     [SummaryRows / 64]uint64 // bit i: the end of row i of the block is Inf
}

// blockSummary is what scans have learned about one aligned block of
// SummaryRows rows.
type blockSummary struct {
	version atomic.Uint64 // advanced by every SetEnd in the block
	rec     atomic.Pointer[frozen]
}

// summaries holds a store's block summaries in segments that double in
// size, each allocated when a scan first looks at one of its blocks, so
// that a summary never moves and a store that is never scanned, or has
// just been opened, holds none. The first segment covers 64 blocks.
type summaries struct {
	seg [32]atomic.Pointer[[]blockSummary]
}

const summaryBaseLog = 6

// at returns the summary of block, or nil when its segment does not exist
// and alloc is false — or lies beyond the directory, which no vector's
// capacity reaches.
func (s *summaries) at(block uint64, alloc bool) *blockSummary {
	k := bits.Len64(block>>summaryBaseLog+1) - 1
	if k >= len(s.seg) {
		return nil
	}
	seg := s.seg[k].Load()
	if seg == nil {
		if !alloc {
			return nil
		}
		fresh := make([]blockSummary, uint64(1)<<(summaryBaseLog+k))
		if s.seg[k].CompareAndSwap(nil, &fresh) {
			seg = &fresh
		} else {
			seg = s.seg[k].Load()
		}
	}
	return &(*seg)[block-(uint64(1)<<k-1)<<summaryBaseLog]
}

// Check verifies the durable MVCC invariants that must hold at every
// crash point once recovery has run: the begin/end vectors are
// structurally sound, and every stamp is either Inf or a
// real commit ID in [1, lastCID]. A committed invalidation of a row
// whose insert never committed (begin = Inf, end < Inf) is impossible,
// as is end < begin — recovery undoes in-flight stamps before anything
// else runs.
func (s *Store) Check(lastCID uint64) error {
	// A vector that fails its check may be unsafe to read elements from.
	if err := s.begin.Check(); err != nil {
		return fmt.Errorf("begin vector: %w", err)
	}
	if err := s.end.Check(); err != nil {
		return fmt.Errorf("end vector: %w", err)
	}
	var errs []error
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
