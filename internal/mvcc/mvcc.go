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
//
// Visibility is asked in two shapes. Visible answers for one row: index
// lookups, row fetches and the write path. VisibleBits answers for a
// block of rows as a bitmap: every scan. A block in which nothing is in
// flight and nothing has died — the normal state of a merged partition —
// is 16 KiB of stamps that all say the same thing, so the store keeps,
// per aligned block of SummaryRows rows, a volatile summary that says so
// and lets VisibleBits answer without reading them. Scans learn the
// summaries as a side effect of reading the stamps; SetEnd takes a
// block's summary back; nothing is persisted and a restart starts with
// none. The invariant and its memory-ordering argument are at
// VisibleBits.
package mvcc

import (
	"errors"
	"fmt"
	"math/bits"
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
	sum   summaries     // always volatile (what scans learned, see VisibleBits)
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

// SetEnd stamps the end CID of row without persisting, and then takes
// back whatever a scan had learned about the row's block (see
// VisibleBits): the caller publishes cid as a snapshot only afterwards.
//
//nvm:nopersist commit flushes a group's stamps via FlushBegin/FlushEnd under one fence; recovery persists via PersistBegin/PersistEnd
func (s *Store) SetEnd(row, cid uint64) {
	s.end.SetNoPersist(row, cid)
	if sum := s.sum.at(row/SummaryRows, false); sum != nil {
		sum.unsettle()
	}
}

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
// read a stamp at all. The block's summary says "settled" when a scan
// has seen every begin in it a real CID and every end Inf, and keeps the
// largest of those begins; a settled block with maxBegin <= snapCID is
// visible whole. Summaries are volatile, allocated at a scan's first
// look and learned by the scans themselves: nothing is persisted, and
// nothing is built when a store is opened.
//
// Why a reader may trust the bit. All summary accesses are atomic, so
// they are totally ordered with the atomic accesses around them.
//
//   - Begins. A settled block has no begin = Inf, and a begin that is a
//     real CID is never stamped again, so maxBegin is a constant of the
//     block from the first time anyone computes it: whichever scan's
//     store a reader observes, the value is the same.
//   - Ends. SetEnd stores the end stamp, then advances the summary's
//     version, which clears the bit; only then does the commit publish
//     its CID as a snapshot (txn's lastCID, the shared clock's
//     watermark). A reader that still finds the bit set therefore took
//     its snapshot below that CID, and sees the row either way; a reader
//     whose snapshot covers the CID loaded it after the version moved,
//     and finds the bit clear.
//   - Publishing. A scan reads the summary's state before the block's
//     stamps and sets the bit with a compare-and-swap on that state. A
//     SetEnd whose store the scan missed moved the version after the
//     scan read it, and the swap fails; a SetEnd that moved the version
//     before the scan read it had already stored its stamp, and the scan
//     saw an unsettled block. An undone stamp (end back to Inf, as
//     recovery writes it) moves the version once more, and the next scan
//     learns the block again.
//
// The transaction's own uncommitted deletes are not MVCC state; callers
// clear them from the bitmap afterwards, settled block or not.
func (s *Store) VisibleBits(lo, hi, snapCID, selfTID uint64, bm []uint64) {
	var sum *blockSummary
	var seen uint64
	if lo%SummaryRows == 0 && hi-lo == SummaryRows {
		if sum = s.sum.at(lo/SummaryRows, true); sum != nil {
			seen = sum.state.Load()
			if seen&settledBit != 0 && sum.maxBegin.Load() <= snapCID {
				for i := range bm[:SummaryRows/64] {
					bm[i] = ^uint64(0)
				}
				return
			}
		}
	}
	clear(bm[:(hi-lo+63)/64])
	// ends is the AND of every end stamp the loop looks at: Inf (all
	// ones) to the last only if each of them is. A begin of Inf zeroes it.
	ends := Inf
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
					ends = 0
					if selfTID != 0 && s.TID(row+uint64(i)) == selfTID {
						word |= 1 << i
					}
				} else if b <= snapCID {
					e := atomic.LoadUint64(&end[i])
					ends &= e
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
	// Settled: every row visible, none as an uncommitted insert, and every
	// end looked at — every row's, then — Inf.
	if sum != nil && seen&settledBit == 0 && ends == Inf && allOnes(bm[:SummaryRows/64]) {
		sum.maxBegin.Store(s.maxBegin(lo, hi))
		sum.state.CompareAndSwap(seen, seen|settledBit)
	}
}

func allOnes(bm []uint64) bool {
	and := ^uint64(0)
	for _, w := range bm {
		and &= w
	}
	return and == ^uint64(0)
}

// maxBegin returns the largest begin stamp of rows [lo, hi).
func (s *Store) maxBegin(lo, hi uint64) uint64 {
	var m uint64
	for lo < hi {
		run := s.begin.Span(lo, hi)
		for i := range run {
			m = max(m, atomic.LoadUint64(&run[i]))
		}
		lo += uint64(len(run))
	}
	return m
}

// SummaryRows is the number of rows one visibility summary covers: the
// scan kernel's block.
const SummaryRows = 1024

// settledBit is the low bit of blockSummary.state; the bits above it are
// a version that every SetEnd in the block advances.
const settledBit = 1

// blockSummary is what scans have learned about one aligned block of
// SummaryRows rows. See VisibleBits for the protocol.
type blockSummary struct {
	state    atomic.Uint64
	maxBegin atomic.Uint64 // meaningful while state has settledBit
}

// unsettle advances the version and clears the settled bit.
func (b *blockSummary) unsettle() {
	for {
		st := b.state.Load()
		if b.state.CompareAndSwap(st, st&^settledBit+2) {
			return
		}
	}
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
