package mvcc

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hyrisenv/internal/nvm"
	"hyrisenv/internal/pstruct"
)

// testHeap returns a heap that does not persist.
func testHeap(t testing.TB) *nvm.Heap {
	t.Helper()
	h, err := nvm.CreateVolatile()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.Close() })
	return h
}

// stampVectors returns empty begin and end vectors on h whose first
// segments hold 1<<beginLog and 1<<endLog stamps.
func stampVectors(t testing.TB, h *nvm.Heap, beginLog, endLog uint64) (begin, end *pstruct.Vector) {
	t.Helper()
	begin, err := pstruct.NewVector(h, 8, beginLog)
	if err != nil {
		t.Fatal(err)
	}
	if end, err = pstruct.NewVector(h, 8, endLog); err != nil {
		t.Fatal(err)
	}
	return begin, end
}

// newStore returns an empty store whose vectors' first segments hold 16
// rows, so that ranges cross segments.
func newStore(t testing.TB) *Store {
	return NewStore(stampVectors(t, testHeap(t), 4, 4))
}

// appendRow appends a row owned by owner the way a table append does:
// StageRow, then PublishRow. The fences between them order durability
// only, and the heap here does not persist.
func appendRow(s *Store, owner uint64) (uint64, error) {
	row, err := s.StageRow(owner)
	if err == nil {
		s.PublishRow()
	}
	return row, err
}

// appendCommitted appends n unowned rows visible from beginCID on, as a
// merge builds a main partition.
func appendCommitted(s *Store, n uint64, beginCID uint64) error {
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
	return s.tid.Extend(s.Rows())
}

func TestAppendRowInvisible(t *testing.T) {
	s := newStore(t)
	row, err := appendRow(s, 7)
	if err != nil {
		t.Fatal(err)
	}
	if s.Rows() != 1 {
		t.Fatalf("Rows = %d", s.Rows())
	}
	if s.Begin(row) != Inf || s.End(row) != Inf || s.TID(row) != 7 {
		t.Fatalf("fresh row state: begin=%d end=%d tid=%d", s.Begin(row), s.End(row), s.TID(row))
	}
	if s.Visible(row, 100, 0) {
		t.Fatal("uncommitted insert visible to other txn")
	}
	if !s.Visible(row, 100, 7) {
		t.Fatal("uncommitted insert invisible to owner")
	}
	if s.Visible(row, 100, 8) {
		t.Fatal("uncommitted insert visible to wrong owner")
	}
}

func TestCommitVisibility(t *testing.T) {
	s := newStore(t)
	row, _ := appendRow(s, 7)
	s.SetBegin(row, 10)
	s.PersistBegin(row)
	s.ReleaseRow(row, 7)

	if s.Visible(row, 9, 0) {
		t.Fatal("visible before its begin CID")
	}
	if !s.Visible(row, 10, 0) || !s.Visible(row, 11, 0) {
		t.Fatal("invisible at/after begin CID")
	}

	// Invalidate at CID 20.
	s.SetEnd(row, 20)
	s.PersistEnd(row)
	if !s.Visible(row, 19, 0) {
		t.Fatal("invisible before end CID")
	}
	if s.Visible(row, 20, 0) || s.Visible(row, 25, 0) {
		t.Fatal("visible at/after end CID")
	}
}

func TestClaimRelease(t *testing.T) {
	s := newStore(t)
	row, _ := appendRow(s, 0)
	if !s.ClaimRow(row, 5) {
		t.Fatal("claim on unowned row failed")
	}
	if s.ClaimRow(row, 6) {
		t.Fatal("double claim succeeded")
	}
	s.ReleaseRow(row, 6) // wrong owner: no-op
	if s.TID(row) != 5 {
		t.Fatal("wrong-owner release dropped the lock")
	}
	s.ReleaseRow(row, 5)
	if !s.ClaimRow(row, 6) {
		t.Fatal("claim after release failed")
	}
}

func TestAppendCommittedRows(t *testing.T) {
	s := newStore(t)
	if err := appendCommitted(s, 100, 3); err != nil {
		t.Fatal(err)
	}
	if s.Rows() != 100 {
		t.Fatalf("Rows = %d", s.Rows())
	}
	for r := uint64(0); r < 100; r++ {
		if !s.Visible(r, 3, 0) {
			t.Fatalf("bulk row %d invisible at CID 3", r)
		}
		if s.Visible(r, 2, 0) {
			t.Fatalf("bulk row %d visible before CID 3", r)
		}
		if s.TID(r) != 0 {
			t.Fatalf("bulk row %d has owner", r)
		}
	}
	// Mixed: bulk rows followed by a fresh insert keep indices aligned.
	row, _ := appendRow(s, 9)
	if row != 100 {
		t.Fatalf("append after bulk = %d", row)
	}
	if s.TID(row) != 9 {
		t.Fatal("tid misaligned after bulk append")
	}
}

// TestVisibleDuringAppend runs readers that, like a scan inside a writing
// transaction (selfTID != 0), check every row below Rows() while one
// writer appends: an uncommitted row (begin = Inf) sends Visible to the
// tid vector, which must already hold the row. Run under -race.
func TestVisibleDuringAppend(t *testing.T) {
	s := newStore(t)
	const rows = 50000
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					t.Errorf("reader panicked: %v", p)
				}
			}()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if n := s.Rows(); n > 0 && s.Visible(n-1, 0, 99) {
					t.Error("another transaction's uncommitted row is visible")
					return
				}
			}
		}()
	}
	for i := 0; i < rows; i++ {
		if _, err := appendRow(s, 7); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
}

// allocFault fails the next heap allocation once armed.
type allocFault struct{ armed atomic.Bool }

func (f *allocFault) AllocFault(uint64) error {
	if f.armed.Swap(false) {
		return nvm.ErrOutOfMemory
	}
	return nil
}
func (f *allocFault) BarrierDelay() time.Duration { return 0 }
func (f *allocFault) DrainDelay() time.Duration   { return 0 }

// TestAppendRowFailureKeepsAlignment fails the begin and then the end
// stage of a row append, each where its vector needs a new segment: the
// next row append must land all three vectors on the same index.
func TestAppendRowFailureKeepsAlignment(t *testing.T) {
	h := testHeap(t)
	// Begin segments hold rows 0-1, 2-5, ...; end segments 0-3, 4-11, ...
	s := NewStore(stampVectors(t, h, 1, 2))
	fault := &allocFault{}
	h.SetFaultInjector(fault)
	for _, c := range []struct {
		rows uint64 // appended first
		what string
	}{{2, "begin"}, {4, "end"}} {
		for s.Rows() < c.rows {
			if _, err := appendRow(s, 1); err != nil {
				t.Fatal(err)
			}
		}
		fault.armed.Store(true)
		if _, err := appendRow(s, 2); err == nil {
			t.Fatalf("a row append succeeded over a failing %s vector", c.what)
		}
		if b, e := s.begin.Len(), s.end.Len(); b != c.rows || e != c.rows || s.tid.Len() != c.rows {
			t.Fatalf("after failed %s append: begin has %d rows, end %d, owners %d, want %d", c.what, b, e, s.tid.Len(), c.rows)
		}
	}
	row, err := appendRow(s, 3)
	if err != nil {
		t.Fatal(err)
	}
	if row != 4 || s.Rows() != 5 || s.TID(row) != 3 || s.TID(3) != 1 {
		t.Fatalf("row %d of %d owned by %d (row 3 by %d), want row 4 of 5 owned by 3 (row 3 by 1)",
			row, s.Rows(), s.TID(row), s.TID(3))
	}
}

// mixedStore builds rows in every MVCC state, cycling with the row
// index: committed at CID 1..9, invalidated at a later CID or not,
// uncommitted inserts owned by transaction 7, by 8, or by nobody.
func mixedStore(t testing.TB, rows uint64) *Store {
	s := newStore(t)
	for r := uint64(0); r < rows; r++ {
		if _, err := appendRow(s, 0); err != nil {
			t.Fatal(err)
		}
		switch r % 7 {
		case 0, 1, 2:
			s.SetBegin(r, 1+r%9)
		case 3:
			s.SetBegin(r, 1+r%9)
			s.SetEnd(r, 1+r%9+r%4) // r%4 == 0: inserted and deleted by one commit
		case 4:
			s.ClaimRow(r, 7)
		case 5:
			s.ClaimRow(r, 8)
		}
	}
	return s
}

// TestVisibleBitsMatchesVisible compares the bitmap with the per-row
// check over ranges that start and end off a word boundary, for every
// snapshot around the stamps and for owners present and absent.
func TestVisibleBitsMatchesVisible(t *testing.T) {
	const rows = 300
	s := mixedStore(t, rows)
	for _, r := range [][2]uint64{{0, rows}, {0, 0}, {5, 5}, {0, 1}, {0, 63}, {0, 64}, {0, 65}, {1, 64}, {63, 65}, {64, 128}, {13, 291}, {rows - 1, rows}} {
		lo, hi := r[0], r[1]
		for snap := uint64(0); snap <= 14; snap++ {
			for _, self := range []uint64{0, 7, 8, 9} {
				bits := make([]uint64, (hi-lo+63)/64+1)
				for i := range bits {
					bits[i] = ^uint64(0) // stale content must be overwritten
				}
				s.VisibleBits(lo, hi, snap, self, bits)
				for row := lo; row < hi; row++ {
					i := row - lo
					got := bits[i/64]>>(i%64)&1 == 1
					if want := s.Visible(row, snap, self); got != want {
						t.Fatalf("[%d,%d) snap %d self %d: row %d bit %v, Visible %v", lo, hi, snap, self, row, got, want)
					}
				}
				if n := hi - lo; n%64 != 0 && bits[n/64]>>(n%64) != 0 {
					t.Fatalf("[%d,%d): bits set beyond the range in the last word", lo, hi)
				}
				if bits[len(bits)-1] != ^uint64(0) {
					t.Fatalf("[%d,%d): wrote a word beyond the range", lo, hi)
				}
			}
		}
	}
}

// TestNewStoreOwnsNothing: a store over existing rows starts with every
// row unowned, and the owner vector accepts the next row.
func TestNewStoreOwnsNothing(t *testing.T) {
	const rows = 5000 // several owner-vector segments
	begin, end := stampVectors(t, testHeap(t), 4, 4)
	for i := 0; i < rows; i++ {
		begin.Append(3)
		end.Append(Inf)
	}
	s := NewStore(begin, end)
	for r := uint64(0); r < rows; r++ {
		if s.TID(r) != 0 {
			t.Fatalf("row %d owned by %d after NewStore", r, s.TID(r))
		}
	}
	if row, err := appendRow(s, 9); err != nil || row != rows || s.TID(row) != 9 || !s.ClaimRow(17, 4) {
		t.Fatalf("row append after NewStore: row %d, err %v", row, err)
	}
}

// learned returns the record of block that is current — learned at the
// block's present version — or nil; a block no scan has looked at has none.
func (s *Store) learned(block uint64) *frozen {
	sum := s.sum.at(block, false)
	if sum == nil {
		return nil
	}
	if rec := sum.rec.Load(); rec != nil && rec.version == sum.version.Load() {
		return rec
	}
	return nil
}

// checkBitsMatchVisible compares VisibleBits with the per-row check over
// every whole block of s, the ragged tail and two ranges off the block
// grid, for every snapshot from 0 to maxSnap and for owners present and
// absent.
func checkBitsMatchVisible(t *testing.T, s *Store, maxSnap uint64) {
	t.Helper()
	rows := s.Rows()
	ranges := [][2]uint64{{3, rows - 1}, {SummaryRows / 2, SummaryRows/2 + SummaryRows}}
	for lo := uint64(0); lo < rows; lo += SummaryRows {
		ranges = append(ranges, [2]uint64{lo, min(lo+SummaryRows, rows)})
	}
	bm := make([]uint64, (rows+63)/64)
	for _, r := range ranges {
		lo, hi := r[0], r[1]
		for snap := uint64(0); snap <= maxSnap; snap++ {
			for _, self := range []uint64{0, 7, 8} {
				s.VisibleBits(lo, hi, snap, self, bm)
				for row := lo; row < hi; row++ {
					i := row - lo
					got := bm[i/64]>>(i%64)&1 == 1
					if want := s.Visible(row, snap, self); got != want {
						t.Fatalf("[%d,%d) snap %d self %d: row %d bit %v, Visible %v", lo, hi, snap, self, row, got, want)
					}
				}
			}
		}
	}
}

// TestVisibleBitsSummaries walks blocks through every state a record can
// be in — learned for a block of live rows and for a block with a dead
// row, stale after a SetEnd into a learned block, learned again once the
// stamp is undone, never learned while an insert is in flight and learned
// once it commits — and holds VisibleBits to Visible at each step, twice:
// the pass that learns and the pass that uses what was learned. Snapshots
// run from 0, so every learned block is also read from below its
// maxStamp, where the stamps answer; and each record is held to the
// stamps it summarises.
func TestVisibleBitsSummaries(t *testing.T) {
	const blocks = 4
	s := newStore(t)
	for r := uint64(0); r < blocks*SummaryRows+100; r++ { // a ragged tail no record covers
		if _, err := appendRow(s, 0); err != nil {
			t.Fatal(err)
		}
		s.SetBegin(r, 1+r%9)
	}
	const (
		deadRow    = 1*SummaryRows + 17 // block 1: dead before any scan, above every begin
		pendingRow = 2*SummaryRows + 500
		stampedRow = 3*SummaryRows + 1023
		lastCID    = 13
	)
	s.SetEnd(deadRow, 11)
	s.SetBegin(pendingRow, Inf) // block 2: an uncommitted insert of transaction 7
	s.ClaimRow(pendingRow, 7)
	// expect checks the records against want, the maxStamp of each block
	// (0: no current record).
	expect := func(step string, want [blocks]uint64) {
		t.Helper()
		checkBitsMatchVisible(t, s, lastCID+1) // learns
		checkBitsMatchVisible(t, s, lastCID+1) // uses
		for b, w := range want {
			rec := s.learned(uint64(b))
			if rec == nil || w == 0 {
				if (rec == nil) != (w == 0) {
					t.Fatalf("%s: block %d has record %v, want maxStamp %d", step, b, rec, w)
				}
				continue
			}
			if rec.maxStamp != w {
				t.Fatalf("%s: block %d maxStamp = %d, want %d", step, b, rec.maxStamp, w)
			}
			for i := uint64(0); i < SummaryRows; i++ {
				if live := rec.live[i/64]>>(i%64)&1 == 1; live != (s.End(uint64(b)*SummaryRows+i) == Inf) {
					t.Fatalf("%s: block %d row %d live = %v, end %d", step, b, i, live, s.End(uint64(b)*SummaryRows+i))
				}
			}
		}
		if s.learned(blocks) != nil {
			t.Fatalf("%s: the ragged tail has a record", step)
		}
	}
	expect("fresh", [blocks]uint64{9, 11, 0, 9})

	s.SetEnd(stampedRow, 12)
	if s.learned(3) != nil {
		t.Fatal("SetEnd into a learned block left its record current")
	}
	var bm [SummaryRows / 64]uint64
	if s.VisibleBits(3*SummaryRows, 4*SummaryRows, 12, 0, bm[:]); bm[15]>>63 != 0 {
		t.Fatal("a snapshot at the new end still sees the row")
	}
	expect("invalidated", [blocks]uint64{9, 11, 0, 12})

	s.SetEnd(stampedRow, Inf) // recovery undoing an in-flight commit
	expect("undone", [blocks]uint64{9, 11, 0, 9})

	s.SetBegin(pendingRow, lastCID) // the insert commits
	s.ReleaseRow(pendingRow, 7)
	expect("committed", [blocks]uint64{9, 11, lastCID, 9})
}

// TestNewStoreHasNoSummaries: summaries are volatile and learned, so a
// store over existing rows — what a restart builds — starts with none,
// and building it costs the same however many rows it covers.
func TestNewStoreHasNoSummaries(t *testing.T) {
	h := testHeap(t)
	build := func(rows int) (begin, end *pstruct.Vector) {
		begin, end = stampVectors(t, h, 10, 10)
		stamps := make([]uint64, rows)
		for i := range stamps {
			stamps[i] = 3
		}
		begin.AppendN(stamps)
		for i := range stamps {
			stamps[i] = Inf
		}
		end.AppendN(stamps)
		return begin, end
	}
	begin, end := build(64 * SummaryRows)
	s := NewStore(begin, end)
	var bm [SummaryRows / 64]uint64
	for lo := uint64(0); lo < s.Rows(); lo += SummaryRows {
		s.VisibleBits(lo, lo+SummaryRows, 5, 0, bm[:])
	}
	if s.learned(0) == nil || s.learned(63) == nil {
		t.Fatal("a scan of frozen blocks learned nothing")
	}
	s = NewStore(begin, end) // the restart
	for k := range s.sum.seg {
		if s.sum.seg[k].Load() != nil {
			t.Fatalf("summary segment %d exists in a new store", k)
		}
	}
	s.SetEnd(5, 4) // no record to make stale, and no summary made
	if s.sum.seg[0].Load() != nil {
		t.Fatal("SetEnd allocated a summary segment")
	}
	smallBegin, smallEnd := build(SummaryRows)
	small := testing.AllocsPerRun(10, func() { NewStore(smallBegin, smallEnd) })
	// 64 times the rows: the owner vector's doubling segments add six
	// allocations, summaries none.
	if large := testing.AllocsPerRun(10, func() { NewStore(begin, end) }); large > small+2*6 {
		t.Fatalf("NewStore allocates %v times over %d rows, %v over %d", large, 64*SummaryRows, small, SummaryRows)
	}
}

// TestSetEndStampsBeforeItUnsettles pins the order inside SetEnd that
// the stress test is too coarse to hit: the stamp is stored before the
// block's version moves. A scan that runs in between the two — here,
// from a hook on the store — must not be able to leave a current record
// over the stamp: were the version moved first, the scan would learn at
// the new version with the old stamps in hand.
func TestSetEndStampsBeforeItUnsettles(t *testing.T) {
	s := NewStore(stampVectors(t, testHeap(t), 10, 10))
	if err := appendCommitted(s, SummaryRows, 1); err != nil {
		t.Fatal(err)
	}
	var bm [SummaryRows / 64]uint64
	scan := func() { s.VisibleBits(0, SummaryRows, 5, 0, bm[:]) }
	scan()
	if s.learned(0) == nil {
		t.Fatal("a scan of a frozen block learned nothing")
	}
	testHookBeforeEndStamp = func() {
		s.sum.at(0, false).rec.Store(nil) // so that the scan learns
		scan()
	}
	s.SetEnd(17, 3)
	testHookBeforeEndStamp = nil
	if rec := s.learned(0); rec != nil {
		t.Fatalf("a scan inside SetEnd left a current record over the new stamp (maxStamp %d, row 17 live %v)", rec.maxStamp, rec.live[0]>>17&1 == 1)
	}
	if scan(); bm[0]>>17&1 != 0 {
		t.Fatal("the invalidated row is visible to a snapshot above its end")
	}
	if rec := s.learned(0); rec == nil || rec.maxStamp != 3 || rec.live[0]>>17&1 != 0 {
		t.Fatalf("the scan after SetEnd learned %+v, want maxStamp 3 and row 17 dead", rec)
	}
}

// TestSummariesUnderCommits races scanners against a committer. Commit
// k appends rows, so that new blocks keep filling up and being learned;
// invalidates a row in one of the last few full blocks, so that records
// the scans have just learned keep going stale; and invalidates a row in
// one of the two oldest blocks, which hold more dead rows with every
// commit. It stamps all of that and only then publishes k as the
// snapshot, as txn does. Which rows a snapshot sees is a function of the
// snapshot alone, so every scan — of the blocks the commits land in — is
// checked, at its own snapshot, against that function. Half the scans
// read an older snapshot than the last, and so from below the maxStamp
// of the blocks the latest commits hit.
func TestSummariesUnderCommits(t *testing.T) {
	const (
		initial   = 8 * SummaryRows // committed at CID 1
		perCommit = 128             // rows a commit appends: a new block every eight commits
		commits   = 800
		firstCID  = 2
		window    = 6 // full blocks back from the end that commits hit and scans read
		old       = 2 // blocks from the start that commits hit and scans read
		writerTID = 99
		scanners  = 3
	)
	// The plan: the rows commit k invalidates, and so the CID at which
	// each row dies (0: never). Commit k picks one block among the last
	// `window` full ones, and row k mod SummaryRows in it, which no other
	// commit to that block picks; and row k/old of old block k mod old.
	victims := make([][2]uint64, firstCID+commits)
	death := make([]uint64, initial+commits*perCommit)
	for k := uint64(firstCID); k < firstCID+commits; k++ {
		full := (initial + (k-firstCID)*perCommit) / SummaryRows
		victims[k] = [2]uint64{(full-1-k%window)*SummaryRows + k%SummaryRows, k%old*SummaryRows + k/old}
		for _, v := range victims[k] {
			if death[v] != 0 {
				t.Fatal("the plan invalidates a row twice")
			}
			death[v] = k
		}
	}
	visibleAt := func(row, snap uint64) bool {
		born := uint64(1)
		if row >= initial {
			born = firstCID + (row-initial)/perCommit
		}
		return born <= snap && (death[row] == 0 || death[row] > snap)
	}

	s := NewStore(stampVectors(t, testHeap(t), 10, 10))
	if err := appendCommitted(s, initial, 1); err != nil {
		t.Fatal(err)
	}
	var lastCID, passes atomic.Uint64
	lastCID.Store(1)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < scanners; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var bm [SummaryRows / 64]uint64
			scan := func(lo, hi, snap uint64) bool {
				s.VisibleBits(lo, hi, snap, 0, bm[:])
				for row := lo; row < hi; row++ {
					if got, want := bm[(row-lo)/64]>>((row-lo)%64)&1 == 1, visibleAt(row, snap); got != want {
						t.Errorf("snapshot %d: row %d bit %v, want %v (block has a current record: %v)", snap, row, got, want, s.learned(lo/SummaryRows) != nil)
						return false
					}
				}
				return true
			}
			for pass := uint64(0); ; pass++ {
				select {
				case <-stop:
					return
				default:
				}
				snap := lastCID.Load()
				if pass%2 == 1 {
					snap -= min(snap, pass%5)
				}
				rows := s.Rows() // after the snapshot, as a scan binds them
				for lo := uint64(0); lo < old*SummaryRows; lo += SummaryRows {
					if !scan(lo, lo+SummaryRows, snap) {
						return
					}
				}
				for lo := (rows/SummaryRows - window) * SummaryRows; lo < rows; lo += SummaryRows {
					if !scan(lo, min(lo+SummaryRows, rows), snap) {
						return
					}
				}
				passes.Add(1)
			}
		}()
	}
	madeStale := 0 // invalidations that hit a block with a current record
	for k := uint64(firstCID); k < firstCID+commits && !t.Failed(); k++ {
		var inserted [perCommit]uint64
		for i := range inserted {
			row, err := appendRow(s, writerTID)
			if err != nil {
				t.Error(err)
				break
			}
			inserted[i] = row
		}
		for _, row := range inserted {
			s.SetBegin(row, k)
			s.ReleaseRow(row, writerTID)
		}
		for _, v := range victims[k] {
			if s.learned(v/SummaryRows) != nil {
				madeStale++
			}
			s.SetEnd(v, k)
		}
		lastCID.Store(k)
		if k%16 == 0 { // the scanners keep up
			for target := passes.Load() + 1; passes.Load() < target && !t.Failed(); {
				runtime.Gosched()
			}
		}
	}
	close(stop)
	wg.Wait()
	t.Logf("%d scans; %d of %d invalidations hit a block with a current record", passes.Load(), madeStale, 2*commits)
}

// BenchmarkVisibleBits scans a merged partition's stamps a block at a
// time. settled: every row committed and none invalidated, so after the
// first pass every block is answered from its record, all ones. dead: one
// row in 50 invalidated, all before the snapshot, so after the first pass
// every block is answered from its record too. unsettled: the same dead
// rows, some of them invalidated after the snapshot, which is below the
// records' maxStamp, so every block takes the stamp loop — the cost before
// records, and still the cost of a snapshot older than a block's last
// stamp.
func BenchmarkVisibleBits(b *testing.B) {
	const rows = 1 << 18
	for _, shape := range []struct {
		name  string
		every uint64 // one row in `every` is invalidated, at CID 4, 5 or 6; 0: none
		snap  uint64
	}{{"settled", 0, 5}, {"dead", 50, 7}, {"unsettled", 50, 5}} {
		b.Run(shape.name, func(b *testing.B) {
			s := newStore(b)
			if err := appendCommitted(s, rows, 3); err != nil {
				b.Fatal(err)
			}
			for r := uint64(0); shape.every > 0 && r < rows; r += shape.every {
				s.SetEnd(r, 4+r%3)
			}
			var bits [SummaryRows / 64]uint64
			var sink uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for lo := uint64(0); lo < rows; lo += SummaryRows {
					s.VisibleBits(lo, lo+SummaryRows, shape.snap, 7, bits[:])
					sink += bits[3]
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rows, "ns/row")
			_ = sink
		})
	}
}
