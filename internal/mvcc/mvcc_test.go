package mvcc

import (
	"errors"
	"sync"
	"testing"

	"hyrisenv/internal/vec"
)

func volatileStore() *Store {
	return NewStore(vec.NewVolatile(4), vec.NewVolatile(4))
}

func TestAppendRowInvisible(t *testing.T) {
	s := volatileStore()
	row, err := s.AppendRow(7)
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
	s := volatileStore()
	row, _ := s.AppendRow(7)
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
	s := volatileStore()
	row, _ := s.AppendRow(0)
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
	s := volatileStore()
	if err := s.AppendCommittedRows(100, 3); err != nil {
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
	row, _ := s.AppendRow(9)
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
	s := volatileStore()
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
		if _, err := s.AppendRow(7); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
}

// failingVec fails its next Append once armed.
type failingVec struct {
	vec.Vec
	fail bool
}

func (v *failingVec) Append(x uint64) (uint64, error) {
	if v.fail {
		v.fail = false
		return 0, errors.New("out of space")
	}
	return v.Vec.Append(x)
}

// TestAppendRowFailureKeepsAlignment fails the begin and then the end
// append of a row: the next AppendRow must land all three vectors on the
// same index.
func TestAppendRowFailureKeepsAlignment(t *testing.T) {
	begin := &failingVec{Vec: vec.NewVolatile(4)}
	end := &failingVec{Vec: vec.NewVolatile(4)}
	s := NewStore(begin, end)
	if _, err := s.AppendRow(1); err != nil {
		t.Fatal(err)
	}
	for _, v := range []*failingVec{begin, end} {
		v.fail = true
		if _, err := s.AppendRow(2); err == nil {
			t.Fatal("AppendRow succeeded over a failing vector")
		}
		if b, e := begin.Len(), end.Len(); b != 1 || e != 1 {
			t.Fatalf("after failed append: begin has %d rows, end %d, want 1 and 1", b, e)
		}
	}
	row, err := s.AppendRow(3)
	if err != nil {
		t.Fatal(err)
	}
	if row != 1 || s.Rows() != 2 || s.TID(row) != 3 || s.TID(0) != 1 {
		t.Fatalf("row %d of %d owned by %d (row 0 by %d), want row 1 of 2 owned by 3 (row 0 by 1)",
			row, s.Rows(), s.TID(row), s.TID(0))
	}
}

// mixedStore builds rows in every MVCC state, cycling with the row
// index: committed at CID 1..9, invalidated at a later CID or not,
// uncommitted inserts owned by transaction 7, by 8, or by nobody.
func mixedStore(t testing.TB, rows uint64) *Store {
	s := volatileStore() // 16-element first segment: ranges cross segments
	for r := uint64(0); r < rows; r++ {
		if _, err := s.AppendRow(0); err != nil {
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
	begin, end := vec.NewVolatile(4), vec.NewVolatile(4)
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
	if row, err := s.AppendRow(9); err != nil || row != rows || s.TID(row) != 9 || !s.ClaimRow(17, 4) {
		t.Fatalf("AppendRow after NewStore: row %d, err %v", row, err)
	}
}

func BenchmarkVisibleBits(b *testing.B) {
	// A merged partition's shape: every row committed, one in 50 since
	// invalidated, some of those after the snapshot.
	const rows = 1 << 18
	s := volatileStore()
	if err := s.AppendCommittedRows(rows, 3); err != nil {
		b.Fatal(err)
	}
	for r := uint64(0); r < rows; r += 50 {
		s.SetEnd(r, 4+r%3)
	}
	var bits [1024 / 64]uint64
	var sink uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for lo := uint64(0); lo < rows; lo += 1024 {
			s.VisibleBits(lo, lo+1024, 5, 7, bits[:])
			sink += bits[3]
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rows, "ns/row")
	_ = sink
}
