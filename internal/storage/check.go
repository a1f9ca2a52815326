package storage

import (
	"fmt"

	"hyrisenv/internal/mvcc"
)

// CheckReport summarizes a structural consistency check.
type CheckReport struct {
	MainRows     uint64
	DeltaRows    uint64
	VisibleRows  uint64 // at CID = Inf-1 (everything committed)
	DeadRows     uint64
	DictEntries  uint64
	IndexedCols  int
	IndexEntries uint64
}

// Check validates the table's structural invariants against one
// consistent partition generation and returns a summary. It is the
// integrity checker behind `hyrise-nv verify`:
//
//   - all column and MVCC vectors have equal lengths per partition;
//   - every attribute-vector entry references an existing dictionary ID,
//     and a main attribute vector has the size its row count implies and
//     zero padding rows;
//   - main dictionaries are strictly sorted;
//   - MVCC stamps are sane (begin <= end unless unset);
//   - every visible row is reachable through its column indexes, and no
//     index lookup yields a wrong value.
func (t *Table) Check() (CheckReport, error) {
	v := t.View()
	var rep CheckReport

	mr := v.ps.mainMVCC.Rows()
	dr := v.ps.deltaMVCC.Rows()
	rep.MainRows, rep.DeltaRows = mr, dr

	for c := 0; c < t.Schema.NumCols(); c++ {
		m := v.ps.main[c]
		if m.Rows() != mr {
			return rep, fmt.Errorf("storage: column %d main has %d rows, MVCC has %d", c, m.Rows(), mr)
		}
		d := v.ps.delta[c]
		if d.Rows() < dr {
			return rep, fmt.Errorf("storage: column %d delta has %d rows, MVCC has %d", c, d.Rows(), dr)
		}
		// Main dictionary strictly sorted; IDs in range.
		if err := m.CheckDict(); err != nil {
			return rep, fmt.Errorf("storage: column %d main dictionary: %w", c, err)
		}
		rep.DictEntries += m.DictLen() + d.DictLen()
		if err := m.CheckIDs(); err != nil {
			return rep, fmt.Errorf("storage: column %d main attribute vector: %w", c, err)
		}
		for row := uint64(0); row < dr; row++ {
			if d.ValueID(row) >= d.DictLen() {
				return rep, fmt.Errorf("storage: column %d delta row %d has out-of-range value ID", c, row)
			}
		}
	}

	// MVCC sanity + visibility census.
	checkStamps := func(s *mvcc.Store, n uint64, what string) error {
		for r := uint64(0); r < n; r++ {
			b, e := s.Begin(r), s.End(r)
			if b != mvcc.Inf && e != mvcc.Inf && e < b {
				return fmt.Errorf("storage: %s row %d has end %d < begin %d", what, r, e, b)
			}
		}
		return nil
	}
	if err := checkStamps(v.ps.mainMVCC, mr, "main"); err != nil {
		return rep, err
	}
	if err := checkStamps(v.ps.deltaMVCC, dr, "delta"); err != nil {
		return rep, err
	}
	snap := uint64(mvcc.Inf - 1)
	for r := uint64(0); r < mr; r++ {
		if v.ps.mainMVCC.Visible(r, snap, 0) {
			rep.VisibleRows++
		} else {
			rep.DeadRows++
		}
	}
	for r := uint64(0); r < dr; r++ {
		if v.ps.deltaMVCC.Visible(r, snap, 0) {
			rep.VisibleRows++
		} else {
			rep.DeadRows++
		}
	}

	// Index agreement: every visible row must be found via each indexed
	// column, with the right value.
	for c := 0; c < t.Schema.NumCols(); c++ {
		if !t.Indexed(c) || v.ps.mainIdx[c] == nil {
			continue
		}
		rep.IndexedCols++
		var checkErr error
		verify := func(row uint64) {
			var key []byte
			if row < mr {
				key = v.ps.main[c].DictKey(v.ps.main[c].ValueID(row))
			} else {
				key = v.ps.delta[c].DictKey(v.ps.delta[c].ValueID(row - mr))
			}
			found := false
			_, err := v.LookupRows(c, key, func(r uint64) bool {
				rep.IndexEntries++
				if r == row {
					found = true
					return false
				}
				return true
			})
			if err != nil {
				checkErr = fmt.Errorf("storage: column %d: %w", c, err)
			} else if !found {
				checkErr = fmt.Errorf("storage: column %d index misses visible row %d", c, row)
			}
		}
		for r := uint64(0); r < mr && checkErr == nil; r++ {
			if v.ps.mainMVCC.Visible(r, snap, 0) {
				verify(r)
			}
		}
		for r := uint64(0); r < dr && checkErr == nil; r++ {
			if v.ps.deltaMVCC.Visible(r, snap, 0) {
				verify(mr + r)
			}
		}
		if checkErr != nil {
			return rep, checkErr
		}
	}
	return rep, nil
}
