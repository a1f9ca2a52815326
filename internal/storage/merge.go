package storage

import (
	"errors"
)

// ErrMergeBusy is returned when a merge is attempted while transactions
// still own rows of the table.
var ErrMergeBusy = errors.New("storage: merge requires a quiesced table (rows still owned by live transactions)")

// MergeStats summarizes a completed delta→main merge.
type MergeStats struct {
	RowsBefore  uint64 // main + delta rows before (including dead)
	RowsAfter   uint64 // main rows after (all visible)
	DeadDropped uint64
	DictEntries uint64 // sum of new main dictionary sizes
}

// Merge compacts the table: all rows visible at snapCID move into a new
// sorted-dictionary, bit-packed main partition; dead versions are
// dropped; the delta is reset. The caller must guarantee no transaction
// owns rows of the table (Merge verifies this) and that no commits run
// concurrently (the engine blocks them); concurrent *readers* are fine —
// they keep reading the superseded generation through their Views.
//
// The merge advances the table Epoch: row IDs obtained before the merge
// must not be used for writes afterwards (the transaction layer enforces
// this via the epoch guard).
//
// The new partition set is built and persisted completely before the
// table root's single partition-set pointer is swapped, so a crash at any
// point leaves either the old or the new partition set — never a mix.
// Superseded structures are leaked and can be reclaimed offline
// (nvm.Heap.Scavenge).
func (t *Table) Merge(snapCID uint64) (MergeStats, error) {
	t.writeMu.Lock()
	defer t.writeMu.Unlock()
	ps := t.parts.Load()

	var stats MergeStats
	mr, dr := ps.mainMVCC.Rows(), ps.deltaMVCC.Rows()
	stats.RowsBefore = mr + dr

	// Quiescence check: no row may be owned.
	for r := uint64(0); r < dr; r++ {
		if ps.deltaMVCC.TID(r) != 0 {
			return stats, ErrMergeBusy
		}
	}
	for r := uint64(0); r < mr; r++ {
		if ps.mainMVCC.TID(r) != 0 {
			return stats, ErrMergeBusy
		}
	}

	// Collect visible rows with their begin CIDs preserved.
	type src struct {
		inMain bool
		row    uint64
	}
	var rows []src
	var begins []uint64
	for r := uint64(0); r < mr; r++ {
		if ps.mainMVCC.Visible(r, snapCID, 0) {
			rows = append(rows, src{true, r})
			begins = append(begins, ps.mainMVCC.Begin(r))
		}
	}
	for r := uint64(0); r < dr; r++ {
		if ps.deltaMVCC.Visible(r, snapCID, 0) {
			rows = append(rows, src{false, r})
			begins = append(begins, ps.deltaMVCC.Begin(r))
		}
	}
	stats.RowsAfter = uint64(len(rows))
	stats.DeadDropped = stats.RowsBefore - stats.RowsAfter

	// Materialize encoded keys per column.
	ncols := t.Schema.NumCols()
	colKeys := make([][][]byte, ncols)
	for c := 0; c < ncols; c++ {
		keys := make([][]byte, len(rows))
		for i, s := range rows {
			if s.inMain {
				keys[i] = ps.main[c].DictKey(ps.main[c].ValueID(s.row))
			} else {
				keys[i] = ps.delta[c].DictKey(ps.delta[c].ValueID(s.row))
			}
		}
		colKeys[c] = keys
	}

	newPS, err := t.mergeNVM(colKeys, begins, &stats)
	if err != nil {
		return stats, err
	}
	t.parts.Store(newPS)
	t.epoch.Add(1)
	return stats, nil
}

func (t *Table) mergeNVM(colKeys [][][]byte, begins []uint64, stats *MergeStats) (*partitions, error) {
	h := t.h
	ncols := t.Schema.NumCols()
	newMain := make([]*NVMMain, ncols)
	for c := 0; c < ncols; c++ {
		m, err := BuildNVMMain(h, t.Schema.Cols[c].Type, colKeys[c])
		if err != nil {
			return nil, err
		}
		newMain[c] = m
		stats.DictEntries += m.DictLen()
	}
	psPtr, err := t.buildNVMPartitionSet(newMain, begins)
	if err != nil {
		return nil, err
	}
	// Atomic, durable swap of the partition-set pointer.
	slot := t.root.Add(trOffPS)
	h.SetU64(slot, uint64(psPtr))
	h.Persist(slot, 8)
	return t.attachPartitionSet(psPtr, false)
}
