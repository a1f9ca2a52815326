package storage

import (
	"bytes"
	"errors"

	"hyrisenv/internal/pstruct"
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
	var mainRows, deltaRows, begins []uint64
	for r := uint64(0); r < mr; r++ {
		if ps.mainMVCC.Visible(r, snapCID, 0) {
			mainRows = append(mainRows, r)
			begins = append(begins, ps.mainMVCC.Begin(r))
		}
	}
	for r := uint64(0); r < dr; r++ {
		if ps.deltaMVCC.Visible(r, snapCID, 0) {
			deltaRows = append(deltaRows, r)
			begins = append(begins, ps.deltaMVCC.Begin(r))
		}
	}
	stats.RowsAfter = uint64(len(begins))
	stats.DeadDropped = stats.RowsBefore - stats.RowsAfter

	ncols := t.Schema.NumCols()
	newMain := make([]*NVMMain, ncols)
	mainIDs := make([]uint32, mr)
	deltaIDs := make([]uint32, dr)
	ids := make([]uint64, 0, len(begins))
	for c := 0; c < ncols; c++ {
		// The old value ID of every visible row, main rows first.
		m, d := ps.main[c], ps.delta[c]
		m.UnpackIDs(0, mr, mainIDs)
		d.LoadIDs(0, deltaIDs)
		ids = ids[:0]
		for _, r := range mainRows {
			ids = append(ids, uint64(mainIDs[r]))
		}
		for _, r := range deltaRows {
			ids = append(ids, uint64(deltaIDs[r]))
		}
		dict := mergeDict(ids, len(mainRows), m.DictLen(), d.DictLen(), m.DictKey, d.DictKey)
		var err error
		if newMain[c], err = nvmMainFromParts(t.h, t.Schema.Cols[c].Type, dict, ids); err != nil {
			return stats, err
		}
		stats.DictEntries += uint64(len(dict))
	}

	newPS, err := t.mergeNVM(newMain, begins)
	if err != nil {
		return stats, err
	}
	t.parts.Store(newPS)
	t.epoch.Add(1)
	return stats, nil
}

// mergeDict is the merge of one column by translation tables (Krueger et
// al., VLDB 2012). ids holds the old value ID of each visible row: the
// first nMain index the main dictionary, mainLen keys in sorted order;
// the rest index the delta dictionary, deltaLen keys in arrival order.
// It returns the sorted set of keys the rows use and rewrites each ID to
// its key's place in it.
//
// Only the used delta keys are sorted; the used main keys are merged in
// the order they already have. A key of both sides is kept once. Two
// arrays, old main ID and delta ID to new ID, then translate each row
// with one load: no key is hashed or copied.
func mergeDict(ids []uint64, nMain int, mainLen, deltaLen uint64, mainKey, deltaKey func(id uint64) []byte) [][]byte {
	// xm and xd first mark the IDs some row uses; the merge below then
	// overwrites each mark with the ID's new place, after reading it.
	const used = 1
	xm := make([]uint64, mainLen)
	xd := make([]uint64, deltaLen)
	for _, id := range ids[:nMain] {
		xm[id] = used
	}
	keys := make([][]byte, 0, deltaLen) // the used delta keys, and their IDs
	deltaIDs := make([]uint64, 0, deltaLen)
	for _, id := range ids[nMain:] {
		if xd[id] != used {
			xd[id] = used
			keys = append(keys, deltaKey(id))
			deltaIDs = append(deltaIDs, id)
		}
	}
	delta := sortKeys(keys)

	dict := make([][]byte, 0, uint64(len(keys))+mainLen)
	place := func(e keyRef) {
		xd[deltaIDs[e.i]] = uint64(len(dict))
		dict = append(dict, keys[e.i])
	}
	i := 0
	for id := range mainLen {
		if xm[id] != used {
			continue
		}
		k := mainKey(id)
		w := pstruct.KeyWord(k)
		for ; i < len(delta) && pstruct.CompareKeys(delta[i].word, keys[delta[i].i], w, k) < 0; i++ {
			place(delta[i])
		}
		if i < len(delta) && delta[i].word == w && bytes.Equal(keys[delta[i].i], k) {
			xd[deltaIDs[delta[i].i]] = uint64(len(dict))
			i++
		}
		xm[id] = uint64(len(dict))
		dict = append(dict, k)
	}
	for ; i < len(delta); i++ {
		place(delta[i])
	}

	for r, id := range ids {
		if r < nMain {
			ids[r] = xm[id]
		} else {
			ids[r] = xd[id]
		}
	}
	return dict
}

// mergeNVM persists a partition set of the new main columns, their rows'
// begin stamps and empty deltas, and swaps the table root to it.
func (t *Table) mergeNVM(newMain []*NVMMain, begins []uint64) (*partitions, error) {
	h := t.h
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
