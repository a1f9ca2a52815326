package storage

import (
	"bytes"

	"hyrisenv/internal/index"
	"hyrisenv/internal/nvm"
	"hyrisenv/internal/pstruct"
)

// Secondary indexes. A table may index any subset of its columns
// (IndexMask bit i = column i). Each indexed column carries a group-key
// index over the main partition (rebuilt wholesale at merge) and a delta
// index updated on every insert.
//
// On the NVM backend both index forms are persistent and are part of the
// table's partition set, so they are valid immediately after restart; the
// log-based baseline rebuilds them during recovery, which is a dominant
// component of its restart time.

// mainIndex is satisfied by *index.GroupKey and *index.NVMGroupKey.
type mainIndex interface {
	Rows(id uint64, fn func(row uint64) bool)
	RowsInIDRange(lo, hi uint64, fn func(row uint64) bool)
}

// deltaIndex is satisfied by *index.VolatileDeltaIndex and
// *index.NVMDeltaIndex.
type deltaIndex interface {
	Insert(encKey []byte, row uint64) error
	Lookup(encKey []byte, fn func(row uint64) bool)
}

// IndexMask returns the bitmask of indexed columns.
func (t *Table) IndexMask() uint64 { return t.indexMask }

// Indexed reports whether column col is indexed.
func (t *Table) Indexed(col int) bool { return t.indexMask&(1<<uint(col)) != 0 }

// LookupRows yields candidate table row IDs whose column col equals
// encKey, using the group-key index for the main partition and the delta
// index for the delta partition. Candidates are value-verified and
// duplicate-suppressed (a crash can leave benign stale delta-index
// entries, including one that collides with a live posting when its
// rolled-back slot is reused under the same key) but NOT
// visibility-checked — the caller applies MVCC. ok is false when col is
// not indexed.
func (v View) LookupRows(col int, encKey []byte, fn func(row uint64) bool) (ok bool) {
	if !v.t.Indexed(col) || v.ps.deltaIdx[col] == nil {
		return false
	}
	if id, found := v.ps.main[col].LookupValueID(encKey); found {
		stop := false
		v.ps.mainIdx[col].Rows(id, func(r uint64) bool {
			if !fn(r) {
				stop = true
				return false
			}
			return true
		})
		if stop {
			return true
		}
	}
	mr := v.ps.mainMVCC.Rows()
	dRows := v.ps.deltaMVCC.Rows()
	d := v.ps.delta[col]
	var seen []uint64
	v.ps.deltaIdx[col].Lookup(encKey, func(local uint64) bool {
		if local >= dRows {
			return true // torn append truncated away; stale entry
		}
		if !bytes.Equal(d.DictKey(d.ValueID(local)), encKey) {
			return true // slot reused after truncation; stale entry
		}
		// A slot reused with the SAME key after a crash carries both the
		// stale and the live posting; value verification cannot separate
		// them, so suppress the duplicate here.
		for _, s := range seen {
			if s == local {
				return true
			}
		}
		seen = append(seen, local)
		return fn(mr + local)
	})
	return true
}

// LookupRows is the single-call convenience over the current generation.
func (t *Table) LookupRows(col int, encKey []byte, fn func(row uint64) bool) bool {
	return t.View().LookupRows(col, encKey, fn)
}

// LookupRowsInRange yields candidate rows whose column value falls in
// [loKey, hiKey): the main partition via the sorted dictionary +
// group-key index, the delta by scanning (the delta is small by design).
// Candidates are not visibility-checked. ok is false when col is not
// indexed.
func (v View) LookupRowsInRange(col int, loKey, hiKey []byte, fn func(row uint64) bool) (ok bool) {
	if !v.t.Indexed(col) || v.ps.deltaIdx[col] == nil {
		return false
	}
	lo, hi := v.ps.main[col].LookupRange(loKey, hiKey)
	stop := false
	v.ps.mainIdx[col].RowsInIDRange(lo, hi, func(r uint64) bool {
		if !fn(r) {
			stop = true
			return false
		}
		return true
	})
	if stop {
		return true
	}
	mr := v.ps.mainMVCC.Rows()
	d := v.ps.delta[col]
	n := v.ps.deltaMVCC.Rows()
	for local := uint64(0); local < n; local++ {
		k := d.DictKey(d.ValueID(local))
		if bytes.Compare(k, loKey) >= 0 && bytes.Compare(k, hiKey) < 0 {
			if !fn(mr + local) {
				return true
			}
		}
	}
	return true
}

// LookupRowsInRange is the single-call convenience over the current
// generation.
func (t *Table) LookupRowsInRange(col int, loKey, hiKey []byte, fn func(row uint64) bool) bool {
	return t.View().LookupRowsInRange(col, loKey, hiKey, fn)
}

// RebuildIndexes reconstructs all secondary indexes from column data —
// the log-based recovery path (and a repair tool for the NVM backend).
// Cost is O(rows) per indexed column. It publishes a new partition
// generation carrying the fresh indexes (columns and MVCC unchanged, so
// the epoch does not advance).
func (t *Table) RebuildIndexes() error {
	t.writeMu.Lock()
	defer t.writeMu.Unlock()
	old := t.parts.Load()
	ncols := t.Schema.NumCols()
	ps := &partitions{
		main:      old.main,
		delta:     old.delta,
		nvmDelta:  old.nvmDelta,
		mainMVCC:  old.mainMVCC,
		deltaMVCC: old.deltaMVCC,
		mainIdx:   make([]mainIndex, ncols),
		deltaIdx:  make([]deltaIndex, ncols),
	}
	if t.h != nil {
		ps.nvmDeltaIdx = make([]*index.NVMDeltaIndex, ncols)
	}
	for c := 0; c < ncols; c++ {
		if !t.Indexed(c) {
			continue
		}
		if t.h != nil {
			gk, err := index.BuildNVMGroupKey(t.h, ps.main[c].Rows(), ps.main[c].DictLen(), ps.main[c].ValueID)
			if err != nil {
				return err
			}
			ps.mainIdx[c] = gk
			di, err := index.NewNVMDeltaIndex(t.h)
			if err != nil {
				return err
			}
			ps.deltaIdx[c], ps.nvmDeltaIdx[c] = di, di
			// Publish the rebuilt roots in the persistent partition set.
			pp := t.psPtr()
			t.h.SetU64(pp.Add(psOffCols+uint64(c)*32+16), uint64(gk.Root()))
			t.h.SetU64(pp.Add(psOffCols+uint64(c)*32+24), uint64(di.Root()))
			t.h.Persist(pp.Add(psOffCols+uint64(c)*32+16), 16)
		} else {
			ps.mainIdx[c] = index.BuildGroupKey(ps.main[c].Rows(), ps.main[c].DictLen(), ps.main[c].ValueID)
			ps.deltaIdx[c] = index.NewVolatileDeltaIndex()
		}
		// Re-insert delta rows.
		d := ps.delta[c]
		n := ps.deltaMVCC.Rows()
		for local := uint64(0); local < n; local++ {
			if err := ps.deltaIdx[c].Insert(d.DictKey(d.ValueID(local)), local); err != nil {
				return err
			}
		}
	}
	t.parts.Store(ps)
	return nil
}

// nvmBlocks is implemented by the NVM index forms for scavenging.
type nvmBlocks interface {
	Blocks(yield func(nvm.PPtr))
}

// Blocks yields every heap block reachable from the table (NVM backend
// only) — the reachability input of nvm.Heap.Scavenge. The table must be
// quiescent while enumerating.
func (t *Table) Blocks(yield func(nvm.PPtr)) {
	if t.h == nil {
		return
	}
	h := t.h
	ps := t.parts.Load()
	yield(t.root)
	if sb := nvm.PPtr(h.GetU64(t.root.Add(trOffSchema))); !sb.IsNil() {
		yield(sb)
	}
	pp := t.psPtr()
	yield(pp)
	for _, mv := range []nvm.PPtr{
		nvm.PPtr(h.GetU64(pp.Add(psOffMainBegin))),
		nvm.PPtr(h.GetU64(pp.Add(psOffMainEnd))),
		nvm.PPtr(h.GetU64(pp.Add(psOffDeltaBegin))),
		nvm.PPtr(h.GetU64(pp.Add(psOffDeltaEnd))),
	} {
		pstruct.AttachVector(h, mv).Blocks(yield)
	}
	for c := 0; c < t.Schema.NumCols(); c++ {
		ps.main[c].(*NVMMain).Blocks(yield)
		ps.delta[c].(*NVMDelta).Blocks(yield)
		if t.Indexed(c) {
			if b, ok := ps.mainIdx[c].(nvmBlocks); ok {
				b.Blocks(yield)
			}
			if b, ok := ps.deltaIdx[c].(nvmBlocks); ok {
				b.Blocks(yield)
			}
		}
	}
}
