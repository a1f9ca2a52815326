package storage

import (
	"bytes"
	"slices"

	"hyrisenv/internal/index"
	"hyrisenv/internal/nvm"
	"hyrisenv/internal/pstruct"
)

// Secondary indexes. A table may index any subset of its columns
// (IndexMask bit i = column i). Each indexed column carries a group-key
// index over the main partition (rebuilt wholesale at merge), and its
// delta column keeps a posting list of rows per dictionary value ID,
// updated on every insert: the dictionary that finds a key's value ID
// is the delta index's search structure too.
//
// Both live on the table's heap and are part of its partition set, so
// on NVM they are valid immediately after restart; the log-based
// baseline, whose heap does not persist, rebuilds them during recovery,
// which is a dominant component of its restart time.

// IndexMask returns the bitmask of indexed columns.
func (t *Table) IndexMask() uint64 { return t.indexMask }

// Indexed reports whether column col is indexed.
func (t *Table) Indexed(col int) bool { return t.indexMask&(1<<uint(col)) != 0 }

// LookupRows yields candidate table row IDs whose column col equals
// encKey, using the group-key index for the main partition and the delta
// column's posting list of the key's value ID for the delta partition.
// Candidates are verified to carry that value ID and duplicate-suppressed
// (a crash can leave benign stale postings, including one that collides
// with a live posting when its rolled-back slot is reused under the same
// key) but NOT visibility-checked — the caller applies MVCC. ok is false
// when col is not indexed.
func (v View) LookupRows(col int, encKey []byte, fn func(row uint64) bool) (ok bool) {
	if !v.t.Indexed(col) || v.ps.mainIdx[col] == nil {
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
	id, found := d.LookupValueID(encKey)
	if !found {
		return true
	}
	var seen []uint64
	d.Postings(id, func(local uint64) bool {
		if local >= dRows {
			return true // torn append truncated away; stale posting
		}
		if d.ValueID(local) != id {
			return true // slot reused after truncation; stale posting
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
	if !v.t.Indexed(col) || v.ps.mainIdx[col] == nil {
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

// RebuildIndexes builds the secondary indexes a checkpoint load leaves
// out (ReadCheckpoint), from the column data — the log-based recovery
// path, O(rows) per indexed column: a group-key index over the main
// partition and the delta column's posting lists. It publishes a new
// partition generation carrying them (columns and MVCC unchanged, so the
// epoch does not advance). A table whose indexes exist has nothing to
// rebuild. The caller holds off readers.
func (t *Table) RebuildIndexes() error {
	t.writeMu.Lock()
	defer t.writeMu.Unlock()
	h := t.h
	ps := *t.parts.Load()
	ps.mainIdx = slices.Clone(ps.mainIdx)
	pp := t.psPtr()
	for c, gk := range ps.mainIdx {
		if !t.Indexed(c) || gk != nil {
			continue
		}
		m := ps.main[c]
		gk, err := index.BuildNVMGroupKey(h, m.Rows(), m.DictLen(), m.ValueID)
		if err != nil {
			return err
		}
		if err := ps.delta[c].indexRows(); err != nil {
			return err
		}
		slot := pp.Add(psOffCols + uint64(c)*psColSize + 16)
		h.SetU64(slot, uint64(gk.Root()))
		h.Persist(slot, 8)
		ps.mainIdx[c] = gk
	}
	t.parts.Store(&ps)
	return nil
}

// Blocks yields every heap block reachable from the table — the
// reachability input of nvm.Heap.Scavenge. The table must be quiescent
// while enumerating.
func (t *Table) Blocks(yield func(nvm.PPtr)) {
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
		ps.main[c].Blocks(yield)
		ps.delta[c].Blocks(yield)
		if gk := ps.mainIdx[c]; gk != nil {
			gk.Blocks(yield)
		}
	}
}
