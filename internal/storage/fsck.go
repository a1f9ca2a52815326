package storage

import (
	"bytes"
	"errors"
	"fmt"

	"hyrisenv/internal/mvcc"
	"hyrisenv/internal/nvm"
	"hyrisenv/internal/pstruct"
)

// Deep structural fsck of an NVM-resident table: where Check verifies
// logical consistency (row counts, dictionary order, stamp sanity,
// visibility census, index agreement) through the normal read paths,
// FsckNVM walks the *persistent representation* — root blocks, partition
// set, every vector segment, dictionary blob, hash-dictionary bucket and record, posting
// list and bit-packed payload — and verifies that each pointer lands on
// a Reserved heap block of sufficient size and that each structure's
// own invariants hold. Together with nvm.Heap.Fsck and
// mvcc.Store.Check this is the full "fsck" the crash matrix runs after
// every enumerated crash point.

// checkBlobPtr verifies p points at a complete, in-bounds blob.
func checkBlobPtr(h *nvm.Heap, p nvm.PPtr) error {
	if err := h.CheckBlock(p, 4); err != nil {
		return err
	}
	return h.CheckBlock(p, 4+uint64(h.GetU32(p)))
}

// Check verifies the persistent representation of the main column.
func (m *NVMMain) Check() error {
	var errs []error
	if err := m.h.CheckBlock(m.root, nmRootSize); err != nil {
		return fmt.Errorf("main column %d: root: %w", m.root, err)
	}
	if err := m.CheckDict(); err != nil {
		errs = append(errs, fmt.Errorf("main column %d: dictionary: %w", m.root, err))
	}
	if err := m.bp.Check(); err != nil {
		errs = append(errs, fmt.Errorf("main column %d: attribute vector: %w", m.root, err))
	}
	return errors.Join(errs...)
}

// Check verifies the persistent representation of the delta column.
func (d *NVMDelta) Check() error {
	var errs []error
	if err := d.h.CheckBlock(d.root, ndRootSize); err != nil {
		return fmt.Errorf("delta column %d: root: %w", d.root, err)
	}
	if err := d.av.Check(); err != nil {
		errs = append(errs, fmt.Errorf("delta column %d: attribute vector: %w", d.root, err))
	}
	if err := d.idx.Check(); err != nil {
		// The dictionary's keys lie in the index's arena; without a sound
		// arena they cannot be bounds-checked.
		errs = append(errs, fmt.Errorf("delta column %d: dictionary index: %w", d.root, err))
		return errors.Join(errs...)
	}
	if err := d.dictVec.Check(); err != nil {
		errs = append(errs, fmt.Errorf("delta column %d: dictionary vector: %w", d.root, err))
		return errors.Join(errs...)
	}
	// Every dictionary entry is a complete key inside the index's arena;
	// every entry of the index names a dictionary entry that holds its
	// key. A dictionary entry no index entry names is the benign leftover
	// of a crash between the publish words; an index entry whose ID the
	// dictionary does not (yet) have would hand that ID to two values.
	arena := d.idx.Arena()
	d.dictVec.Scan(func(id, ref uint64) bool {
		err := arena.ContainsBlob(nvm.PPtr(ref))
		if err != nil {
			errs = append(errs, fmt.Errorf("delta column %d: dictionary key %d: %w", d.root, id, err))
		}
		return err == nil
	})
	if len(errs) > 0 {
		return errors.Join(errs...)
	}
	d.idx.Scan(func(key []byte, id uint64) bool {
		if id >= d.dictVec.Len() {
			errs = append(errs, fmt.Errorf("delta column %d: index maps %q to value ID %d, beyond the dictionary's %d", d.root, key, id, d.dictVec.Len()))
		} else if !bytes.Equal(d.DictKey(id), key) {
			errs = append(errs, fmt.Errorf("delta column %d: index maps %q to value ID %d, which holds %q", d.root, key, id, d.DictKey(id)))
		}
		return true
	})
	if d.heads == nil {
		return errors.Join(errs...)
	}
	// An indexed column has a posting-list head per dictionary entry, and
	// every posting node lies in the index's arena.
	if err := d.heads.Check(); err != nil {
		errs = append(errs, fmt.Errorf("delta column %d: heads vector: %w", d.root, err))
		return errors.Join(errs...)
	}
	if hl, dl := d.heads.Len(), d.dictVec.Len(); hl != dl {
		errs = append(errs, fmt.Errorf("delta column %d: %d posting-list heads for a dictionary of %d", d.root, hl, dl))
	}
	d.heads.Scan(func(id, head uint64) bool {
		if err := pstruct.ListCheck(d.h, head, arena.Contains); err != nil {
			errs = append(errs, fmt.Errorf("delta column %d: value ID %d: %w", d.root, id, err))
		}
		return true
	})
	return errors.Join(errs...)
}

// FsckNVM walks the table's representation on its heap. lastCID bounds
// the MVCC stamp checks (the manager's recovered last-committed CID).
func (t *Table) FsckNVM(lastCID uint64) error {
	h := t.h
	var errs []error
	fail := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf("table %s: "+format, append([]any{t.Name}, args...)...))
	}
	if err := h.CheckBlock(t.root, trRootSize); err != nil {
		fail("root: %w", err)
		return errors.Join(errs...)
	}
	if sb := nvm.PPtr(h.GetU64(t.root.Add(trOffSchema))); sb.IsNil() {
		fail("schema blob pointer is nil")
	} else if err := checkBlobPtr(h, sb); err != nil {
		fail("schema blob: %w", err)
	}
	ncols := t.Schema.NumCols()
	pp := t.psPtr()
	if err := h.CheckBlock(pp, psSize(ncols)); err != nil {
		fail("partition set: %w", err)
		return errors.Join(errs...)
	}
	if got := h.GetU64(pp.Add(psOffNCols)); got != uint64(ncols) {
		fail("partition set records %d columns, schema has %d", got, ncols)
		return errors.Join(errs...)
	}

	// MVCC vectors: structural + stamp invariants.
	ps := t.parts.Load()
	for _, part := range []struct {
		name  string
		store *mvcc.Store
	}{{"main", ps.mainMVCC}, {"delta", ps.deltaMVCC}} {
		if err := part.store.Check(lastCID); err != nil {
			fail("%s MVCC: %w", part.name, err)
		}
	}

	for c := 0; c < ncols; c++ {
		if err := ps.main[c].Check(); err != nil {
			fail("column %d: %w", c, err)
		}
		if err := ps.delta[c].Check(); err != nil {
			fail("column %d: %w", c, err)
		}
		if gk := ps.mainIdx[c]; gk != nil {
			if err := gk.Check(ps.main[c].Rows(), ps.main[c].DictLen()); err != nil {
				fail("column %d: %w", c, err)
			}
		}
	}
	return errors.Join(errs...)
}
