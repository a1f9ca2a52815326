package index

import (
	"errors"
	"fmt"
)

// Structural checker for the persistent group-key index, used by the NVM
// fsck. It walks the structure read-only and reports every violation.

// Check verifies the persistent group-key index against the main
// partition it covers: the CSR offsets are monotone over exactly dictLen
// buckets, they span exactly the positions vector, and every position is
// a valid main row in ascending order within its bucket.
func (g *NVMGroupKey) Check(rows, dictLen uint64) error {
	var errs []error
	if err := g.h.CheckBlock(g.root, ngkRootSize); err != nil {
		return fmt.Errorf("groupkey %d: root: %w", g.root, err)
	}
	if err := g.offsets.Check(); err != nil {
		return fmt.Errorf("groupkey %d: offsets: %w", g.root, err)
	}
	if err := g.positions.Check(); err != nil {
		return fmt.Errorf("groupkey %d: positions: %w", g.root, err)
	}
	if got := g.offsets.Len(); got != dictLen+1 {
		errs = append(errs, fmt.Errorf("groupkey %d: %d offsets for dictionary of %d", g.root, got, dictLen))
		return errors.Join(errs...)
	}
	if got := g.positions.Len(); got != rows {
		errs = append(errs, fmt.Errorf("groupkey %d: %d positions for %d rows", g.root, got, rows))
	}
	prev := uint64(0)
	for i := uint64(0); i <= dictLen; i++ {
		off := g.offsets.Get(i)
		if off < prev {
			errs = append(errs, fmt.Errorf("groupkey %d: offsets not monotone at %d", g.root, i))
		}
		if off > g.positions.Len() {
			errs = append(errs, fmt.Errorf("groupkey %d: offset %d at %d beyond positions", g.root, off, i))
		}
		prev = off
	}
	if dictLen > 0 && g.offsets.Get(dictLen) != g.positions.Len() {
		errs = append(errs, fmt.Errorf("groupkey %d: final offset %d != positions %d",
			g.root, g.offsets.Get(dictLen), g.positions.Len()))
	}
	g.positions.Scan(func(i, pos uint64) bool {
		if pos >= rows {
			errs = append(errs, fmt.Errorf("groupkey %d: position %d at %d beyond %d rows", g.root, pos, i, rows))
			return false
		}
		return true
	})
	return errors.Join(errs...)
}
