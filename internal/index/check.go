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
// a valid main row.
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
		return fmt.Errorf("groupkey %d: %d offsets for dictionary of %d", g.root, got, dictLen)
	}
	if got := g.positions.Len(); got != rows {
		errs = append(errs, fmt.Errorf("groupkey %d: %d positions for %d rows", g.root, got, rows))
	}
	if err := g.offsets.CheckValues(rows + 1); err != nil {
		return errors.Join(append(errs, fmt.Errorf("groupkey %d: offsets: %w", g.root, err))...)
	}
	prev := uint64(0)
	for i := uint64(0); i <= dictLen; i++ {
		off := g.offsets.Get(i)
		if off < prev {
			errs = append(errs, fmt.Errorf("groupkey %d: offsets not monotone at %d", g.root, i))
		}
		prev = off
	}
	if final := g.offsets.Get(dictLen); final != g.positions.Len() {
		errs = append(errs, fmt.Errorf("groupkey %d: final offset %d != positions %d",
			g.root, final, g.positions.Len()))
	}
	if err := g.positions.CheckValues(rows); err != nil {
		errs = append(errs, fmt.Errorf("groupkey %d: positions: %w", g.root, err))
	}
	return errors.Join(errs...)
}
