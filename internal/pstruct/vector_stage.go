//go:build !crosscheck_noelemflush

package pstruct

import "hyrisenv/internal/nvm"

// putElems writes vals as consecutive elements starting at p, inside one
// segment, and flushes their lines: the stage half's store. It is a file
// of its own so that `make crosscheck` can swap in the seeded-bug variant
// (vector_stage_seeded.go) by build tag.
//
// Under the runtime switch brokenSkipElemPersist the flush covers no
// bytes. That is a length, not a branch, on purpose: the static
// analyzers see a correct protocol here and are shown the broken one by
// the build tag, where they must flag it.
func (v *Vector) putElems(p nvm.PPtr, vals ...uint64) {
	for j, val := range vals {
		v.writeElem(p.Add(uint64(j)*v.elemSize), val)
	}
	n := uint64(len(vals)) * v.elemSize
	if brokenSkipElemPersist.Load() {
		n = 0
	}
	v.h.Flush(p, n)
}
