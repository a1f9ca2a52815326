//go:build crosscheck_noelemflush

package pstruct

import "hyrisenv/internal/nvm"

// putElems, seeded bug: the stage half leaves the elements it wrote
// dirty, so Publish advances the length over lines that may never reach
// NVM. The analyzers must flag Append and the shadow crash sweep must
// find the lost elements (see internal/crashtest/seeded_test.go).
func (v *Vector) putElems(p nvm.PPtr, vals ...uint64) {
	for j, val := range vals {
		v.writeElem(p.Add(uint64(j)*v.elemSize), val)
	}
}
