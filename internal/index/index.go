// Package index provides the group-key index of the Hyrise architecture
// over the read-optimized main partition: a CSR (offsets + positions)
// layout mapping each dictionary value ID to the sorted list of rows
// carrying it, in two vectors on the table's heap. It is built wholesale
// at merge time and immutable afterwards. On NVM it is valid
// immediately after restart (the Hyrise-NV design); the log-based
// baseline, whose heap does not persist, rebuilds it during recovery —
// a dominant component of its restart time.
//
// The delta partition's index is no structure of its own: a delta
// column of an indexed column keeps a posting list of rows per
// dictionary value ID (storage.DeltaColumn.Postings), so the dictionary
// that finds a key's value ID finds its rows too.
package index

import (
	"hyrisenv/internal/nvm"
	"hyrisenv/internal/pstruct"
)

// groupKey is the CSR layout by counting sort over the attribute vector
// (O(rows + dict)): positions[offsets[id] : offsets[id+1]] are the rows
// whose value ID is id, ascending.
func groupKey(rows, dictLen uint64, idAt func(row uint64) uint64) (offsets, positions []uint64) {
	offsets = make([]uint64, dictLen+1)
	for r := uint64(0); r < rows; r++ {
		offsets[idAt(r)+1]++
	}
	for i := 1; i <= int(dictLen); i++ {
		offsets[i] += offsets[i-1]
	}
	positions = make([]uint64, rows)
	cursor := make([]uint64, dictLen)
	for r := uint64(0); r < rows; r++ {
		id := idAt(r)
		positions[offsets[id]+cursor[id]] = r
		cursor[id]++
	}
	return offsets, positions
}

// --- NVM group-key ----------------------------------------------------------------

// NVM group-key root: offsetsVec u64 | positionsVec u64.
const ngkRootSize = 16

// NVMGroupKey is the group-key index: the CSR layout in two vectors.
// Attach is O(1).
type NVMGroupKey struct {
	h         *nvm.Heap
	root      nvm.PPtr
	offsets   *pstruct.Vector
	positions *pstruct.Vector
}

// BuildNVMGroupKey constructs and persists a group-key index.
func BuildNVMGroupKey(h *nvm.Heap, rows, dictLen uint64, idAt func(row uint64) uint64) (*NVMGroupKey, error) {
	offsets, positions := groupKey(rows, dictLen, idAt)
	off, err := pstruct.NewVector(h, 8, 10)
	if err != nil {
		return nil, err
	}
	if _, err := off.AppendN(offsets); err != nil {
		return nil, err
	}
	pos, err := pstruct.NewVector(h, 8, 10)
	if err != nil {
		return nil, err
	}
	if _, err := pos.AppendN(positions); err != nil {
		return nil, err
	}
	root, err := h.Alloc(ngkRootSize)
	if err != nil {
		return nil, err
	}
	h.PutU64(root, uint64(off.Root()))
	h.PutU64(root.Add(8), uint64(pos.Root()))
	h.Persist(root, ngkRootSize)
	return &NVMGroupKey{h: h, root: root, offsets: off, positions: pos}, nil
}

// AttachNVMGroupKey re-hydrates a persistent group-key index in O(1).
func AttachNVMGroupKey(h *nvm.Heap, root nvm.PPtr) *NVMGroupKey {
	return &NVMGroupKey{
		h:         h,
		root:      root,
		offsets:   pstruct.AttachVector(h, nvm.PPtr(h.GetU64(root))),
		positions: pstruct.AttachVector(h, nvm.PPtr(h.GetU64(root.Add(8)))),
	}
}

// Root returns the persistent root pointer.
func (g *NVMGroupKey) Root() nvm.PPtr { return g.root }

// Rows yields the main rows with the given value ID.
func (g *NVMGroupKey) Rows(id uint64, fn func(row uint64) bool) {
	if id+1 >= g.offsets.Len() {
		return
	}
	start, end := g.offsets.Get(id), g.offsets.Get(id+1)
	for i := start; i < end; i++ {
		if !fn(g.positions.Get(i)) {
			return
		}
	}
}

// RowsInIDRange yields rows whose value ID falls in [lo, hi).
func (g *NVMGroupKey) RowsInIDRange(lo, hi uint64, fn func(row uint64) bool) {
	for id := lo; id < hi; id++ {
		done := false
		g.Rows(id, func(r uint64) bool {
			if !fn(r) {
				done = true
				return false
			}
			return true
		})
		if done {
			return
		}
	}
}

// Blocks yields the heap blocks owned by the group-key index.
func (g *NVMGroupKey) Blocks(yield func(nvm.PPtr)) {
	yield(g.root)
	g.offsets.Blocks(yield)
	g.positions.Blocks(yield)
}
