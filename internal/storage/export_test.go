package storage

import (
	"hyrisenv/internal/nvm"
	"hyrisenv/internal/pstruct"
)

// Space is one structure's share of a table's heap: the bytes of its
// blocks, each with its 16-byte header, and the bytes of them that hold
// data — a vector's root and its elements up to its length, an arena's
// roots and its bytes up to its cursor, the whole of a block built once.
type Space struct {
	Part           string
	Alloc, Written uint64
}

// SpaceOf returns the footprint of the table's current generation, one
// entry per structure: for each column its main column, its group-key
// index if it has one, and its delta's dictionary vector, dictionary
// index, attribute vector and posting-list heads; then the main and the
// delta MVCC vectors.
func SpaceOf(t *Table) []Space {
	h, ps := t.h, t.parts.Load()
	var out []Space
	add := func(part string, blocks func(func(nvm.PPtr)), written uint64) {
		s := Space{Part: part, Written: written}
		blocks(func(p nvm.PPtr) { s.Alloc += 16 + h.BlockSize(p) })
		out = append(out, s)
	}
	whole := func(part string, blocks func(func(nvm.PPtr))) {
		var n uint64
		blocks(func(p nvm.PPtr) { n += h.BlockSize(p) })
		add(part, blocks, n)
	}
	vec := func(part string, v *pstruct.Vector, elemSize uint64) {
		add(part, v.Blocks, h.BlockSize(v.Root())+v.Len()*elemSize)
	}
	for c, col := range t.Schema.Cols {
		whole("main "+col.Name, ps.main[c].Blocks)
		if gk := ps.mainIdx[c]; gk != nil {
			whole("main "+col.Name+" group-key index", gk.Blocks)
		}
		d := ps.delta[c]
		vec("delta "+col.Name+" dictionary vector", d.dictVec, 8)
		a := d.idx.Arena()
		add("delta "+col.Name+" dictionary index", d.idx.Blocks, h.BlockSize(d.idx.Root())+h.BlockSize(a.Root())+a.Used())
		vec("delta "+col.Name+" attribute vector", d.av, 4)
		if d.heads != nil {
			vec("delta "+col.Name+" posting heads", d.heads, 8)
		}
	}
	pp := t.psPtr()
	for _, s := range []struct {
		part string
		off  uint64
	}{
		{"main MVCC begin", psOffMainBegin},
		{"main MVCC end", psOffMainEnd},
		{"delta MVCC begin", psOffDeltaBegin},
		{"delta MVCC end", psOffDeltaEnd},
	} {
		vec(s.part, pstruct.AttachVector(h, nvm.PPtr(h.GetU64(pp.Add(s.off)))), 8)
	}
	return out
}
