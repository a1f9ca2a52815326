package exec

import (
	"context"
	"fmt"

	"hyrisenv/internal/storage"
	"hyrisenv/internal/txn"
)

// JoinPair couples a left and a right row ID satisfying an equi-join.
type JoinPair struct {
	Left  uint64
	Right uint64
}

// HashJoin computes the inner equi-join left.leftCol = right.rightCol
// over the rows visible to tx, the standard column-store way: the build
// side hashes *dictionary keys* (so each distinct value is encoded
// once), the probe side resolves its value IDs through per-dictionary
// memo tables. The build side is scanned morsel-parallel — each morsel
// produces a partial table and the partials are merged in morsel order,
// so build rows stay in ascending order per key and the final pair list
// is identical to a serial join. Both Views are captured once, so the
// result is consistent under concurrent merges.
//
// The join columns must have the same type.
func (e *Executor) HashJoin(ctx context.Context, tx *txn.Txn, left *storage.Table, leftCol int, right *storage.Table, rightCol int) ([]JoinPair, error) {
	if err := checkCol(left, leftCol); err != nil {
		return nil, err
	}
	if err := checkCol(right, rightCol); err != nil {
		return nil, err
	}
	lt := left.Schema.Cols[leftCol].Type
	rt := right.Schema.Cols[rightCol].Type
	if lt != rt {
		return nil, fmt.Errorf("%w: join column types differ (%s vs %s)", ErrBadValue, lt, rt)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ls, rs := newTableScan(tx, left, nil), newTableScan(tx, right, nil)

	// Build phase over the (usually smaller) left side: encoded value
	// key -> row IDs, one partial table per morsel.
	lmain, ldelta := ls.v.MainColumnAt(leftCol), ls.v.DeltaColumnAt(leftCol)
	parts := make([]map[string][]uint64, (ls.rows+MorselRows-1)/MorselRows)
	workers := make(scanWorkers, e.par)
	err := e.forEachMorsel(ctx, ls.rows, func(worker, slot int, lo, hi uint64) error {
		w := workers.get(worker)
		part := map[string][]uint64{}
		add := func(key []byte, row uint64) { part[string(key)] = append(part[string(key)], row) }
		ls.forEachBlock(w, lo, hi, func(first uint64, n int) {
			bm := w.bitmap(n)
			if first < ls.mainRows {
				lmain.UnpackIDs(first, first+uint64(n), w.ids[:])
				forEachRow(bm, func(i int) { add(lmain.DictKey(uint64(w.ids[i])), first+uint64(i)) })
			} else {
				ldelta.LoadIDs(first-ls.mainRows, w.ids[:n])
				forEachRow(bm, func(i int) { add(ldelta.DictKey(uint64(w.ids[i])), first+uint64(i)) })
			}
		})
		parts[slot] = part
		return nil
	})
	if err != nil {
		return nil, err
	}
	build := map[string][]uint64{}
	for _, part := range parts {
		for k, rows := range part {
			build[k] = append(build[k], rows...)
		}
	}

	// Probe phase. It emits pairs in right-row order, so it stays serial
	// to keep the output deterministic; the build table is consulted once
	// per dictionary ID of the probe column, not per row.
	var out []JoinPair
	rmain, rdelta := rs.v.MainColumnAt(rightCol), rs.v.DeltaColumnAt(rightCol)
	mainHits, deltaHits := newDictMemo[[]uint64](rmain.DictLen()), newDictMemo[[]uint64](rdelta.DictLen())
	mainLefts := func(id uint64) []uint64 { return build[string(rmain.DictKey(id))] }
	deltaLefts := func(id uint64) []uint64 { return build[string(rdelta.DictKey(id))] }
	w := new(scanWorker)
	for lo := uint64(0); lo < rs.rows; lo += MorselRows {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rs.forEachBlock(w, lo, min(lo+MorselRows, rs.rows), func(first uint64, n int) {
			bm := w.bitmap(n)
			emit := func(i int, lefts []uint64) {
				for _, l := range lefts {
					out = append(out, JoinPair{Left: l, Right: first + uint64(i)})
				}
			}
			if first < rs.mainRows {
				rmain.UnpackIDs(first, first+uint64(n), w.ids[:])
				forEachRow(bm, func(i int) { emit(i, mainHits.get(uint64(w.ids[i]), mainLefts)) })
			} else {
				rdelta.LoadIDs(first-rs.mainRows, w.ids[:n])
				forEachRow(bm, func(i int) { emit(i, deltaHits.get(uint64(w.ids[i]), deltaLefts)) })
			}
		})
	}
	return out, nil
}

// dictMemo caches a function of the dictionary IDs of one column, so
// that it is computed once per distinct value a scan meets, not per row.
type dictMemo[T any] struct {
	val   []T
	known []bool
}

func newDictMemo[T any](dictLen uint64) dictMemo[T] {
	return dictMemo[T]{val: make([]T, dictLen), known: make([]bool, dictLen)}
}

func (m *dictMemo[T]) get(id uint64, compute func(id uint64) T) T {
	if !m.known[id] {
		m.known[id] = true
		m.val[id] = compute(id)
	}
	return m.val[id]
}
