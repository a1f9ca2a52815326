package exec

import (
	"context"
	"sort"

	"hyrisenv/internal/storage"
	"hyrisenv/internal/txn"
)

// Group is one group-by result row.
type Group struct {
	Key   storage.Value
	Count int
	Sum   float64 // sum of the aggregate column (int columns are widened)
}

// acc is one partial aggregate.
type acc struct {
	count int
	sum   float64
}

func (a *acc) add(v float64) {
	a.count++
	a.sum += v
}

func (a *acc) merge(b acc) {
	a.count += b.count
	a.sum += b.sum
}

// groupState is one worker's partial aggregation: a dense array of
// accumulators per dictionary ID of the grouping column — grouping on
// value IDs, the column-store way — for either partition, so a group key
// is decoded once per distinct value, not per row.
type groupState struct {
	mainAccs, deltaAccs []acc
	agg                 [blockRows]float64 // the aggregate input of each row of the block
}

// aggInputs decodes what each dictionary ID of an aggregate column adds
// to a sum (int columns are widened), a morsel of IDs per worker at a
// time. A dictionary is no longer than its partition, and is laid out in
// ID order, so this one sequential pass costs less than decoding IDs as
// rows turn them up — the rows of a scan visit the dictionary at random.
func (e *Executor) aggInputs(ctx context.Context, dictLen uint64, value func(id uint64) storage.Value) ([]float64, error) {
	inputs := make([]float64, dictLen)
	err := e.forEachMorsel(ctx, dictLen, func(_, _ int, lo, hi uint64) error {
		for id := lo; id < hi; id++ {
			if v := value(id); v.T == storage.TypeInt64 {
				inputs[id] = float64(v.I)
			} else {
				inputs[id] = v.F
			}
		}
		return nil
	})
	return inputs, err
}

// GroupBy aggregates all rows visible to tx, grouped by groupCol and
// summing aggCol (pass aggCol < 0 for count-only). Each worker
// accumulates partial aggregates per value ID over the blocks it
// filters, and the partials are merged, folded by decoded key and sorted
// by it, so the result ordering is deterministic. (Float64 sums are
// merged in worker order; as with any parallel floating-point reduction
// the low bits can differ from a serial run.)
func (e *Executor) GroupBy(ctx context.Context, tx *txn.Txn, tbl *storage.Table, groupCol, aggCol int) ([]Group, error) {
	if err := checkCol(tbl, groupCol); err != nil {
		return nil, err
	}
	if aggCol >= 0 {
		if err := checkCol(tbl, aggCol); err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s := newTableScan(tx, tbl, nil)
	mainCol, deltaCol := s.v.MainColumnAt(groupCol), s.v.DeltaColumnAt(groupCol)
	// Dictionary sizes are read after the row bound: a scanned row holds
	// no ID beyond them.
	mainDict, deltaDict := mainCol.DictLen(), deltaCol.DictLen()
	var mainAggCol storage.MainColumn
	var deltaAggCol storage.DeltaColumn
	var mainInputs, deltaInputs []float64
	if aggCol >= 0 {
		mainAggCol, deltaAggCol = s.v.MainColumnAt(aggCol), s.v.DeltaColumnAt(aggCol)
		var err error
		if mainInputs, err = e.aggInputs(ctx, mainAggCol.DictLen(), mainAggCol.DictValue); err != nil {
			return nil, err
		}
		if deltaInputs, err = e.aggInputs(ctx, deltaAggCol.DictLen(), deltaAggCol.DictValue); err != nil {
			return nil, err
		}
	}

	workers := make(scanWorkers, e.par)
	states := make([]*groupState, e.par)
	err := e.forEachMorsel(ctx, s.rows, func(worker, slot int, lo, hi uint64) error {
		w, st := workers.get(worker), states[worker]
		if st == nil {
			st = &groupState{mainAccs: make([]acc, mainDict), deltaAccs: make([]acc, deltaDict)}
			states[worker] = st
		}
		s.forEachBlock(w, lo, hi, func(first uint64, n int) {
			bm := w.bitmap(n)
			if first < s.mainRows {
				if aggCol >= 0 {
					mainAggCol.UnpackIDs(first, first+uint64(n), w.ids[:])
					for i, id := range w.ids[:n] {
						st.agg[i] = mainInputs[id]
					}
				}
				mainCol.UnpackIDs(first, first+uint64(n), w.ids[:])
				forEachRow(bm, func(i int) { st.mainAccs[w.ids[i]].add(st.agg[i]) })
			} else {
				if aggCol >= 0 {
					deltaAggCol.LoadIDs(first-s.mainRows, w.ids[:n])
					for i, id := range w.ids[:n] {
						st.agg[i] = deltaInputs[id]
					}
				}
				deltaCol.LoadIDs(first-s.mainRows, w.ids[:n])
				forEachRow(bm, func(i int) { st.deltaAccs[w.ids[i]].add(st.agg[i]) })
			}
		})
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Merge the workers' partials per value ID in worker order, then fold
	// both partitions' accumulators by decoded key.
	mainAccs, deltaAccs := make([]acc, mainDict), make([]acc, deltaDict)
	for _, st := range states {
		if st == nil {
			continue
		}
		for id, a := range st.mainAccs {
			mainAccs[id].merge(a)
		}
		for id, a := range st.deltaAccs {
			deltaAccs[id].merge(a)
		}
	}
	byKey := map[string]*acc{}
	fold := func(accs []acc, dictKey func(id uint64) []byte) {
		for id, a := range accs {
			if a.count == 0 {
				continue
			}
			k := string(dictKey(uint64(id)))
			if ex := byKey[k]; ex != nil {
				ex.merge(a)
			} else {
				cp := a
				byKey[k] = &cp
			}
		}
	}
	fold(deltaAccs, deltaCol.DictKey)
	fold(mainAccs, mainCol.DictKey)

	typ := tbl.Schema.Cols[groupCol].Type
	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Group, len(keys))
	for i, k := range keys {
		a := byKey[k]
		out[i] = Group{Key: storage.DecodeValue(typ, []byte(k)), Count: a.count, Sum: a.sum}
	}
	return out, nil
}

// TopK returns the k groups with the largest Sum (ties broken by key
// order), from a GroupBy result.
func TopK(groups []Group, k int) []Group {
	sorted := append([]Group(nil), groups...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Sum > sorted[j].Sum })
	if k > len(sorted) {
		k = len(sorted)
	}
	return sorted[:k]
}
