package exec

import (
	"context"

	"hyrisenv/internal/storage"
	"hyrisenv/internal/txn"
)

// Op is a comparison operator.
type Op int

// Comparison operators.
const (
	Eq Op = iota
	Ne
	Lt
	Le
	Gt
	Ge
)

// Pred is a single-column predicate `col OP val`.
type Pred struct {
	Col int
	Op  Op
	Val storage.Value
}

// matches evaluates the operator against an order-preserving key
// comparison result (cmp = bytes.Compare(rowKey, predKey)).
func (o Op) matches(cmp int) bool {
	switch o {
	case Eq:
		return cmp == 0
	case Ne:
		return cmp != 0
	case Lt:
		return cmp < 0
	case Le:
		return cmp <= 0
	case Gt:
		return cmp > 0
	case Ge:
		return cmp >= 0
	default:
		return false
	}
}

// checkPreds validates every predicate against the schema.
func checkPreds(tbl *storage.Table, preds []Pred) error {
	for _, p := range preds {
		if err := checkColValue(tbl, p.Col, p.Val); err != nil {
			return err
		}
	}
	return nil
}

// lookupEq answers a single equality predicate on an indexed column from
// the index — already sub-linear, so it stays serial. ok is false when
// preds is anything else, or the index cannot answer.
func lookupEq(tx *txn.Txn, tbl *storage.Table, preds []Pred) (rows []uint64, ok bool) {
	if len(preds) != 1 || preds[0].Op != Eq || !tbl.Indexed(preds[0].Col) {
		return nil, false
	}
	tx.PinEpoch(tbl)
	v := tbl.View()
	ok = v.LookupRows(preds[0].Col, preds[0].Val.EncodeKey(nil), func(row uint64) bool {
		if tx.SeesIn(v, tbl, row) {
			rows = append(rows, row)
		}
		return true
	})
	return rows, ok
}

// Select returns the row IDs visible to tx that satisfy all preds, in
// ascending row-ID order. A single equality predicate on an indexed
// column uses the index; everything else is a morsel-parallel scan.
func (e *Executor) Select(ctx context.Context, tx *txn.Txn, tbl *storage.Table, preds ...Pred) ([]uint64, error) {
	if err := checkPreds(tbl, preds); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if rows, ok := lookupEq(tx, tbl, preds); ok {
		return rows, nil
	}
	return e.selectScan(ctx, newTableScan(tx, tbl, preds))
}

// selectScan returns the rows s leaves, ascending.
func (e *Executor) selectScan(ctx context.Context, s *tableScan) ([]uint64, error) {
	// Matching row IDs per morsel slot, ascending within and across slots.
	slots := make([][]uint64, (s.rows+MorselRows-1)/MorselRows)
	workers := make(scanWorkers, e.par)
	err := e.forEachMorsel(ctx, s.rows, func(worker, slot int, lo, hi uint64) error {
		w := workers.get(worker)
		var rows []uint64
		s.forEachBlock(w, lo, hi, func(first uint64, n int) {
			forEachRow(w.bitmap(n), func(i int) { rows = append(rows, first+uint64(i)) })
		})
		slots[slot] = rows
		return nil
	})
	if err != nil {
		return nil, err
	}
	var n int
	for _, rows := range slots {
		n += len(rows)
	}
	out := make([]uint64, 0, n)
	for _, rows := range slots {
		out = append(out, rows...)
	}
	return out, nil
}

// Count returns the number of rows visible to tx satisfying preds: the
// index answers a single equality predicate on an indexed column, a scan
// that only counts the bits of each block's result everything else.
func (e *Executor) Count(ctx context.Context, tx *txn.Txn, tbl *storage.Table, preds ...Pred) (int, error) {
	if err := checkPreds(tbl, preds); err != nil {
		return 0, err
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if rows, ok := lookupEq(tx, tbl, preds); ok {
		return len(rows), nil
	}
	return e.countScan(ctx, newTableScan(tx, tbl, preds))
}

// countScan counts the rows s leaves.
func (e *Executor) countScan(ctx context.Context, s *tableScan) (int, error) {
	counts := make([]int, (s.rows+MorselRows-1)/MorselRows)
	workers := make(scanWorkers, e.par)
	err := e.forEachMorsel(ctx, s.rows, func(worker, slot int, lo, hi uint64) error {
		w := workers.get(worker)
		n := 0
		s.forEachBlock(w, lo, hi, func(_ uint64, rows int) { n += ones(w.bitmap(rows)) })
		counts[slot] = n
		return nil
	})
	if err != nil {
		return 0, err
	}
	var n int
	for _, c := range counts {
		n += c
	}
	return n, nil
}

// ScanAll returns every row visible to tx — Select with no predicates.
func (e *Executor) ScanAll(ctx context.Context, tx *txn.Txn, tbl *storage.Table) ([]uint64, error) {
	return e.Select(ctx, tx, tbl)
}

// SelectRange returns rows visible to tx whose column col falls in
// [lo, hi) — resolved through the index when available, otherwise a
// morsel-parallel scan of the equivalent Ge/Lt predicate pair.
func (e *Executor) SelectRange(ctx context.Context, tx *txn.Txn, tbl *storage.Table, col int, lo, hi storage.Value) ([]uint64, error) {
	if err := checkColValue(tbl, col, lo); err != nil {
		return nil, err
	}
	if err := checkColValue(tbl, col, hi); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	tx.PinEpoch(tbl)
	loK, hiK := lo.EncodeKey(nil), hi.EncodeKey(nil)
	v := tbl.View()
	var out []uint64
	if v.LookupRowsInRange(col, loK, hiK, func(row uint64) bool {
		if tx.SeesIn(v, tbl, row) {
			out = append(out, row)
		}
		return true
	}) {
		return out, nil
	}
	return e.Select(ctx, tx, tbl, Pred{Col: col, Op: Ge, Val: lo}, Pred{Col: col, Op: Lt, Val: hi})
}
