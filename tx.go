package hyrisenv

import (
	"context"
	"errors"
	"fmt"

	"hyrisenv/internal/exec"
	"hyrisenv/internal/shard"
	"hyrisenv/internal/txn"
)

// ErrNoSuchColumn is returned by read methods naming a column the
// table's schema does not have.
var ErrNoSuchColumn = errors.New("hyrisenv: no such column")

// ErrNoSuchRow is returned by RowContext for a physical row ID outside
// the table.
var ErrNoSuchRow = errors.New("hyrisenv: no such row")

// Tx is a transaction. It reads a consistent snapshot taken at Begin and
// buffers writes that become atomically visible — and durable, per the
// database's mode — at Commit. The snapshot spans every shard; a
// transaction whose writes all land on one shard commits on that shard's
// ordinary group-commit path without 2PC, and one that spans shards
// commits with two-phase commit through the persistent coordinator. A Tx
// is not safe for concurrent use.
//
// Read methods are context-aware, return (result, error), and cancel
// in-flight parallel scans when the context is cancelled. The surface
// mirrors the network client's Tx, so code moves between embedded and
// remote use without reshaping.
type Tx struct {
	tx *shard.Tx
}

// Begin starts a transaction.
func (db *DB) Begin() *Tx { return &Tx{tx: db.eng.Begin()} }

// BeginAt starts a read-only transaction reading the database as of a
// historical commit ID — time travel over the insert-only MVCC versions
// (available until a merge compacts the history away). Write operations
// on the returned Tx fail.
func (db *DB) BeginAt(cid uint64) *Tx {
	return &Tx{tx: db.eng.BeginAt(cid)}
}

// LastCommitID returns the current commit horizon, usable with BeginAt.
func (db *DB) LastCommitID() uint64 { return db.eng.LastCID() }

// Internal exposes the transaction-layer handle — the shard-0 part when
// partitioned — to the sibling benchmark, experiment and test code
// inside this module.
func (tx *Tx) Internal() *txn.Txn { return tx.tx.Part(0) }

// Sharded exposes the shard-routing transaction.
func (tx *Tx) Sharded() *shard.Tx { return tx.tx }

// Insert appends a row and returns its physical row ID. On a
// partitioned database the row is routed by its first column and the
// returned row ID is global.
func (tx *Tx) Insert(t *Table, vals ...Value) (uint64, error) {
	return tx.tx.Insert(t.t, vals)
}

// Delete invalidates the row (it stays visible to older snapshots).
func (tx *Tx) Delete(t *Table, row uint64) error {
	return tx.tx.Delete(t.t, row)
}

// Update replaces the row with new values and returns the new version's
// row ID (insert-only MVCC: the old version is invalidated). If the new
// first column hashes to a different shard, the row moves there.
func (tx *Tx) Update(t *Table, row uint64, vals ...Value) (uint64, error) {
	return tx.tx.Update(t.t, row, vals)
}

// Commit makes the transaction's effects visible and durable.
func (tx *Tx) Commit() error { return tx.tx.Commit() }

// Abort rolls the transaction back.
func (tx *Tx) Abort() error { return tx.tx.Abort() }

// Sees reports whether the transaction sees the given physical row.
func (tx *Tx) Sees(t *Table, row uint64) bool { return tx.tx.Sees(t.t, row) }

// Op is a predicate comparison operator.
type Op = exec.Op

// Predicate operators.
const (
	Eq = exec.Eq
	Ne = exec.Ne
	Lt = exec.Lt
	Le = exec.Le
	Gt = exec.Gt
	Ge = exec.Ge
)

// Pred is a single-column predicate for Select.
type Pred struct {
	Col string
	Op  Op
	Val Value
}

// colIndex resolves a column name against t's schema.
func (t *Table) colIndex(name string) (int, error) {
	ci := t.t.Schema.ColIndex(name)
	if ci < 0 {
		return 0, fmt.Errorf("%w: column %q in table %q", ErrNoSuchColumn, name, t.t.Name)
	}
	return ci, nil
}

// preds resolves predicate column names.
func (t *Table) preds(ps []Pred) ([]exec.Pred, error) {
	out := make([]exec.Pred, len(ps))
	for i, p := range ps {
		ci, err := t.colIndex(p.Col)
		if err != nil {
			return nil, err
		}
		out[i] = exec.Pred{Col: ci, Op: p.Op, Val: p.Val}
	}
	return out, nil
}

// SelectContext returns the row IDs satisfying all predicates, using
// secondary indexes where available; other scans run morsel-parallel on
// the database's executor (Config.Parallelism) and stop early when ctx
// is cancelled.
func (tx *Tx) SelectContext(ctx context.Context, t *Table, preds ...Pred) ([]uint64, error) {
	qp, err := t.preds(preds)
	if err != nil {
		return nil, err
	}
	return tx.tx.Select(ctx, t.t, qp...)
}

// SelectRangeContext returns rows whose named column falls in [lo, hi).
func (tx *Tx) SelectRangeContext(ctx context.Context, t *Table, col string, lo, hi Value) ([]uint64, error) {
	ci, err := t.colIndex(col)
	if err != nil {
		return nil, err
	}
	return tx.tx.SelectRange(ctx, t.t, ci, lo, hi)
}

// CountContext returns the number of rows satisfying all predicates.
func (tx *Tx) CountContext(ctx context.Context, t *Table, preds ...Pred) (int, error) {
	qp, err := t.preds(preds)
	if err != nil {
		return 0, err
	}
	return tx.tx.Count(ctx, t.t, qp...)
}

// ScanAllContext returns every visible row ID — SelectContext with no
// predicates.
func (tx *Tx) ScanAllContext(ctx context.Context, t *Table) ([]uint64, error) {
	return tx.SelectContext(ctx, t)
}

// Group is one GROUP BY result row.
type Group = exec.Group

// GroupByContext aggregates all visible rows grouped by column
// groupCol, summing aggCol ("" = count only). Results are ordered by
// group key; on a partitioned database per-shard partials are merged.
func (tx *Tx) GroupByContext(ctx context.Context, t *Table, groupCol, aggCol string) ([]Group, error) {
	gi, err := t.colIndex(groupCol)
	if err != nil {
		return nil, err
	}
	agg := -1
	if aggCol != "" {
		if agg, err = t.colIndex(aggCol); err != nil {
			return nil, err
		}
	}
	return tx.tx.GroupBy(ctx, t.t, gi, agg)
}

// JoinPair couples row IDs of an equi-join result.
type JoinPair = exec.JoinPair

// JoinContext computes the inner equi-join left.leftCol =
// right.rightCol over the rows visible to the transaction. The build
// side runs morsel-parallel; on a partitioned database the build spans
// every shard of the left table.
func (tx *Tx) JoinContext(ctx context.Context, left *Table, leftCol string, right *Table, rightCol string) ([]JoinPair, error) {
	li, err := left.colIndex(leftCol)
	if err != nil {
		return nil, err
	}
	ri, err := right.colIndex(rightCol)
	if err != nil {
		return nil, err
	}
	return tx.tx.HashJoin(ctx, left.t, li, right.t, ri)
}

// Join computes the inner equi-join left.leftCol = right.rightCol over
// the rows visible to the transaction.
func (tx *Tx) Join(left *Table, leftCol string, right *Table, rightCol string) ([]JoinPair, error) {
	return tx.JoinContext(context.Background(), left, leftCol, right, rightCol)
}

// RowContext materializes all columns of a physical row.
func (tx *Tx) RowContext(ctx context.Context, t *Table, row uint64) ([]Value, error) {
	vals, err := tx.tx.Row(ctx, t.t, row)
	if errors.Is(err, shard.ErrNoSuchRow) {
		return nil, fmt.Errorf("%w: row %d of table %q", ErrNoSuchRow, row, t.t.Name)
	}
	return vals, err
}

// OrderBy sorts the row IDs by the named column (in place) using the
// order-preserving dictionary encoding; desc reverses. On a partitioned
// database keys from different shards' dictionaries compare directly
// (the encoding is order-preserving on values).
func (tx *Tx) OrderBy(t *Table, rows []uint64, col string, desc bool) ([]uint64, error) {
	ci, err := t.colIndex(col)
	if err != nil {
		return nil, err
	}
	return tx.tx.OrderBy(t.t, rows, ci, desc)
}

// TopK returns the k groups with the largest Sum.
func TopK(groups []Group, k int) []Group { return exec.TopK(groups, k) }

// Limit returns at most n of rows starting at offset.
func Limit(rows []uint64, offset, n int) []uint64 { return exec.Limit(rows, offset, n) }
