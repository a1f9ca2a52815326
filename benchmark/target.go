package main

import (
	"bytes"
	"context"
	"fmt"

	"hyrisenv"
	"hyrisenv/client"
	"hyrisenv/internal/core"
	"hyrisenv/internal/exec"
	"hyrisenv/internal/shard"
	"hyrisenv/internal/storage"
	"hyrisenv/internal/txn"
)

type pred = hyrisenv.Pred

// target is one boundary of the stack, reduced to the calls the
// workloads make. The workloads are written once against it; the traced
// ladder runs them at every boundary, the untraced run only at the
// outermost one. Reads are one-shot: each sees a fresh snapshot at the
// commit horizon, which is what the server does for a read outside a
// transaction.
type target interface {
	selectRows(preds ...pred) ([]uint64, error)
	count(preds ...pred) (int, error)
	// rangeRows returns the rows whose id is in [lo, hi), through the index.
	rangeRows(lo, hi int64) ([]uint64, error)
	row(rid uint64) ([]hyrisenv.Value, error)
	begin() (wtx, error)
}

// wtx is a write transaction at a boundary.
type wtx interface {
	insert(vals []hyrisenv.Value) (uint64, error)
	update(rid uint64, vals []hyrisenv.Value) (uint64, error)
	delete(rid uint64) error
	commit() error
}

var bg = context.Background()

func colIndex(name string) int {
	for i, c := range schema {
		if c.Name == name {
			return i
		}
	}
	panic("benchmark: no column " + name)
}

func execPreds(preds []pred) []exec.Pred {
	out := make([]exec.Pred, len(preds))
	for i, p := range preds {
		out[i] = exec.Pred{Col: colIndex(p.Col), Op: p.Op, Val: p.Val}
	}
	return out
}

var allCols = func() []int {
	cols := make([]int, numCols)
	for i := range cols {
		cols[i] = i
	}
	return cols
}()

// --- client: the wire, in another process or over loopback in this one ---

type clientTarget struct{ cl *client.Client }

func (t clientTarget) selectRows(preds ...pred) ([]uint64, error) {
	return t.cl.Select(tableName, preds...)
}
func (t clientTarget) count(preds ...pred) (int, error) { return t.cl.Count(tableName, preds...) }
func (t clientTarget) rangeRows(lo, hi int64) ([]uint64, error) {
	return t.cl.SelectRange(tableName, "id", hyrisenv.Int(lo), hyrisenv.Int(hi))
}
func (t clientTarget) row(rid uint64) ([]hyrisenv.Value, error) {
	return t.cl.Row(tableName, rid)
}
func (t clientTarget) begin() (wtx, error) {
	tx, err := t.cl.Begin()
	if err != nil {
		return nil, err
	}
	return clientTx{tx}, nil
}

type clientTx struct{ tx *client.Tx }

func (t clientTx) insert(vals []hyrisenv.Value) (uint64, error) {
	return t.tx.Insert(tableName, vals...)
}
func (t clientTx) update(rid uint64, vals []hyrisenv.Value) (uint64, error) {
	return t.tx.Update(tableName, rid, vals...)
}
func (t clientTx) delete(rid uint64) error { return t.tx.Delete(tableName, rid) }
func (t clientTx) commit() error           { return t.tx.Commit() }

// --- hyrisenv: the public embedded API ---

type dbTarget struct {
	db  *hyrisenv.DB
	tbl *hyrisenv.Table
}

func (t dbTarget) snapshot() *hyrisenv.Tx { return t.db.BeginAt(t.db.LastCommitID()) }

func (t dbTarget) selectRows(preds ...pred) ([]uint64, error) {
	return t.snapshot().SelectContext(bg, t.tbl, preds...)
}
func (t dbTarget) count(preds ...pred) (int, error) {
	return t.snapshot().CountContext(bg, t.tbl, preds...)
}
func (t dbTarget) rangeRows(lo, hi int64) ([]uint64, error) {
	return t.snapshot().SelectRangeContext(bg, t.tbl, "id", hyrisenv.Int(lo), hyrisenv.Int(hi))
}
func (t dbTarget) row(rid uint64) ([]hyrisenv.Value, error) {
	tx := t.snapshot()
	if !tx.Sees(t.tbl, rid) {
		return nil, fmt.Errorf("row %d not visible", rid)
	}
	return tx.RowContext(bg, t.tbl, rid)
}
func (t dbTarget) begin() (wtx, error) { return dbTx{t.db.Begin(), t.tbl}, nil }

type dbTx struct {
	tx  *hyrisenv.Tx
	tbl *hyrisenv.Table
}

func (t dbTx) insert(vals []hyrisenv.Value) (uint64, error) { return t.tx.Insert(t.tbl, vals...) }
func (t dbTx) update(rid uint64, vals []hyrisenv.Value) (uint64, error) {
	return t.tx.Update(t.tbl, rid, vals...)
}
func (t dbTx) delete(rid uint64) error { return t.tx.Delete(t.tbl, rid) }
func (t dbTx) commit() error           { return t.tx.Commit() }

// --- shard: the routing engine under the public API ---

type shardTarget struct {
	e   *shard.Engine
	tbl *shard.Table
}

func (t shardTarget) snapshot() *shard.Tx { return t.e.BeginAt(t.e.LastCID()) }

func (t shardTarget) selectRows(preds ...pred) ([]uint64, error) {
	return t.snapshot().Select(bg, t.tbl, execPreds(preds)...)
}
func (t shardTarget) count(preds ...pred) (int, error) {
	return t.snapshot().Count(bg, t.tbl, execPreds(preds)...)
}
func (t shardTarget) rangeRows(lo, hi int64) ([]uint64, error) {
	return t.snapshot().SelectRange(bg, t.tbl, colID, hyrisenv.Int(lo), hyrisenv.Int(hi))
}
func (t shardTarget) row(rid uint64) ([]hyrisenv.Value, error) {
	tx := t.snapshot()
	if !tx.Sees(t.tbl, rid) {
		return nil, fmt.Errorf("row %d not visible", rid)
	}
	return tx.Row(bg, t.tbl, rid)
}
func (t shardTarget) begin() (wtx, error) { return shardTx{t.e.Begin(), t.tbl}, nil }

type shardTx struct {
	tx  *shard.Tx
	tbl *shard.Table
}

func (t shardTx) insert(vals []hyrisenv.Value) (uint64, error) { return t.tx.Insert(t.tbl, vals) }
func (t shardTx) update(rid uint64, vals []hyrisenv.Value) (uint64, error) {
	return t.tx.Update(t.tbl, rid, vals)
}
func (t shardTx) delete(rid uint64) error { return t.tx.Delete(t.tbl, rid) }
func (t shardTx) commit() error           { return t.tx.Commit() }

// --- txn / exec: one shard's transaction manager and query executor ---

type coreTarget struct {
	e   *core.Engine
	tbl *storage.Table
}

func (t coreTarget) selectRows(preds ...pred) ([]uint64, error) {
	tx := t.e.Manager().BeginAt(t.e.Manager().LastCID())
	return t.e.Exec().Select(bg, tx, t.tbl, execPreds(preds)...)
}
func (t coreTarget) count(preds ...pred) (int, error) {
	tx := t.e.Manager().BeginAt(t.e.Manager().LastCID())
	return t.e.Exec().Count(bg, tx, t.tbl, execPreds(preds)...)
}
func (t coreTarget) rangeRows(lo, hi int64) ([]uint64, error) {
	tx := t.e.Manager().BeginAt(t.e.Manager().LastCID())
	return t.e.Exec().SelectRange(bg, tx, t.tbl, colID, hyrisenv.Int(lo), hyrisenv.Int(hi))
}
func (t coreTarget) row(rid uint64) ([]hyrisenv.Value, error) {
	tx := t.e.Manager().BeginAt(t.e.Manager().LastCID())
	if rid >= t.tbl.Rows() || !tx.Sees(t.tbl, rid) {
		return nil, fmt.Errorf("row %d not visible", rid)
	}
	return exec.Project(t.tbl, []uint64{rid}, allCols...)[0], nil
}
func (t coreTarget) begin() (wtx, error) { return coreTx{t.e.Begin(), t.tbl}, nil }

type coreTx struct {
	tx  *txn.Txn
	tbl *storage.Table
}

func (t coreTx) insert(vals []hyrisenv.Value) (uint64, error) { return t.tx.Insert(t.tbl, vals) }
func (t coreTx) update(rid uint64, vals []hyrisenv.Value) (uint64, error) {
	return t.tx.Update(t.tbl, rid, vals)
}
func (t coreTx) delete(rid uint64) error { return t.tx.Delete(t.tbl, rid) }
func (t coreTx) commit() error           { return t.tx.Commit() }

// --- storage: the table itself, with no transaction or executor around it ---

// storageTarget is the lowest boundary: the least the table must do for
// an op. A write appends the rows and stamps them at the current commit
// horizon (no transaction context, no commit record); a read is one
// visibility check plus the index probe or one value-ID compare per
// predicate per row. What the layers above add to this is their cost.
type storageTarget struct {
	tbl     *storage.Table
	lastCID func() uint64
	owner   uint64 // fake transaction ids, far above any real one
}

func newStorageTarget(e *core.Engine, tbl *storage.Table) *storageTarget {
	return &storageTarget{tbl: tbl, lastCID: e.Manager().LastCID, owner: 1 << 62}
}

func (t *storageTarget) selectRows(preds ...pred) ([]uint64, error) {
	v, snap := t.tbl.View(), t.lastCID()
	var out []uint64
	if len(preds) == 1 && preds[0].Op == hyrisenv.Eq && t.tbl.Indexed(colIndex(preds[0].Col)) {
		v.LookupRows(colIndex(preds[0].Col), preds[0].Val.EncodeKey(nil), func(r uint64) bool {
			if v.Visible(r, snap, 0) {
				out = append(out, r)
			}
			return true
		})
		return out, nil
	}
	rawScan(v, snap, preds, func(r uint64) { out = append(out, r) })
	return out, nil
}

func (t *storageTarget) count(preds ...pred) (int, error) {
	n := 0
	rawScan(t.tbl.View(), t.lastCID(), preds, func(uint64) { n++ })
	return n, nil
}

func (t *storageTarget) rangeRows(lo, hi int64) ([]uint64, error) {
	v, snap := t.tbl.View(), t.lastCID()
	var out []uint64
	v.LookupRowsInRange(colID, hyrisenv.Int(lo).EncodeKey(nil), hyrisenv.Int(hi).EncodeKey(nil), func(r uint64) bool {
		if v.Visible(r, snap, 0) {
			out = append(out, r)
		}
		return true
	})
	return out, nil
}

func (t *storageTarget) row(rid uint64) ([]hyrisenv.Value, error) {
	v := t.tbl.View()
	if rid >= v.Rows() || !v.Visible(rid, t.lastCID(), 0) {
		return nil, fmt.Errorf("row %d not visible", rid)
	}
	vals := make([]hyrisenv.Value, numCols)
	for c := range vals {
		vals[c] = v.Value(c, rid)
	}
	return vals, nil
}

func (t *storageTarget) begin() (wtx, error) {
	t.owner++
	return &storageTx{t: t, owner: t.owner}, nil
}

type storageTx struct {
	t        *storageTarget
	owner    uint64
	inserted []uint64
	ended    []uint64
}

func (x *storageTx) insert(vals []hyrisenv.Value) (uint64, error) {
	r, err := x.t.tbl.AppendRow(vals, x.owner)
	if err == nil {
		x.inserted = append(x.inserted, r)
	}
	return r, err
}

func (x *storageTx) delete(rid uint64) error {
	s, local := x.t.tbl.MVCCFor(rid)
	if !s.ClaimRow(local, x.owner) {
		return fmt.Errorf("row %d is claimed", rid)
	}
	x.ended = append(x.ended, rid)
	return nil
}

func (x *storageTx) update(rid uint64, vals []hyrisenv.Value) (uint64, error) {
	if err := x.delete(rid); err != nil {
		return 0, err
	}
	return x.insert(vals)
}

func (x *storageTx) commit() error {
	cid := x.t.lastCID()
	for _, r := range x.inserted {
		x.t.tbl.StampBegin(r, cid)
	}
	for _, r := range x.ended {
		x.t.tbl.StampEnd(r, cid)
	}
	for _, r := range append(x.inserted, x.ended...) {
		x.t.tbl.ReleaseOwner(r, x.owner)
	}
	return nil
}

// opAccepts reports whether op accepts a comparison result (<0, 0, >0
// of the row's key against the predicate's).
func opAccepts(op hyrisenv.Op, cmp int) bool {
	switch op {
	case hyrisenv.Eq:
		return cmp == 0
	case hyrisenv.Ne:
		return cmp != 0
	case hyrisenv.Lt:
		return cmp < 0
	case hyrisenv.Le:
		return cmp <= 0
	case hyrisenv.Gt:
		return cmp > 0
	default:
		return cmp >= 0
	}
}

// rawScan calls emit for every row visible at snap that satisfies all
// preds. Main rows compare bit-packed value IDs against an ID range
// resolved once from the sorted dictionary; delta rows compare keys.
func rawScan(v storage.View, snap uint64, preds []pred, emit func(row uint64)) {
	type bound struct {
		main   storage.MainColumn
		delta  storage.DeltaColumn
		op     hyrisenv.Op
		key    []byte
		lo, hi uint64  // main value IDs in [lo, hi) hold exactly key
		accept [3]bool // whether op accepts an ID below, inside, above [lo, hi)
	}
	bs := make([]bound, len(preds))
	for i, p := range preds {
		c := colIndex(p.Col)
		b := bound{main: v.MainColumnAt(c), delta: v.DeltaColumnAt(c), op: p.Op, key: p.Val.EncodeKey(nil)}
		b.lo, _ = b.main.LookupRange(b.key, b.key)
		b.hi = b.lo
		if _, ok := b.main.LookupValueID(b.key); ok {
			b.hi++
		}
		b.accept = [3]bool{opAccepts(p.Op, -1), opAccepts(p.Op, 0), opAccepts(p.Op, 1)}
		bs[i] = b
	}
	mainRows := v.MainRows()
	mm := v.MainMVCC()
main:
	for r := uint64(0); r < mainRows; r++ {
		if !mm.Visible(r, snap, 0) {
			continue
		}
		for i := range bs {
			b := &bs[i]
			id, side := b.main.ValueID(r), 1
			if id < b.lo {
				side = 0
			} else if id >= b.hi {
				side = 2
			}
			if !b.accept[side] {
				continue main
			}
		}
		emit(r)
	}
	dm := v.DeltaMVCC()
delta:
	for r := uint64(0); r < v.DeltaRows(); r++ {
		if !dm.Visible(r, snap, 0) {
			continue
		}
		for i := range bs {
			b := &bs[i]
			if !opAccepts(b.op, bytes.Compare(b.delta.DictKey(b.delta.ValueID(r)), b.key)) {
				continue delta
			}
		}
		emit(mainRows + r)
	}
}
