package shard

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"hyrisenv/internal/exec"
	"hyrisenv/internal/storage"
	"hyrisenv/internal/txn"
)

// ErrNoSuchRow is returned for a global row ID that addresses no row.
var ErrNoSuchRow = errors.New("shard: no such row")

// Tx is a transaction over the sharded engine. It pins one global
// snapshot CID and lazily opens a part transaction on each shard it
// touches — in a fleet of one exactly as in a fleet of many. A
// transaction whose writes land on a single shard commits on that
// shard's ordinary group-commit path without 2PC; writes spanning shards
// commit with two-phase commit through the coordinator. A Tx is not safe
// for concurrent use.
type Tx struct {
	e        *Engine
	snapCID  uint64
	readOnly bool
	parts    []*txn.Txn // lazily begun, indexed by shard
	done     bool
}

// gtidSrc hands out global transaction IDs for cross-shard commits in
// modes without a coordinator heap (ModeNone, ModeLog), where the gtid
// only needs process-lifetime uniqueness.
var gtidSrc atomic.Uint64

// Begin starts a transaction at the current global snapshot horizon.
func (e *Engine) Begin() *Tx {
	return &Tx{e: e, snapCID: e.clock.Visible(), parts: make([]*txn.Txn, len(e.shards))}
}

// BeginAt starts a read-only transaction at a historical snapshot,
// clamped to the current horizon.
func (e *Engine) BeginAt(cid uint64) *Tx {
	return &Tx{e: e, snapCID: min(cid, e.clock.Visible()), readOnly: true, parts: make([]*txn.Txn, len(e.shards))}
}

// SnapshotCID returns the global CID this transaction reads at.
func (t *Tx) SnapshotCID() uint64 { return t.snapCID }

// part returns the shard-local transaction for shard i, beginning one
// pinned to the global snapshot on first touch.
func (t *Tx) part(i int) *txn.Txn {
	if t.parts[i] == nil {
		t.parts[i] = t.e.shards[i].Manager().BeginSnapshot(t.snapCID, t.readOnly)
	}
	return t.parts[i]
}

// Part exposes the shard-local transaction for shard i (opening it on
// first touch) to sibling benchmark and test code that drives the txn
// layer directly. Row IDs it returns are shard-local.
func (t *Tx) Part(i int) *txn.Txn { return t.part(i) }

// Active reports whether the transaction is still open (not committed
// or aborted).
func (t *Tx) Active() bool { return !t.done }

// ShardOf routes a partition-key value (a row's first column) to its
// shard: FNV-1a over the order-preserving key encoding, so routing is
// deterministic across restarts and independent of dictionary state.
func (e *Engine) ShardOf(v storage.Value) int {
	n := len(e.shards)
	if n == 1 {
		return 0
	}
	key := v.EncodeKey(nil)
	h := uint64(14695981039346656037)
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return int(h % uint64(n))
}

// Insert appends a row to the shard its first column hashes to and
// returns its global row ID.
func (t *Tx) Insert(tbl *Table, vals []storage.Value) (uint64, error) {
	if t.done {
		return 0, txn.ErrNotActive
	}
	shard := 0
	if len(vals) > 0 {
		shard = t.e.ShardOf(vals[0])
	}
	local, err := t.part(shard).Insert(tbl.parts[shard], vals)
	if err != nil {
		return 0, err
	}
	return globalRow(shard, local), nil
}

// Delete invalidates the row addressed by a global row ID.
func (t *Tx) Delete(tbl *Table, row uint64) error {
	if t.done {
		return txn.ErrNotActive
	}
	shard, local := splitRow(row)
	if shard >= len(t.e.shards) || local >= tbl.parts[shard].Rows() {
		return txn.ErrRowNotFound
	}
	return t.part(shard).Delete(tbl.parts[shard], local)
}

// Update replaces the row with new values and returns the new version's
// global row ID. When the new partition key hashes to a different
// shard, the row moves: the old version is invalidated in place and the
// new one inserted where it now routes — atomically, since both parts
// commit under one decision.
func (t *Tx) Update(tbl *Table, row uint64, vals []storage.Value) (uint64, error) {
	if t.done {
		return 0, txn.ErrNotActive
	}
	shard, local := splitRow(row)
	if shard >= len(t.e.shards) || local >= tbl.parts[shard].Rows() {
		return 0, txn.ErrRowNotFound
	}
	newShard := shard
	if len(vals) > 0 {
		newShard = t.e.ShardOf(vals[0])
	}
	if newShard == shard {
		local2, err := t.part(shard).Update(tbl.parts[shard], local, vals)
		if err != nil {
			return 0, err
		}
		return globalRow(shard, local2), nil
	}
	if err := t.part(shard).Delete(tbl.parts[shard], local); err != nil {
		return 0, err
	}
	local2, err := t.part(newShard).Insert(tbl.parts[newShard], vals)
	if err != nil {
		return 0, err
	}
	return globalRow(newShard, local2), nil
}

// Sees reports whether the transaction sees the given global row.
func (t *Tx) Sees(tbl *Table, row uint64) bool {
	shard, local := splitRow(row)
	if shard >= len(t.e.shards) || local >= tbl.parts[shard].Rows() {
		return false
	}
	return t.part(shard).Sees(tbl.parts[shard], local)
}

// Abort rolls every part back.
func (t *Tx) Abort() error {
	if t.done {
		return txn.ErrNotActive
	}
	t.done = true
	var errs []error
	for _, p := range t.parts {
		if p != nil && p.Status() == txn.StatusActive {
			if err := p.Abort(); err != nil {
				errs = append(errs, err)
			}
		}
	}
	return errors.Join(errs...)
}

// Commit makes the transaction's effects visible and durable. Writes on
// one shard commit through that shard's ordinary protocol (including
// group commit); writes spanning shards run two-phase commit: every
// part durably prepares under one global transaction ID, the
// coordinator persists the commit decision (the atomic commit point),
// and every part finishes with the decided CID. In ModeNVM the whole
// sequence is crash-atomic — recovery resolves prepared parts against
// the coordinator record. In ModeLog a cross-shard commit is
// visibility-atomic (the clock withholds the CID until all parts
// publish) but not crash-atomic, as the log format has no prepared
// state; the crash-atomic configuration is ModeNVM.
func (t *Tx) Commit() error {
	if t.done {
		return txn.ErrNotActive
	}
	t.done = true

	var writers []*txn.Txn
	var writerShards []int
	for i, p := range t.parts {
		if p != nil && p.Writes() > 0 {
			writers = append(writers, p)
			writerShards = append(writerShards, i)
		}
	}

	// Zero or one writing part: no 2PC — the owning shard's ordinary
	// commit protocol.
	if len(writers) <= 1 {
		var errs []error
		for _, p := range t.parts {
			if p == nil || p.Status() != txn.StatusActive {
				continue
			}
			if err := p.Commit(); err != nil {
				errs = append(errs, err)
			}
		}
		return errors.Join(errs...)
	}

	return t.commitCross(writers, writerShards)
}

// abortRemaining aborts still-active parts after a failed prepare.
func (t *Tx) abortRemaining(notPrepared []*txn.Txn) {
	for _, w := range notPrepared {
		if w.Status() == txn.StatusActive {
			w.Abort() //nolint:errcheck — already failing
		}
	}
	for _, p := range t.parts {
		if p != nil && p.Status() == txn.StatusActive {
			p.Abort() //nolint:errcheck — already failing
		}
	}
}

// --- Reads: fan out per shard, translate row IDs, merge ----------------------

// Select returns the global row IDs visible to the transaction that
// satisfy all predicates, fanning the scan out shard by shard (each
// shard's scan is itself morsel-parallel). Results are ordered by shard,
// then by physical row within the shard.
func (t *Tx) Select(ctx context.Context, tbl *Table, preds ...exec.Pred) ([]uint64, error) {
	ex := t.e.Exec()
	var out []uint64
	for i := range t.e.shards {
		rows, err := ex.Select(ctx, t.part(i), tbl.parts[i], preds...)
		if err != nil {
			return nil, err
		}
		out = appendGlobal(out, i, rows)
	}
	return out, nil
}

// SelectRange returns global rows whose column col falls in [lo, hi).
func (t *Tx) SelectRange(ctx context.Context, tbl *Table, col int, lo, hi storage.Value) ([]uint64, error) {
	ex := t.e.Exec()
	var out []uint64
	for i := range t.e.shards {
		rows, err := ex.SelectRange(ctx, t.part(i), tbl.parts[i], col, lo, hi)
		if err != nil {
			return nil, err
		}
		out = appendGlobal(out, i, rows)
	}
	return out, nil
}

// Count returns the number of visible rows satisfying all predicates.
func (t *Tx) Count(ctx context.Context, tbl *Table, preds ...exec.Pred) (int, error) {
	ex := t.e.Exec()
	total := 0
	for i := range t.e.shards {
		n, err := ex.Count(ctx, t.part(i), tbl.parts[i], preds...)
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}

// GroupBy aggregates all visible rows grouped by groupCol, summing
// aggCol (< 0 for count-only): each shard aggregates its partition and
// the partial aggregates merge by group key.
func (t *Tx) GroupBy(ctx context.Context, tbl *Table, groupCol, aggCol int) ([]exec.Group, error) {
	ex := t.e.Exec()
	if len(t.e.shards) == 1 {
		return ex.GroupBy(ctx, t.part(0), tbl.parts[0], groupCol, aggCol)
	}
	partials := make([][]exec.Group, len(t.e.shards))
	for i := range t.e.shards {
		g, err := ex.GroupBy(ctx, t.part(i), tbl.parts[i], groupCol, aggCol)
		if err != nil {
			return nil, err
		}
		partials[i] = g
	}
	return exec.MergeGroups(partials...), nil
}

// HashJoin computes the inner equi-join left.leftCol = right.rightCol
// over the visible rows of both tables across all shards. The build
// side's encoded join keys are collected from every shard into one hash
// table (keys encode values, not dictionary IDs, so they compare across
// partitions), then every shard's probe side streams against it —
// matching rows pair up regardless of which shards they live on.
func (t *Tx) HashJoin(ctx context.Context, left *Table, leftCol int, right *Table, rightCol int) ([]exec.JoinPair, error) {
	ex := t.e.Exec()
	if len(t.e.shards) == 1 {
		return ex.HashJoin(ctx, t.part(0), left.parts[0], leftCol, right.parts[0], rightCol)
	}
	lt := left.Schema.Cols[leftCol].Type
	rt := right.Schema.Cols[rightCol].Type
	if lt != rt {
		return nil, fmt.Errorf("%w: join column types differ (%s vs %s)", exec.ErrBadValue, lt, rt)
	}

	build := map[string][]uint64{}
	for i := range t.e.shards {
		rows, err := ex.Select(ctx, t.part(i), left.parts[i])
		if err != nil {
			return nil, err
		}
		keys, err := encodedKeys(left.parts[i], leftCol, rows)
		if err != nil {
			return nil, err
		}
		for j, r := range rows {
			build[keys[j]] = append(build[keys[j]], globalRow(i, r))
		}
	}

	var out []exec.JoinPair
	for i := range t.e.shards {
		rows, err := ex.Select(ctx, t.part(i), right.parts[i])
		if err != nil {
			return nil, err
		}
		keys, err := encodedKeys(right.parts[i], rightCol, rows)
		if err != nil {
			return nil, err
		}
		for j, r := range rows {
			for _, l := range build[keys[j]] {
				out = append(out, exec.JoinPair{Left: l, Right: globalRow(i, r)})
			}
		}
	}
	return out, nil
}

// encodedKeys returns each row's order-preserving encoded key for col.
func encodedKeys(tbl *storage.Table, col int, rows []uint64) ([]string, error) {
	if col < 0 || col >= tbl.Schema.NumCols() {
		return nil, fmt.Errorf("%w: column %d of table %s", exec.ErrBadColumn, col, tbl.Name)
	}
	v := tbl.View()
	mr := v.MainRows()
	out := make([]string, len(rows))
	for i, r := range rows {
		if r < mr {
			mc := v.MainColumnAt(col)
			out[i] = string(mc.DictKey(mc.ValueID(r)))
		} else {
			dc := v.DeltaColumnAt(col)
			out[i] = string(dc.DictKey(dc.ValueID(r - mr)))
		}
	}
	return out, nil
}

// Row materializes all columns of the global row.
func (t *Tx) Row(ctx context.Context, tbl *Table, row uint64) ([]storage.Value, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	shard, local := splitRow(row)
	if shard >= len(t.e.shards) || local >= tbl.parts[shard].Rows() {
		return nil, fmt.Errorf("%w: row %d of table %q", ErrNoSuchRow, row, tbl.Name)
	}
	cols := make([]int, tbl.Schema.NumCols())
	for i := range cols {
		cols[i] = i
	}
	return exec.Project(tbl.parts[shard], []uint64{local}, cols...)[0], nil
}

// OrderBy sorts global row IDs by the given column (in place) using the
// order-preserving key encoding, which compares across shards' separate
// dictionaries. desc reverses.
func (t *Tx) OrderBy(tbl *Table, rows []uint64, col int, desc bool) ([]uint64, error) {
	if len(t.e.shards) == 1 {
		return exec.OrderBy(tbl.parts[0], rows, col, desc), nil
	}
	keys := make([][]byte, len(rows))
	views := make([]storage.View, len(tbl.parts))
	for i, p := range tbl.parts {
		views[i] = p.View()
	}
	for i, r := range rows {
		shard, local := splitRow(r)
		if shard >= len(t.e.shards) {
			return nil, fmt.Errorf("%w: row %d", ErrNoSuchRow, r)
		}
		v := views[shard]
		if mr := v.MainRows(); local < mr {
			mc := v.MainColumnAt(col)
			keys[i] = mc.DictKey(mc.ValueID(local))
		} else {
			dc := v.DeltaColumnAt(col)
			keys[i] = dc.DictKey(dc.ValueID(local - mr))
		}
	}
	exec.SortRowsByKeys(rows, keys, desc)
	return rows, nil
}

// appendGlobal appends shard-local rows to out with their shard tag.
func appendGlobal(out []uint64, shard int, rows []uint64) []uint64 {
	if shard == 0 {
		return append(out, rows...)
	}
	for _, r := range rows {
		out = append(out, globalRow(shard, r))
	}
	return out
}
