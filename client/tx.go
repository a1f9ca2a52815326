package client

import (
	"context"
	"fmt"

	"hyrisenv"
	"hyrisenv/internal/wire"
)

// Tx is a server-side transaction pinned to one pooled connection (the
// server scopes transaction handles to the connection that began them).
// Like hyrisenv.Tx it is not safe for concurrent use. The connection is
// shared, not held exclusively — other requests multiplex over it while
// the Tx is open; the pin only keeps the pool from discarding it. A
// network failure mid-transaction breaks the Tx (the server aborts it
// when the connection drops).
//
// Every frame a Tx sends to begin, write to, commit or abort its
// transaction is one batch, and a read-write Tx sends as few as its
// caller allows. Begin sends nothing: the transaction begins on the
// server with the Tx's first frame. Delete sends nothing either: deletes
// wait in the Tx, up to 64 of them (maxBuffered), and ride the next
// frame. Every write goes out as one batch frame that carries the
// deletes waiting before it, and Commit sends those deletes with the
// commit. A read first sends the begin and the waiting deletes, so that
// it sees them. So an error that Begin or a Delete would have met — the
// server overloaded or shutting down, a write-write conflict, a row not
// found — is returned by the next call that sends a frame: a Delete's
// error names the delete. Ops of a frame run in order and stop at the
// first that fails; the deletes that did not run stay waiting. If a
// commit frame fails, the transaction is aborted. If the connection
// breaks before a commit frame's reply arrives, the whole frame applied
// at most once: committed entirely or not at all.
type Tx struct {
	c    *Client
	wc   *wconn
	id   uint64 // the server's handle; 0 until a frame has begun the transaction
	snap uint64
	ops  []wire.WriteOp // deletes waiting for the next frame
	done bool
}

// maxBuffered is how many deletes a Tx holds back; the delete beyond it
// goes out at once, with them.
const maxBuffered = 64

// Begin starts a read-write transaction. It sends nothing: the
// transaction begins on the server with its first write, read or commit,
// and an error beginning it is returned by that call.
func (c *Client) Begin() (*Tx, error) { return c.beginLazy(c.plain()) }

// BeginContext is Begin with a caller-supplied context, which bounds
// picking the transaction's connection (dialing one if needed).
func (c *Client) BeginContext(ctx context.Context) (*Tx, error) {
	return c.beginLazy(ctxCall(ctx))
}

func (c *Client) beginLazy(cl call) (*Tx, error) {
	wc, err := c.conn(cl)
	if err != nil {
		return nil, err
	}
	wc.pin()
	return &Tx{c: c, wc: wc}, nil
}

// BeginAt starts a read-only transaction at a historical commit ID
// (time travel). Unlike Begin it begins on the server at once.
func (c *Client) BeginAt(cid uint64) (*Tx, error) { return c.beginAt(c.plain(), cid) }

// BeginAtContext is BeginAt with a caller-supplied context.
func (c *Client) BeginAtContext(ctx context.Context, cid uint64) (*Tx, error) {
	return c.beginAt(ctxCall(ctx), cid)
}

func (c *Client) beginAt(cl call, cid uint64) (*Tx, error) {
	wc, err := c.conn(cl)
	if err != nil {
		return nil, err
	}
	wc.pin()
	tx := &Tx{c: c, wc: wc}
	// A batch of no ops that neither commits nor aborts has nothing to
	// fail once it has started: its reply's code is 0.
	if _, err := tx.batch(cl, wire.BatchReq{ReadOnly: true, AtCID: cid}); err != nil {
		tx.finish()
		return nil, err
	}
	return tx, nil
}

// SnapshotCID returns the commit ID this transaction reads at: 0 until a
// frame has begun the transaction on the server.
func (tx *Tx) SnapshotCID() uint64 { return tx.snap }

// roundTrip runs one request on the pinned connection and decodes error
// frames. A call whose context is done or whose deadline has passed
// before the request is sent returns that error and leaves the Tx as it
// was. A failure once it is sent finishes the Tx and releases the
// (broken) connection.
func (tx *Tx) roundTrip(cl call, t wire.Type, payload []byte) (wire.Frame, error) {
	if tx.done {
		return wire.Frame{}, ErrTxDone
	}
	f, err := cl.frame(t, payload)
	if err != nil {
		return wire.Frame{}, err
	}
	f, err = tx.wc.send(cl, f)
	if err != nil {
		tx.finish()
		return wire.Frame{}, err
	}
	if f.Type == wire.TypeError {
		e, derr := wire.DecodeErrorResp(f.Payload)
		if derr != nil {
			tx.finish()
			return wire.Frame{}, derr
		}
		return wire.Frame{}, errFromResp(e) // request-level error: Tx stays usable
	}
	return f, nil
}

// batch sends req on the pinned connection and returns the reply, which
// names the transaction: the Tx takes its handle and snapshot. An error
// means the batch did not start, or the connection is gone; a failed op
// is the reply's Code.
func (tx *Tx) batch(cl call, req wire.BatchReq) (wire.BatchResp, error) {
	f, err := tx.roundTrip(cl, wire.TypeBatch, req.Encode())
	if err != nil {
		return wire.BatchResp{}, err
	}
	resp, err := wire.DecodeBatchResp(f.Payload)
	ran := len(resp.Rows)
	if err == nil && (ran > len(req.Ops) || resp.Code == 0 && ran != len(req.Ops)) {
		err = fmt.Errorf("client: batch reply reports %d of %d ops", ran, len(req.Ops))
	}
	if err != nil {
		tx.wc.close() // response stream is unparseable; nothing on it is trustworthy
		tx.finish()
		return wire.BatchResp{}, err
	}
	tx.id, tx.snap = resp.Txn, resp.SnapshotCID
	return resp, nil
}

// send sends the waiting deletes, then op unless it is nil, then the
// commit if commit is set, as one batch frame; the first frame also
// begins the transaction. It returns the row ID op wrote. An error frame
// means the batch did not start: the deletes keep waiting.
func (tx *Tx) send(cl call, op *wire.WriteOp, commit bool) (uint64, error) {
	waiting := len(tx.ops)
	req := wire.BatchReq{Txn: tx.id, Commit: commit, Ops: tx.ops}
	if op != nil {
		req.Ops = append(req.Ops, *op)
	}
	resp, err := tx.batch(cl, req)
	if err != nil {
		return 0, err
	}
	// The deletes behind the one that failed did not run; they keep
	// waiting.
	ran := len(resp.Rows)
	tx.ops = append(tx.ops[:0], req.Ops[min(ran+1, waiting):waiting]...)
	if resp.Code != 0 {
		err = errFromResp(wire.ErrorResp{Code: resp.Code, Msg: resp.Msg})
		if ran < waiting {
			err = fmt.Errorf("client: delete of row %d in %q: %w", req.Ops[ran].Row, req.Ops[ran].Table, err)
		}
		return 0, err
	}
	if op == nil {
		return 0, nil
	}
	return resp.Rows[ran-1], nil
}

// flush sends the begin and the waiting deletes, if either is pending,
// so that a read sees them.
func (tx *Tx) flush(cl call) error {
	if tx.id != 0 && len(tx.ops) == 0 {
		return nil
	}
	_, err := tx.send(cl, nil, false)
	return err
}

// finish drops the Tx's pin on its connection exactly once.
func (tx *Tx) finish() {
	if tx.done {
		return
	}
	tx.done = true
	tx.wc.unpin()
}

// Commit makes the transaction's effects visible and durable. The
// waiting deletes go with it, in one frame; a transaction that never
// sent a frame and has no delete waiting has nothing to commit and sends
// nothing.
func (tx *Tx) Commit() error { return tx.commit(tx.c.plain()) }

// CommitContext is Commit with a caller-supplied context.
func (tx *Tx) CommitContext(ctx context.Context) error { return tx.commit(ctxCall(ctx)) }

func (tx *Tx) commit(cl call) error {
	if tx.done {
		return ErrTxDone
	}
	var err error
	if tx.id != 0 || len(tx.ops) > 0 {
		_, err = tx.send(cl, nil, true)
	}
	tx.finish()
	return err
}

// Abort rolls the transaction back. The waiting deletes are dropped, and
// a transaction that never sent a frame sends nothing.
func (tx *Tx) Abort() error { return tx.abort(tx.c.plain()) }

// AbortContext is Abort with a caller-supplied context.
func (tx *Tx) AbortContext(ctx context.Context) error { return tx.abort(ctxCall(ctx)) }

func (tx *Tx) abort(cl call) error {
	if tx.done {
		return ErrTxDone
	}
	var err error
	if tx.id != 0 {
		var resp wire.BatchResp
		if resp, err = tx.batch(cl, wire.BatchReq{Txn: tx.id, Abort: true}); err == nil && resp.Code != 0 {
			err = errFromResp(wire.ErrorResp{Code: resp.Code, Msg: resp.Msg})
		}
	}
	tx.finish()
	return err
}

// Insert appends a row and returns its physical row ID.
func (tx *Tx) Insert(table string, vals ...hyrisenv.Value) (uint64, error) {
	return tx.send(tx.c.plain(), &wire.WriteOp{Kind: wire.WriteInsert, Table: table, Vals: vals}, false)
}

// InsertContext is Insert with a caller-supplied context.
func (tx *Tx) InsertContext(ctx context.Context, table string, vals ...hyrisenv.Value) (uint64, error) {
	return tx.send(ctxCall(ctx), &wire.WriteOp{Kind: wire.WriteInsert, Table: table, Vals: vals}, false)
}

// Update replaces the row with new values and returns the new version's
// row ID.
func (tx *Tx) Update(table string, row uint64, vals ...hyrisenv.Value) (uint64, error) {
	return tx.send(tx.c.plain(), &wire.WriteOp{Kind: wire.WriteUpdate, Table: table, Row: row, Vals: vals}, false)
}

// UpdateContext is Update with a caller-supplied context.
func (tx *Tx) UpdateContext(ctx context.Context, table string, row uint64, vals ...hyrisenv.Value) (uint64, error) {
	return tx.send(ctxCall(ctx), &wire.WriteOp{Kind: wire.WriteUpdate, Table: table, Row: row, Vals: vals}, false)
}

// Delete invalidates the row. It waits in the Tx for the next frame, so
// its error, if any, is returned by the next call that sends one.
func (tx *Tx) Delete(table string, row uint64) error {
	return tx.delete(tx.c.plain(), table, row)
}

// DeleteContext is Delete with a caller-supplied context, which bounds
// the frame only when the delete does not fit among the waiting ones.
func (tx *Tx) DeleteContext(ctx context.Context, table string, row uint64) error {
	return tx.delete(ctxCall(ctx), table, row)
}

func (tx *Tx) delete(cl call, table string, row uint64) error {
	if tx.done {
		return ErrTxDone
	}
	op := wire.WriteOp{Kind: wire.WriteDelete, Table: table, Row: row}
	if len(tx.ops) < maxBuffered {
		tx.ops = append(tx.ops, op)
		return nil
	}
	_, err := tx.send(cl, &op, false)
	return err
}

// Select returns the row IDs satisfying all predicates, evaluated in
// this transaction's snapshot.
func (tx *Tx) Select(table string, preds ...hyrisenv.Pred) ([]uint64, error) {
	return tx.c.sel(tx.c.plain(), tx, table, preds)
}

// SelectContext is Select with a caller-supplied context.
func (tx *Tx) SelectContext(ctx context.Context, table string, preds ...hyrisenv.Pred) ([]uint64, error) {
	return tx.c.sel(ctxCall(ctx), tx, table, preds)
}

// ScanAll returns every row ID visible to this transaction.
func (tx *Tx) ScanAll(table string) ([]uint64, error) { return tx.Select(table) }

// ScanAllContext is ScanAll with a caller-supplied context.
func (tx *Tx) ScanAllContext(ctx context.Context, table string) ([]uint64, error) {
	return tx.SelectContext(ctx, table)
}

// Count returns the number of rows satisfying all predicates in this
// transaction's snapshot.
func (tx *Tx) Count(table string, preds ...hyrisenv.Pred) (int, error) {
	return tx.c.count(tx.c.plain(), tx, table, preds)
}

// CountContext is Count with a caller-supplied context.
func (tx *Tx) CountContext(ctx context.Context, table string, preds ...hyrisenv.Pred) (int, error) {
	return tx.c.count(ctxCall(ctx), tx, table, preds)
}

// SelectRange returns rows whose named column falls in [lo, hi).
func (tx *Tx) SelectRange(table, col string, lo, hi hyrisenv.Value) ([]uint64, error) {
	return tx.c.selectRange(tx.c.plain(), tx, table, col, lo, hi)
}

// SelectRangeContext is SelectRange with a caller-supplied context.
func (tx *Tx) SelectRangeContext(ctx context.Context, table, col string, lo, hi hyrisenv.Value) ([]uint64, error) {
	return tx.c.selectRange(ctxCall(ctx), tx, table, col, lo, hi)
}

// Row materializes all columns of a row as seen by this transaction.
func (tx *Tx) Row(table string, row uint64) ([]hyrisenv.Value, error) {
	return tx.c.row(tx.c.plain(), tx, table, row)
}

// RowContext is Row with a caller-supplied context.
func (tx *Tx) RowContext(ctx context.Context, table string, row uint64) ([]hyrisenv.Value, error) {
	return tx.c.row(ctxCall(ctx), tx, table, row)
}
