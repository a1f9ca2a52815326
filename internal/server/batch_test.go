package server_test

import (
	"encoding/binary"
	"testing"

	"hyrisenv/internal/core"
	"hyrisenv/internal/disk"
	"hyrisenv/internal/nvm"
	"hyrisenv/internal/server"
	"hyrisenv/internal/shard"
	"hyrisenv/internal/storage"
	"hyrisenv/internal/txn"
	"hyrisenv/internal/wire"
)

func insertOp(table string, v int64) wire.WriteOp {
	return wire.WriteOp{Kind: wire.WriteInsert, Table: table, Vals: []storage.Value{storage.Int(v)}}
}

func (rc *rawConn) batch(req wire.BatchReq) wire.BatchResp {
	rc.t.Helper()
	f := rc.roundTrip(wire.TypeBatch, req.Encode(), 0)
	if f.Type != wire.TypeBatchOK {
		e, _ := wire.DecodeErrorResp(f.Payload)
		rc.t.Fatalf("batch: got %s %+v", f.Type, e)
	}
	resp, err := wire.DecodeBatchResp(f.Payload)
	if err != nil {
		rc.t.Fatal(err)
	}
	return resp
}

func (rc *rawConn) count(txid uint64, table string) uint64 {
	rc.t.Helper()
	f := rc.roundTrip(wire.TypeCount, wire.SelectReq{Txn: txid, Table: table}.Encode(), 0)
	if f.Type != wire.TypeCountOK {
		rc.t.Fatalf("count: got %s", f.Type)
	}
	n, err := wire.DecodeCountResp(f.Payload)
	if err != nil {
		rc.t.Fatal(err)
	}
	return n.N
}

func (rc *rawConn) createIntTable(name string) {
	rc.t.Helper()
	mk := wire.CreateTableReq{Name: name, Cols: []wire.ColumnDef{{Name: "id", Type: uint8(storage.TypeInt64)}}}
	if f := rc.roundTrip(wire.TypeCreateTable, mk.Encode(), 0); f.Type != wire.TypeOK {
		rc.t.Fatalf("create table: %s", f.Type)
	}
}

// TestBatchStopsAtFailure pins the batch's failure rule without a
// commit: the ops before the failing one ran, the ones after it did not,
// the reply says which op failed, and the transaction the batch began
// stays open under the handle the reply names.
func TestBatchStopsAtFailure(t *testing.T) {
	eng := openEngine(t, txn.ModeNone, disk.Model{})
	srv := startServer(t, eng, server.Config{})
	rc := dialRaw(t, srv.Addr())
	rc.createIntTable("b")

	resp := rc.batch(wire.BatchReq{Ops: []wire.WriteOp{
		insertOp("b", 1),
		{Kind: wire.WriteDelete, Table: "b", Row: 999},
		insertOp("b", 2),
	}})
	if resp.Txn == 0 || resp.Code != wire.CodeRowNotFound || len(resp.Rows) != 1 {
		t.Fatalf("batch failing at its second op: %+v", resp)
	}
	if n := rc.count(resp.Txn, "b"); n != 1 {
		t.Fatalf("the open transaction sees %d rows, want the one inserted before the failure", n)
	}
	resp = rc.batch(wire.BatchReq{Txn: resp.Txn, Commit: true, Ops: []wire.WriteOp{insertOp("b", 3)}})
	if resp.Code != 0 || len(resp.Rows) != 1 {
		t.Fatalf("commit batch on the open transaction: %+v", resp)
	}
	if n := rc.count(0, "b"); n != 2 {
		t.Fatalf("%d rows committed, want 2", n)
	}
}

// TestFailedCommitBatchAborts pins the rule for a failing batch that
// carries the commit: the transaction is aborted, its handle is gone and
// its admission slot is free again — with one slot in the house, the
// next transaction is admitted.
func TestFailedCommitBatchAborts(t *testing.T) {
	eng := openEngine(t, txn.ModeNone, disk.Model{})
	srv := startServer(t, eng, server.Config{MaxConcurrent: 1, AdmissionWait: -1})
	rc := dialRaw(t, srv.Addr())
	rc.createIntTable("b")

	resp := rc.batch(wire.BatchReq{Commit: true, Ops: []wire.WriteOp{
		insertOp("b", 1),
		{Kind: wire.WriteDelete, Table: "b", Row: 999},
	}})
	if resp.Code != wire.CodeRowNotFound || len(resp.Rows) != 1 {
		t.Fatalf("commit batch failing at its second op: %+v", resp)
	}
	rc.expectErr(rc.roundTrip(wire.TypeBatch, wire.BatchReq{Txn: resp.Txn, Abort: true}.Encode(), 0), wire.CodeNoSuchTxn)
	if resp := rc.batch(wire.BatchReq{Commit: true, Ops: []wire.WriteOp{insertOp("b", 2)}}); resp.Code != 0 {
		t.Fatalf("next transaction on the freed slot: %+v", resp)
	}
	if n := rc.count(0, "b"); n != 1 {
		t.Fatalf("%d rows committed, want only the second transaction's", n)
	}
}

// TestScanOutlivesDeadline runs a scan made slow by a modelled NVM read
// latency (every cache line read costs 50 µs: a scan takes tens of
// milliseconds) with a 1 ms deadline, on a connection that reuses one
// deadline context and timer across requests: the scan gets
// CodeDeadline, the request after it — whose deadline does not pass —
// succeeds, and the next expired scan gets CodeDeadline again.
func TestScanOutlivesDeadline(t *testing.T) {
	open := func(dir string, lat nvm.LatencyModel) *shard.Engine {
		eng, err := shard.Open(shard.Config{Config: core.Config{
			Mode: txn.ModeNVM, Dir: dir, NVMHeapSize: 64 << 20, NVMLatency: lat,
		}})
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	// Load without the latency, then reopen under it.
	dir := t.TempDir()
	eng := open(dir, nvm.LatencyModel{})
	tbl, err := eng.CreateTable("s", workloadSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	tx := eng.Begin()
	for i := 0; i < 8000; i++ {
		if _, err := tx.Insert(tbl, []storage.Value{storage.Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	eng = open(dir, nvm.LatencyModel{ReadNS: 50_000})
	srv := startServer(t, eng, server.Config{})
	rc := dialRaw(t, srv.Addr())

	scan := wire.SelectReq{Table: "s"}.Encode()
	for i := 0; i < 2; i++ {
		rc.expectErr(rc.roundTrip(wire.TypeCount, scan, 1), wire.CodeDeadline)
		if f := rc.roundTrip(wire.TypePing, nil, 10_000); f.Type != wire.TypePong {
			t.Fatalf("ping after an expired scan: %s", f.Type)
		}
	}
	if n := rc.count(0, "s"); n != 8000 {
		t.Fatalf("count = %d, want 8000", n)
	}
}

// TestAbortBatchEndsTxn pins the abort batch: it ends the transaction it
// names, discards its writes and returns its admission slot — with one
// slot in the house, the next transaction is admitted — and the handle
// is gone afterwards.
func TestAbortBatchEndsTxn(t *testing.T) {
	eng := openEngine(t, txn.ModeNone, disk.Model{})
	srv := startServer(t, eng, server.Config{MaxConcurrent: 1, AdmissionWait: -1})
	rc := dialRaw(t, srv.Addr())
	rc.createIntTable("b")

	open := rc.batch(wire.BatchReq{Ops: []wire.WriteOp{insertOp("b", 1)}})
	rc.expectErr(rc.roundTrip(wire.TypeBatch, wire.BatchReq{}.Encode(), 0), wire.CodeOverloaded)
	if resp := rc.batch(wire.BatchReq{Txn: open.Txn, Abort: true}); resp.Code != 0 || resp.Txn != open.Txn || len(resp.Rows) != 0 {
		t.Fatalf("abort batch: %+v", resp)
	}
	rc.expectErr(rc.roundTrip(wire.TypeBatch, wire.BatchReq{Txn: open.Txn, Abort: true}.Encode(), 0), wire.CodeNoSuchTxn)
	if resp := rc.batch(wire.BatchReq{Commit: true, Ops: []wire.WriteOp{insertOp("b", 2)}}); resp.Code != 0 {
		t.Fatalf("next transaction on the freed slot: %+v", resp)
	}
	if n := rc.count(0, "b"); n != 1 {
		t.Fatalf("%d rows committed, want only the second transaction's", n)
	}
}

// TestBeginAtBatch pins the read-only begin: the batch begins a
// transaction at the CID it carries, clamped to the commit horizon, that
// sees the database as of that CID, and whose writes fail read-only.
func TestBeginAtBatch(t *testing.T) {
	eng := openEngine(t, txn.ModeNone, disk.Model{})
	srv := startServer(t, eng, server.Config{})
	rc := dialRaw(t, srv.Addr())
	rc.createIntTable("b")
	before := eng.LastCID()
	rc.batch(wire.BatchReq{Commit: true, Ops: []wire.WriteOp{insertOp("b", 1)}})

	past := rc.batch(wire.BatchReq{ReadOnly: true, AtCID: before})
	if past.Txn == 0 || past.SnapshotCID != before || past.Code != 0 {
		t.Fatalf("begin-at %d: %+v", before, past)
	}
	if n := rc.count(past.Txn, "b"); n != 0 {
		t.Fatalf("snapshot before the commit sees %d rows", n)
	}
	future := rc.batch(wire.BatchReq{ReadOnly: true, AtCID: 1 << 62, Ops: []wire.WriteOp{insertOp("b", 2)}})
	if future.SnapshotCID != eng.LastCID() {
		t.Fatalf("begin-at beyond the horizon reads at %d, want the horizon %d", future.SnapshotCID, eng.LastCID())
	}
	if future.Code != wire.CodeReadOnly || len(future.Rows) != 0 {
		t.Fatalf("write in a begin-at batch: %+v, want read-only before any op ran", future)
	}
	if n := rc.count(future.Txn, "b"); n != 1 {
		t.Fatalf("snapshot at the horizon sees %d rows, want 1", n)
	}
	for _, id := range []uint64{past.Txn, future.Txn} {
		if resp := rc.batch(wire.BatchReq{Txn: id, Abort: true}); resp.Code != 0 {
			t.Fatalf("abort of read-only transaction %d: %+v", id, resp)
		}
	}
}

// TestBatchFlagsRejected sends the flag combinations the decoder refuses
// — commit with abort, abort with ops, begin-at naming a handle — and
// checks that each is answered bad-request without touching the open
// transaction it names.
func TestBatchFlagsRejected(t *testing.T) {
	eng := openEngine(t, txn.ModeNone, disk.Model{})
	srv := startServer(t, eng, server.Config{})
	rc := dialRaw(t, srv.Addr())
	rc.createIntTable("b")
	open := rc.batch(wire.BatchReq{Ops: []wire.WriteOp{insertOp("b", 1)}})

	for _, req := range []wire.BatchReq{
		{Txn: open.Txn, Commit: true, Abort: true},
		{Txn: open.Txn, Abort: true, Ops: []wire.WriteOp{insertOp("b", 2)}},
		{Txn: open.Txn, ReadOnly: true, AtCID: 1},
	} {
		rc.expectErr(rc.roundTrip(wire.TypeBatch, req.Encode(), 0), wire.CodeBadRequest)
	}
	if resp := rc.batch(wire.BatchReq{Txn: open.Txn, Commit: true}); resp.Code != 0 {
		t.Fatalf("commit after the refused batches: %+v", resp)
	}
	if n := rc.count(0, "b"); n != 1 {
		t.Fatalf("%d rows committed, want 1", n)
	}
}

// TestRetiredOpcodes sends a frame for each type number version 3
// retired, and an insert, which is no longer a request: each gets
// bad-request, and the connection keeps serving.
func TestRetiredOpcodes(t *testing.T) {
	eng := openEngine(t, txn.ModeNone, disk.Model{})
	srv := startServer(t, eng, server.Config{})
	rc := dialRaw(t, srv.Addr())
	rc.createIntTable("b")
	open := rc.batch(wire.BatchReq{})

	// A handle first, as every retired transaction opcode carried one.
	payload := binary.LittleEndian.AppendUint64(nil, open.Txn)
	for _, typ := range []wire.Type{5, 6, 7, 8, 11, 12, 13, wire.TypeInsert} {
		rc.expectErr(rc.roundTrip(typ, payload, 0), wire.CodeBadRequest)
		if f := rc.roundTrip(wire.TypePing, nil, 0); f.Type != wire.TypePong {
			t.Fatalf("ping after %s: %s", typ, f.Type)
		}
	}
	if resp := rc.batch(wire.BatchReq{Txn: open.Txn, Commit: true, Ops: []wire.WriteOp{insertOp("b", 1)}}); resp.Code != 0 {
		t.Fatalf("commit after the retired opcodes: %+v", resp)
	}
}
