package server_test

import (
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
	rc.expectErr(rc.roundTrip(wire.TypeAbort, wire.TxnReq{Txn: resp.Txn}.Encode(), 0), wire.CodeNoSuchTxn)
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
