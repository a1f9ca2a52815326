package server_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"hyrisenv"
	"hyrisenv/client"
	"hyrisenv/internal/disk"
	"hyrisenv/internal/server"
	"hyrisenv/internal/storage"
	"hyrisenv/internal/txn"
	"hyrisenv/internal/wire"
)

// writeFrame writes one request frame without reading a response — the
// pipelined half of rawConn.roundTrip.
func (rc *rawConn) writeFrame(t wire.Type, payload []byte) uint64 {
	rc.t.Helper()
	rc.reqID++
	rc.nc.SetWriteDeadline(time.Now().Add(10 * time.Second))
	if err := wire.WriteFrame(rc.nc, wire.Frame{Type: t, ReqID: rc.reqID, Payload: payload}); err != nil {
		rc.t.Fatal(err)
	}
	return rc.reqID
}

func (rc *rawConn) readFrame() (wire.Frame, error) {
	rc.nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	return wire.ReadFrame(rc.nc, 0)
}

// TestPipelinedRequests drives many requests down one connection before
// reading any response and checks that every response comes back, in
// request order, with the request's echoed ID.
func TestPipelinedRequests(t *testing.T) {
	eng := openEngine(t, txn.ModeNone, disk.Model{})
	srv := startServer(t, eng, server.Config{})
	rc := dialRaw(t, srv.Addr())

	mk := wire.CreateTableReq{Name: "p",
		Cols: []wire.ColumnDef{{Name: "id", Type: uint8(storage.TypeInt64)}}}
	if f := rc.roundTrip(wire.TypeCreateTable, mk.Encode(), 0); f.Type != wire.TypeOK {
		t.Fatalf("create table: %s", f.Type)
	}

	// 3× the default pipeline depth: the overflow waits in the kernel
	// socket buffer and must still be answered.
	const n = 96
	ids := make([]uint64, 0, n)
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			ids = append(ids, rc.writeFrame(wire.TypePing, nil))
		} else {
			req := wire.SelectReq{Table: "p"}
			ids = append(ids, rc.writeFrame(wire.TypeSelect, req.Encode()))
		}
	}
	for i, want := range ids {
		f, err := rc.readFrame()
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if f.ReqID != want {
			t.Fatalf("response %d has req id %d, want %d (out of order?)", i, f.ReqID, want)
		}
		wantType := wire.TypePong
		if i%2 == 1 {
			wantType = wire.TypeRowIDs
		}
		if f.Type != wantType {
			t.Fatalf("response %d is %s, want %s", i, f.Type, wantType)
		}
	}
}

// TestPipelinedTxnSequence checks that a begin→insert→commit pipeline
// written in one burst commits correctly — in-order execution is what
// makes pipelining safe for transaction scripts.
func TestPipelinedTxnSequence(t *testing.T) {
	eng := openEngine(t, txn.ModeNone, disk.Model{})
	srv := startServer(t, eng, server.Config{})
	rc := dialRaw(t, srv.Addr())

	mk := wire.CreateTableReq{Name: "seq",
		Cols: []wire.ColumnDef{{Name: "id", Type: uint8(storage.TypeInt64)}}}
	if f := rc.roundTrip(wire.TypeCreateTable, mk.Encode(), 0); f.Type != wire.TypeOK {
		t.Fatalf("create table: %s", f.Type)
	}

	// The insert and commit refer to the txn handle begin will return.
	// Handles are assigned per connection starting at 1, which the wire
	// README documents as stable — exactly the property a pipelining
	// client needs to script a transaction without waiting.
	beginID := rc.writeFrame(wire.TypeBegin, wire.BeginReq{}.Encode())
	insID := rc.writeFrame(wire.TypeInsert,
		wire.InsertReq{Txn: 1, Table: "seq", Vals: []storage.Value{storage.Int(7)}}.Encode())
	commitID := rc.writeFrame(wire.TypeCommit, wire.TxnReq{Txn: 1}.Encode())

	f, err := rc.readFrame()
	if err != nil || f.Type != wire.TypeBeginOK || f.ReqID != beginID {
		t.Fatalf("begin: %s %v", f.Type, err)
	}
	ok, err := wire.DecodeBeginOK(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if ok.Txn != 1 {
		t.Fatalf("first txn handle = %d, want 1", ok.Txn)
	}
	f, err = rc.readFrame()
	if err != nil || f.Type != wire.TypeRowID || f.ReqID != insID {
		t.Fatalf("insert: %s %v", f.Type, err)
	}
	f, err = rc.readFrame()
	if err != nil || f.Type != wire.TypeOK || f.ReqID != commitID {
		t.Fatalf("commit: %s %v", f.Type, err)
	}

	etx := eng.Begin()
	tbl, err := eng.Table("seq")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := etx.Select(context.Background(), tbl)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(rows); got != 1 {
		t.Fatalf("committed rows = %d, want 1", got)
	}
	etx.Abort()
}

// TestDrainCompletesPipeline is the graceful-drain regression test: a
// connection with several slow commits pipelined (modelled 40 ms commit
// syncs) must receive every one of their responses during Shutdown, and
// a new request sent after the drain began must be answered with
// CodeShuttingDown — not silently dropped.
func TestDrainCompletesPipeline(t *testing.T) {
	eng := openEngine(t, txn.ModeLog, disk.Model{SyncLatency: 40 * time.Millisecond})
	srv, err := server.Listen(eng, "127.0.0.1:0", server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	defer srv.Close()
	rc := dialRaw(t, srv.Addr())

	mk := wire.CreateTableReq{Name: "dr",
		Cols: []wire.ColumnDef{{Name: "id", Type: uint8(storage.TypeInt64)}}}
	if f := rc.roundTrip(wire.TypeCreateTable, mk.Encode(), 0); f.Type != wire.TypeOK {
		t.Fatalf("create table: %s", f.Type)
	}

	// Five transactions, each with one row staged; their commits each pay
	// the 40 ms sync, so the pipelined burst below holds the worker busy
	// for ~200 ms — ample time for the drain to begin mid-queue.
	const nTxns = 5
	for i := 0; i < nTxns; i++ {
		f := rc.roundTrip(wire.TypeBegin, wire.BeginReq{}.Encode(), 0)
		if f.Type != wire.TypeBeginOK {
			t.Fatalf("begin %d: %s", i, f.Type)
		}
		ok, err := wire.DecodeBeginOK(f.Payload)
		if err != nil {
			t.Fatal(err)
		}
		ins := wire.InsertReq{Txn: ok.Txn, Table: "dr", Vals: []storage.Value{storage.Int(int64(i))}}
		if f := rc.roundTrip(wire.TypeInsert, ins.Encode(), 0); f.Type != wire.TypeRowID {
			t.Fatalf("insert %d: %s", i, f.Type)
		}
	}
	commitIDs := make([]uint64, 0, nTxns)
	for i := 0; i < nTxns; i++ {
		commitIDs = append(commitIDs, rc.writeFrame(wire.TypeCommit, wire.TxnReq{Txn: uint64(i + 1)}.Encode()))
	}
	// Let the burst reach the server (the first commit alone takes 40 ms,
	// so the rest are still waiting to be read when the drain begins).
	// They name transactions open on the connection, so the drain still
	// executes them.
	time.Sleep(25 * time.Millisecond)

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownErr <- srv.Shutdown(ctx)
	}()
	// Give the drain a moment to reach the connection, then send one more
	// request into the draining stream.
	time.Sleep(5 * time.Millisecond)
	lateID := rc.writeFrame(wire.TypePing, nil)

	// Every pipelined commit must complete and be answered, in order.
	for i, want := range commitIDs {
		f, err := rc.readFrame()
		if err != nil {
			t.Fatalf("draining server dropped pipelined commit %d: %v", i, err)
		}
		if f.ReqID != want || f.Type != wire.TypeOK {
			e, _ := wire.DecodeErrorResp(f.Payload)
			t.Fatalf("pipelined commit %d: got %s (%+v) for req %d, want ok for %d", i, f.Type, e, f.ReqID, want)
		}
	}
	// The late request is either answered shutting-down (it entered the
	// drain window) or — if it raced ahead of the drain flag — served
	// normally. Either way it must not corrupt the stream, and the
	// connection must then close.
	if f, err := rc.readFrame(); err == nil {
		switch {
		case f.ReqID != lateID:
			t.Fatalf("late request answered with req id %d, want %d", f.ReqID, lateID)
		case f.Type == wire.TypeError:
			e, derr := wire.DecodeErrorResp(f.Payload)
			if derr != nil || e.Code != wire.CodeShuttingDown {
				t.Fatalf("late request error = %+v (%v), want shutting-down", e, derr)
			}
		case f.Type != wire.TypePong:
			t.Fatalf("late request got %s", f.Type)
		}
	}

	if err := <-shutdownErr; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if n := srv.NumConns(); n != 0 {
		t.Fatalf("NumConns = %d after drain", n)
	}
	// All five pipelined commits are durable.
	etx := eng.Begin()
	tbl, err := eng.Table("dr")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := etx.Select(context.Background(), tbl)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(rows); got != nTxns {
		t.Fatalf("visible rows after drain = %d, want %d", got, nTxns)
	}
	etx.Abort()
}

// TestDrainRefusesNewWork pins the drain rule: once the drain begins, a
// request addressed to a transaction open on the connection still
// executes, so an admitted transaction can finish, while new work — a
// Begin, a batch that would begin a transaction, a one-shot read — is
// answered CodeShuttingDown.
func TestDrainRefusesNewWork(t *testing.T) {
	eng := openEngine(t, txn.ModeLog, disk.Model{SyncLatency: 100 * time.Millisecond})
	srv, err := server.Listen(eng, "127.0.0.1:0", server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	defer srv.Close()
	rc := dialRaw(t, srv.Addr())

	mk := wire.CreateTableReq{Name: "dr",
		Cols: []wire.ColumnDef{{Name: "id", Type: uint8(storage.TypeInt64)}}}
	if f := rc.roundTrip(wire.TypeCreateTable, mk.Encode(), 0); f.Type != wire.TypeOK {
		t.Fatalf("create table: %s", f.Type)
	}
	// Transaction 1 stages a row; transaction 2 is open and empty.
	for i := 0; i < 2; i++ {
		if f := rc.roundTrip(wire.TypeBegin, wire.BeginReq{}.Encode(), 0); f.Type != wire.TypeBeginOK {
			t.Fatalf("begin %d: %s", i, f.Type)
		}
	}
	ins := wire.InsertReq{Txn: 1, Table: "dr", Vals: []storage.Value{storage.Int(1)}}
	if f := rc.roundTrip(wire.TypeInsert, ins.Encode(), 0); f.Type != wire.TypeRowID {
		t.Fatalf("insert: %s", f.Type)
	}

	// Transaction 1's commit pays the 100 ms sync; the drain begins while
	// it runs, so every request behind it is read during the drain.
	type want struct {
		id   uint64
		typ  wire.Type
		code uint16
	}
	wants := []want{{rc.writeFrame(wire.TypeCommit, wire.TxnReq{Txn: 1}.Encode()), wire.TypeOK, 0}}
	wants = append(wants,
		want{rc.writeFrame(wire.TypeBegin, wire.BeginReq{}.Encode()), wire.TypeError, wire.CodeShuttingDown},
		want{rc.writeFrame(wire.TypeSelect, wire.SelectReq{Table: "dr"}.Encode()), wire.TypeError, wire.CodeShuttingDown},
		want{rc.writeFrame(wire.TypeBatch, wire.BatchReq{Commit: true, Ops: []wire.WriteOp{
			{Kind: wire.WriteInsert, Table: "dr", Vals: []storage.Value{storage.Int(4)}}}}.Encode()), wire.TypeError, wire.CodeShuttingDown},
		want{rc.writeFrame(wire.TypeInsert, wire.InsertReq{Txn: 2, Table: "dr", Vals: []storage.Value{storage.Int(2)}}.Encode()), wire.TypeRowID, 0},
		want{rc.writeFrame(wire.TypeBatch, wire.BatchReq{Txn: 2, Ops: []wire.WriteOp{
			{Kind: wire.WriteInsert, Table: "dr", Vals: []storage.Value{storage.Int(3)}}}}.Encode()), wire.TypeBatchOK, 0},
		want{rc.writeFrame(wire.TypeCommit, wire.TxnReq{Txn: 2}.Encode()), wire.TypeOK, 0},
	)
	time.Sleep(10 * time.Millisecond)
	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownErr <- srv.Shutdown(ctx)
	}()

	for i, w := range wants {
		f, err := rc.readFrame()
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		var code uint16
		if f.Type == wire.TypeError {
			e, _ := wire.DecodeErrorResp(f.Payload)
			code = e.Code
		}
		if f.ReqID != w.id || f.Type != w.typ || code != w.code {
			t.Fatalf("reply %d: got %s (code %d) for req %d, want %s (code %d) for %d", i, f.Type, code, f.ReqID, w.typ, w.code, w.id)
		}
	}
	if err := <-shutdownErr; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	etx := eng.Begin()
	defer etx.Abort()
	tbl, err := eng.Table("dr")
	if err != nil {
		t.Fatal(err)
	}
	if rows, err := etx.Select(context.Background(), tbl); err != nil || len(rows) != 3 {
		t.Fatalf("rows after drain: %d, %v; want both transactions' three rows", len(rows), err)
	}
}

// TestOverloadFastReject floods a server configured with one execution
// slot and no admission wait from several pipelined connections: excess
// requests must come back as CodeOverloaded error frames on healthy
// connections, while ping (admission-exempt) always succeeds.
//
// The flood is made of create-table requests against a log-mode engine
// with a 30 ms sync latency: each admitted request durably logs its DDL
// record, so it holds the execution slot while blocked on the sync.
// That keeps the slot observably busy even on a single CPU, where
// cheap in-memory requests would finish within one scheduler quantum
// and never contend.
func TestOverloadFastReject(t *testing.T) {
	eng := openEngine(t, txn.ModeLog, disk.Model{SyncLatency: 30 * time.Millisecond})
	srv := startServer(t, eng, server.Config{
		MaxConcurrent:  1,
		AdmissionQueue: 1,
		AdmissionWait:  -1, // reject immediately when the slot is busy
	})

	const conns = 4
	const perConn = 8
	type result struct{ served, rejected int }
	results := make(chan result, conns)
	for i := 0; i < conns; i++ {
		go func(connID int) {
			rc := dialRaw(t, srv.Addr())
			var r result
			for j := 0; j < perConn; j++ {
				req := wire.CreateTableReq{
					Name: fmt.Sprintf("ov-%d-%d", connID, j),
					Cols: []wire.ColumnDef{{Name: "id", Type: uint8(storage.TypeInt64)}},
				}
				rc.writeFrame(wire.TypeCreateTable, req.Encode())
			}
			for j := 0; j < perConn; j++ {
				f, err := rc.readFrame()
				if err != nil {
					t.Errorf("conn read: %v", err)
					break
				}
				switch f.Type {
				case wire.TypeOK:
					r.served++
				case wire.TypeError:
					e, derr := wire.DecodeErrorResp(f.Payload)
					if derr != nil || e.Code != wire.CodeOverloaded {
						t.Errorf("unexpected error frame: %+v (%v)", e, derr)
					}
					r.rejected++
				default:
					t.Errorf("unexpected frame %s", f.Type)
				}
			}
			// The connection survived the rejections, and ping bypasses
			// admission even while the server is saturated.
			if f := rc.roundTrip(wire.TypePing, nil, 0); f.Type != wire.TypePong {
				t.Errorf("ping under overload: %s", f.Type)
			}
			results <- r
		}(i)
	}
	var served, rejected int
	for i := 0; i < conns; i++ {
		r := <-results
		served += r.served
		rejected += r.rejected
	}
	if served+rejected != conns*perConn {
		t.Fatalf("served %d + rejected %d != %d requests", served, rejected, conns*perConn)
	}
	if served == 0 {
		t.Fatal("no request was ever admitted")
	}
	if rejected == 0 {
		t.Fatal("no request was fast-rejected despite a single execution slot")
	}
	if got := srv.Rejected(); got < uint64(rejected) {
		t.Fatalf("server counted %d rejections, clients saw %d", got, rejected)
	}
}

// TestRangeInsideTxnRidesItsSlot pins the one admission rule: a request
// naming a transaction rides the slot Begin charged for it, whatever its
// opcode. SelectRange once paid a second, request-scoped slot — and with
// one slot in the house a transaction was rejected by its own admission.
func TestRangeInsideTxnRidesItsSlot(t *testing.T) {
	eng := openEngine(t, txn.ModeNone, disk.Model{})
	srv := startServer(t, eng, server.Config{MaxConcurrent: 1, AdmissionWait: 5 * time.Millisecond})
	c := dialClient(t, srv.Addr(), client.Options{})
	if err := c.CreateTable("users", testCols, "id"); err != nil {
		t.Fatal(err)
	}
	tx, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	// The first write begins the transaction, which holds the only slot
	// until commit.
	row, err := tx.Insert("users", hyrisenv.Int(1), hyrisenv.Str("alice"), hyrisenv.Float(9.5))
	if err != nil {
		t.Fatal(err)
	}
	if rows, err := tx.Select("users"); err != nil || len(rows) != 1 {
		t.Fatalf("Select inside the transaction: %v, %v", rows, err)
	}
	if n, err := tx.Count("users"); err != nil || n != 1 {
		t.Fatalf("Count inside the transaction: %d, %v", n, err)
	}
	if _, err := tx.Row("users", row); err != nil {
		t.Fatalf("Row inside the transaction: %v", err)
	}
	if rows, err := tx.SelectRange("users", "id", hyrisenv.Int(0), hyrisenv.Int(10)); err != nil || len(rows) != 1 {
		t.Fatalf("SelectRange inside the transaction: %v, %v", rows, err)
	}
	// A one-shot read of any opcode still has to pay, and cannot.
	if _, err := c.SelectRange("users", "id", hyrisenv.Int(0), hyrisenv.Int(10)); !errors.Is(err, client.ErrOverloaded) {
		t.Fatalf("one-shot SelectRange beside a full house: %v, want ErrOverloaded", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if rows, err := c.SelectRange("users", "id", hyrisenv.Int(0), hyrisenv.Int(10)); err != nil || len(rows) != 1 {
		t.Fatalf("one-shot SelectRange after the commit freed the slot: %v, %v", rows, err)
	}
}
