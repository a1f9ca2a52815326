package server_test

import (
	"context"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"hyrisenv"
	"hyrisenv/client"
	"hyrisenv/internal/core"
	"hyrisenv/internal/disk"
	"hyrisenv/internal/server"
	"hyrisenv/internal/shard"
	"hyrisenv/internal/storage"
	"hyrisenv/internal/txn"
	"hyrisenv/internal/wire"
)

// openEngine opens an engine in t.TempDir and registers no cleanup: the
// tests own the close order (server first, then engine).
func openEngine(t *testing.T, mode txn.Mode, model disk.Model) *shard.Engine {
	t.Helper()
	eng, err := shard.Open(shard.Config{Config: core.Config{
		Mode:        mode,
		Dir:         t.TempDir(),
		NVMHeapSize: 64 << 20,
		DiskModel:   model,
	}})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func startServer(t *testing.T, eng *shard.Engine, cfg server.Config) *server.Server {
	t.Helper()
	srv, err := server.Listen(eng, "127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		eng.Close()
	})
	return srv
}

func dialClient(t *testing.T, addr string, opts client.Options) *client.Client {
	t.Helper()
	c, err := client.Dial(addr, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

var testCols = []hyrisenv.Column{
	{Name: "id", Type: hyrisenv.Int64},
	{Name: "name", Type: hyrisenv.String},
	{Name: "score", Type: hyrisenv.Float64},
}

// TestEndToEnd drives the full protocol surface through the public
// client against a real TCP server.
func TestEndToEnd(t *testing.T) {
	eng := openEngine(t, txn.ModeNone, disk.Model{})
	srv := startServer(t, eng, server.Config{})
	c := dialClient(t, srv.Addr(), client.Options{})

	if c.Mode() != hyrisenv.Volatile {
		t.Fatalf("handshake mode = %v, want Volatile", c.Mode())
	}
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}

	// DDL, including the duplicate-table error path.
	if err := c.CreateTable("users", testCols, "id"); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateTable("users", testCols); !errors.Is(err, client.ErrTableExists) {
		t.Fatalf("duplicate create: got %v, want ErrTableExists", err)
	}

	// Transactional writes with read-your-writes inside the txn.
	tx, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	row, err := tx.Insert("users", hyrisenv.Int(1), hyrisenv.Str("alice"), hyrisenv.Float(9.5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Insert("users", hyrisenv.Int(2), hyrisenv.Str("bob"), hyrisenv.Float(4.0)); err != nil {
		t.Fatal(err)
	}
	if n, err := tx.Count("users"); err != nil || n != 2 {
		t.Fatalf("in-txn count = %d, %v; want 2", n, err)
	}
	// Isolation: auto-commit reads snapshot the committed horizon and
	// must not see the open transaction's rows.
	if n, err := c.Count("users"); err != nil || n != 0 {
		t.Fatalf("outside count = %d, %v; want 0 before commit", n, err)
	}
	cidBefore := tx.SnapshotCID()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if n, err := c.Count("users"); err != nil || n != 2 {
		t.Fatalf("count = %d, %v; want 2 after commit", n, err)
	}

	// Point lookup round-trips typed values.
	vals, err := c.Row("users", row)
	if err != nil {
		t.Fatal(err)
	}
	if got := vals[1].S; got != "alice" {
		t.Fatalf("row name = %q, want alice", got)
	}
	if got := vals[2].F; got != 9.5 {
		t.Fatalf("row score = %v, want 9.5", got)
	}

	// Predicates and ranges.
	ids, err := c.Select("users", hyrisenv.Pred{Col: "name", Op: hyrisenv.Eq, Val: hyrisenv.Str("bob")})
	if err != nil || len(ids) != 1 {
		t.Fatalf("select bob: %v, %v", ids, err)
	}
	ids, err = c.SelectRange("users", "id", hyrisenv.Int(1), hyrisenv.Int(2))
	if err != nil || len(ids) != 1 {
		t.Fatalf("range [1,2): %v, %v", ids, err)
	}
	if _, err := c.Select("users", hyrisenv.Pred{Col: "nope", Op: hyrisenv.Eq, Val: hyrisenv.Int(0)}); !errors.Is(err, client.ErrBadColumn) {
		t.Fatalf("bad column: got %v", err)
	}
	if _, err := c.Count("ghosts"); !errors.Is(err, client.ErrNoSuchTable) {
		t.Fatalf("missing table: got %v", err)
	}

	// Update + delete, then time travel back before both.
	tx2, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx2.Update("users", row, hyrisenv.Int(1), hyrisenv.Str("alice2"), hyrisenv.Float(1.0)); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	old, err := c.BeginAt(cidBefore)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := old.Count("users"); err != nil || n != 0 {
		t.Fatalf("time travel count = %d, %v; want 0", n, err)
	}
	if _, err := old.Insert("users", hyrisenv.Int(9), hyrisenv.Str("x"), hyrisenv.Float(0)); !errors.Is(err, client.ErrReadOnly) {
		t.Fatalf("write in read-only txn: got %v", err)
	}
	if err := old.Abort(); err != nil {
		t.Fatal(err)
	}

	// Write-write conflict surfaces as ErrConflict and aborts the loser.
	txA, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	txB, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	cur, err := c.Select("users", hyrisenv.Pred{Col: "id", Op: hyrisenv.Eq, Val: hyrisenv.Int(1)})
	if err != nil || len(cur) != 1 {
		t.Fatalf("locate row: %v, %v", cur, err)
	}
	if _, err := txA.Update("users", cur[0], hyrisenv.Int(1), hyrisenv.Str("a"), hyrisenv.Float(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := txB.Update("users", cur[0], hyrisenv.Int(1), hyrisenv.Str("b"), hyrisenv.Float(0)); !errors.Is(err, client.ErrConflict) {
		t.Fatalf("conflicting update: got %v", err)
	}
	if err := txA.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := txB.Abort(); err != nil {
		t.Fatal(err)
	}

	// A Delete waits for the transaction's next frame, so its conflict
	// surfaces there: here at the commit, which aborts the transaction.
	cur, err = c.Select("users", hyrisenv.Pred{Col: "id", Op: hyrisenv.Eq, Val: hyrisenv.Int(1)})
	if err != nil || len(cur) != 1 {
		t.Fatalf("locate row: %v, %v", cur, err)
	}
	txC, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	txD, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := txC.Update("users", cur[0], hyrisenv.Int(1), hyrisenv.Str("c"), hyrisenv.Float(0)); err != nil {
		t.Fatal(err)
	}
	if err := txD.Delete("users", cur[0]); err != nil {
		t.Fatalf("delete waiting for the next frame: %v", err)
	}
	if err := txD.Commit(); !errors.Is(err, client.ErrConflict) {
		t.Fatalf("commit carrying a conflicting delete: got %v", err)
	}
	if err := txC.Commit(); err != nil {
		t.Fatal(err)
	}
	if n, err := c.Count("users"); err != nil || n != 2 {
		t.Fatalf("count = %d, %v after the failed delete; want 2", n, err)
	}

	// Unknown transaction handles are rejected per request.
	if err := c.CreateTable("t2", testCols); err != nil {
		t.Fatal(err)
	}
	tx3, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx3.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tx3.Commit(); !errors.Is(err, client.ErrTxDone) {
		t.Fatalf("double commit: got %v", err)
	}

	// Catalog and stats.
	tables, err := c.Tables()
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, tb := range tables {
		names[tb.Name] = true
	}
	if !names["users"] || !names["t2"] {
		t.Fatalf("tables = %+v", tables)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Mode != hyrisenv.Volatile || st.Uptime <= 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestConcurrentClients hammers one server from many pooled connections
// mixing writers and readers; meant to run under -race.
func TestConcurrentClients(t *testing.T) {
	eng := openEngine(t, txn.ModeNone, disk.Model{})
	srv := startServer(t, eng, server.Config{})
	c := dialClient(t, srv.Addr(), client.Options{PoolSize: 16})

	if err := c.CreateTable("events", testCols, "id"); err != nil {
		t.Fatal(err)
	}

	const workers = 16
	const perWorker = 25
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				tx, err := c.Begin()
				if err != nil {
					errCh <- err
					return
				}
				id := int64(w*perWorker + i)
				if _, err := tx.Insert("events", hyrisenv.Int(id), hyrisenv.Str("w"), hyrisenv.Float(0)); err != nil {
					errCh <- err
					return
				}
				if err := tx.Commit(); err != nil {
					errCh <- err
					return
				}
				if _, err := c.Count("events", hyrisenv.Pred{Col: "id", Op: hyrisenv.Le, Val: hyrisenv.Int(id)}); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	if n, err := c.Count("events"); err != nil || n != workers*perWorker {
		t.Fatalf("count = %d, %v; want %d", n, err, workers*perWorker)
	}
}

// rawConn dials and handshakes at the frame level, for tests below the
// client abstraction.
type rawConn struct {
	t     *testing.T
	nc    net.Conn
	reqID uint64
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	rc := &rawConn{t: t, nc: nc}
	f := rc.roundTrip(wire.TypeHello, wire.Hello{Version: wire.Version}.Encode(), 0)
	if f.Type != wire.TypeHelloOK {
		t.Fatalf("handshake reply %s", f.Type)
	}
	return rc
}

func (rc *rawConn) roundTrip(t wire.Type, payload []byte, timeoutMs uint32) wire.Frame {
	rc.t.Helper()
	rc.reqID++
	rc.nc.SetDeadline(time.Now().Add(10 * time.Second))
	if err := wire.WriteFrame(rc.nc, wire.Frame{Type: t, ReqID: rc.reqID, TimeoutMs: timeoutMs, Payload: payload}); err != nil {
		rc.t.Fatal(err)
	}
	f, err := wire.ReadFrame(rc.nc, 0)
	if err != nil {
		rc.t.Fatal(err)
	}
	if f.ReqID != rc.reqID {
		rc.t.Fatalf("response req id %d, want %d", f.ReqID, rc.reqID)
	}
	return f
}

func (rc *rawConn) expectErr(f wire.Frame, code uint16) wire.ErrorResp {
	rc.t.Helper()
	if f.Type != wire.TypeError {
		rc.t.Fatalf("got %s frame, want error", f.Type)
	}
	e, err := wire.DecodeErrorResp(f.Payload)
	if err != nil {
		rc.t.Fatal(err)
	}
	if e.Code != code {
		rc.t.Fatalf("error code %d (%s), want %d", e.Code, e.Msg, code)
	}
	return e
}

// TestRequestDeadline checks the satellite requirement: a request whose
// frame-header deadline expires server-side comes back as a structured
// CodeDeadline error on a healthy connection — not a hang, not a drop.
// A batch that begins a transaction and runs past its deadline is one:
// its reply cannot name the transaction, so it aborts it and answers
// deadline. A batch that carries a commit is not: the commit is made
// deterministically slow with a modeled 40 ms fsync, and finished past
// its deadline, its reply stands, because it says the commit happened.
func TestRequestDeadline(t *testing.T) {
	eng := openEngine(t, txn.ModeLog, disk.Model{SyncLatency: 40 * time.Millisecond})
	srv := startServer(t, eng, server.Config{})
	rc := dialRaw(t, srv.Addr())
	rc.createIntTable("d")

	// 20000 inserts take well over 1 ms: the batch stops at the op its
	// deadline overtakes, and aborts what it began.
	big := wire.BatchReq{Ops: make([]wire.WriteOp, 20000)}
	for i := range big.Ops {
		big.Ops[i] = insertOp("d", int64(i))
	}
	rc.expectErr(rc.roundTrip(wire.TypeBatch, big.Encode(), 1), wire.CodeDeadline)
	// The connection survived and still serves requests, and nothing of
	// the expired batch is left: no row, no open transaction.
	if f := rc.roundTrip(wire.TypePing, nil, 0); f.Type != wire.TypePong {
		t.Fatalf("ping after deadline: %s", f.Type)
	}
	if n := rc.count(0, "d"); n != 0 {
		t.Fatalf("%d rows of the expired batch visible", n)
	}

	// Commit with a 1 ms deadline: the 40 ms group-commit sync finishes
	// it past its deadline, and the reply reports the commit.
	resp := rc.batch(wire.BatchReq{Ops: []wire.WriteOp{insertOp("d", 1)}})
	f := rc.roundTrip(wire.TypeBatch, wire.BatchReq{Txn: resp.Txn, Commit: true}.Encode(), 1)
	if f.Type != wire.TypeBatchOK {
		e, _ := wire.DecodeErrorResp(f.Payload)
		t.Fatalf("commit past its deadline: got %s %+v, want the batch's reply", f.Type, e)
	}
	if resp, err := wire.DecodeBatchResp(f.Payload); err != nil || resp.Code != 0 {
		t.Fatalf("commit past its deadline: %+v, %v", resp, err)
	}
	if n := rc.count(0, "d"); n != 1 {
		t.Fatalf("%d rows committed, want 1", n)
	}

	// Client-side mapping: an already-expired context is reported as
	// context.DeadlineExceeded without touching the wire.
	c := dialClient(t, srv.Addr(), client.Options{})
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if err := c.PingContext(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired ctx ping: got %v", err)
	}
}

// TestHandshakeRejections covers protocol-version and bad-first-frame
// refusals, plus the negotiation path for newer-than-us clients.
func TestHandshakeRejections(t *testing.T) {
	eng := openEngine(t, txn.ModeNone, disk.Model{})
	srv := startServer(t, eng, server.Config{})

	// A version below MinVersion — the retired versions 1 and 2 included
	// — is refused with the range the server does speak, in an error frame
	// at the number version 2 gave it, so that a version-2 client can read
	// the refusal.
	for _, v := range []uint16{0, 1, 2} {
		nc, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		nc.SetDeadline(time.Now().Add(5 * time.Second))
		if err := wire.WriteFrame(nc, wire.Frame{Type: wire.TypeHello, ReqID: 1,
			Payload: wire.Hello{Version: v}.Encode()}); err != nil {
			t.Fatal(err)
		}
		f, err := wire.ReadFrame(nc, 0)
		if err != nil {
			t.Fatal(err)
		}
		if f.Type != wire.TypeError || uint8(f.Type) != 26 {
			t.Fatalf("version %d: got %s (%d), want error (26)", v, f.Type, uint8(f.Type))
		}
		e, _ := wire.DecodeErrorResp(f.Payload)
		if e.Code != wire.CodeBadRequest || !strings.Contains(e.Msg, "speaks 3 through 3") {
			t.Fatalf("version %d: %+v", v, e)
		}
	}

	// A client claiming a newer version negotiates down to ours.
	nc99, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc99.Close()
	nc99.SetDeadline(time.Now().Add(5 * time.Second))
	if err := wire.WriteFrame(nc99, wire.Frame{Type: wire.TypeHello, ReqID: 1,
		Payload: wire.Hello{Version: 99}.Encode()}); err != nil {
		t.Fatal(err)
	}
	f, err := wire.ReadFrame(nc99, 0)
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != wire.TypeHelloOK {
		t.Fatalf("version 99: got %s, want hello-ok", f.Type)
	}
	ok99, err := wire.DecodeHelloOK(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if ok99.Version != wire.Version {
		t.Fatalf("version 99 negotiated to %d, want %d", ok99.Version, wire.Version)
	}

	// First frame is not a hello.
	nc2, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc2.Close()
	nc2.SetDeadline(time.Now().Add(5 * time.Second))
	if err := wire.WriteFrame(nc2, wire.Frame{Type: wire.TypePing, ReqID: 1}); err != nil {
		t.Fatal(err)
	}
	f, err = wire.ReadFrame(nc2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != wire.TypeError {
		t.Fatalf("ping before hello: got %s", f.Type)
	}
}

// TestMaxConns checks that connections over the limit are refused with a
// structured error frame rather than silently dropped.
func TestMaxConns(t *testing.T) {
	eng := openEngine(t, txn.ModeNone, disk.Model{})
	srv := startServer(t, eng, server.Config{MaxConns: 2})

	rc1 := dialRaw(t, srv.Addr())
	rc2 := dialRaw(t, srv.Addr())
	_ = rc1
	_ = rc2

	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(5 * time.Second))
	f, err := wire.ReadFrame(nc, 0)
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != wire.TypeError {
		t.Fatalf("over-limit conn: got %s frame", f.Type)
	}
	e, _ := wire.DecodeErrorResp(f.Payload)
	if e.Code != wire.CodeShuttingDown || !strings.Contains(e.Msg, "limit") {
		t.Fatalf("over-limit conn: %+v", e)
	}
}

// TestFrameLimits checks both directions of the MaxFrame bound: an
// oversized response is replaced by a CodeTooLarge error frame on a
// healthy connection, and an oversized request drops the connection.
func TestFrameLimits(t *testing.T) {
	eng := openEngine(t, txn.ModeNone, disk.Model{})
	srv := startServer(t, eng, server.Config{MaxFrame: 2048})
	c := dialClient(t, srv.Addr(), client.Options{})

	if err := c.CreateTable("big", testCols); err != nil {
		t.Fatal(err)
	}
	tx, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	// ~500 rows of row IDs (~4 KB encoded) overflow a 2 KiB reply frame.
	for i := 0; i < 500; i++ {
		if _, err := tx.Insert("big", hyrisenv.Int(int64(i)), hyrisenv.Str("x"), hyrisenv.Float(0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	_, err = c.ScanAll("big")
	var se *client.ServerError
	if !errors.As(err, &se) || se.Code != wire.CodeTooLarge {
		t.Fatalf("oversize response: got %v", err)
	}
	// Counts aggregate server-side and still fit.
	if n, err := c.Count("big"); err != nil || n != 500 {
		t.Fatalf("count = %d, %v", n, err)
	}

	// An oversized request cannot be parsed safely; the server closes the
	// connection and the client reports a transport error.
	tx2, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	huge := strings.Repeat("p", 4096)
	if _, err := tx2.Insert("big", hyrisenv.Int(1), hyrisenv.Str(huge), hyrisenv.Float(0)); err == nil {
		t.Fatal("oversize request: want transport error, got nil")
	}
}

// TestConnDropAbortsTxns checks that a dropped connection releases its
// transactions' row locks (the server-side registry cleanup).
func TestConnDropAbortsTxns(t *testing.T) {
	eng := openEngine(t, txn.ModeNone, disk.Model{})
	srv := startServer(t, eng, server.Config{})

	c := dialClient(t, srv.Addr(), client.Options{})
	if err := c.CreateTable("locks", testCols); err != nil {
		t.Fatal(err)
	}
	tx, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	row, err := tx.Insert("locks", hyrisenv.Int(1), hyrisenv.Str("a"), hyrisenv.Float(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// A raw connection takes the row lock, then vanishes without abort.
	rc := dialRaw(t, srv.Addr())
	upd := wire.WriteOp{Kind: wire.WriteUpdate, Table: "locks", Row: row,
		Vals: []storage.Value{storage.Int(1), storage.Str("locked"), storage.Float(0)}}
	if resp := rc.batch(wire.BatchReq{Ops: []wire.WriteOp{upd}}); resp.Code != 0 {
		t.Fatalf("update: %+v", resp)
	}
	rc.nc.Close()

	// Once the server notices the hangup it aborts the orphan, releasing
	// the lock so this update stops conflicting.
	deadline := time.Now().Add(5 * time.Second)
	for {
		tx2, err := c.Begin()
		if err != nil {
			t.Fatal(err)
		}
		_, err = tx2.Update("locks", row, hyrisenv.Int(1), hyrisenv.Str("b"), hyrisenv.Float(0))
		if err == nil {
			if err := tx2.Commit(); err != nil {
				t.Fatal(err)
			}
			break
		}
		tx2.Abort()
		if !errors.Is(err, client.ErrConflict) {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatal("orphaned transaction still holds its lock")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The orphan's own update must not have become visible.
	vals, err := c.Row("locks", row)
	if err == nil && vals[1].S == "locked" {
		t.Fatal("uncommitted update from dropped connection is visible")
	}
}

// TestGracefulShutdown checks the drain path end to end: idle and
// in-transaction connections are drained, open transactions aborted,
// and the engine close afterwards is idempotent under concurrency
// (the satellite hardening of DB.Close/Engine.Close).
func TestGracefulShutdown(t *testing.T) {
	eng := openEngine(t, txn.ModeNone, disk.Model{})
	srv, err := server.Listen(eng, "127.0.0.1:0", server.Config{})
	if err != nil {
		t.Fatal(err)
	}

	c, err := client.Dial(srv.Addr(), client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.CreateTable("drain", testCols); err != nil {
		t.Fatal(err)
	}
	tx, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Insert("drain", hyrisenv.Int(1), hyrisenv.Str("x"), hyrisenv.Float(0)); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if srv.NumConns() != 0 {
		t.Fatalf("NumConns = %d after shutdown", srv.NumConns())
	}
	// New connections are refused after shutdown.
	if _, err := client.Dial(srv.Addr(), client.Options{DialTimeout: time.Second}); err == nil {
		t.Fatal("dial after shutdown succeeded")
	}

	// The engine survived the drain (caller owns it) and the in-flight
	// transaction was aborted: its row never became visible.
	etx := eng.Begin()
	tbl, err := eng.Table("drain")
	if err != nil {
		t.Fatal(err)
	}
	if rows, err := etx.Select(context.Background(), tbl); err != nil {
		t.Fatal(err)
	} else if len(rows) != 0 {
		t.Fatalf("aborted txn left %d visible rows", len(rows))
	}
	etx.Abort()

	// Concurrent Close calls all succeed and agree (sync.Once path).
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = eng.Close()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent close %d: %v", i, err)
		}
	}
	if !eng.Closed() {
		t.Fatal("engine not marked closed")
	}
	if _, err := eng.CreateTable("late", workloadSchema(t)); !errors.Is(err, core.ErrClosed) {
		t.Fatalf("create after close: got %v", err)
	}
}

func workloadSchema(t *testing.T) storage.Schema {
	t.Helper()
	sch, err := storage.NewSchema(storage.ColumnDef{Name: "id", Type: storage.TypeInt64})
	if err != nil {
		t.Fatal(err)
	}
	return sch
}

// TestWriteTimeoutDisabled covers the operator opt-out: with a negative
// WriteTimeout, reply must clear any deadline left on the conn instead
// of writing under a stale one, and the full request cycle still works.
// Regression test for the deadlinecheck finding that the zero-timeout
// path reached WriteFrame with whatever deadline happened to be set.
func TestWriteTimeoutDisabled(t *testing.T) {
	eng := openEngine(t, txn.ModeNone, disk.Model{})
	srv := startServer(t, eng, server.Config{WriteTimeout: -1})
	c := dialClient(t, srv.Addr(), client.Options{})

	if err := c.Ping(); err != nil {
		t.Fatalf("ping with write timeout disabled: %v", err)
	}
	if err := c.CreateTable("wt", testCols, "id"); err != nil {
		t.Fatal(err)
	}
	if n, err := c.Count("wt"); err != nil || n != 0 {
		t.Fatalf("count = %d, %v; want 0", n, err)
	}
}
