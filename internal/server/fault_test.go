package server

import (
	"fmt"
	"net"
	"runtime"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"hyrisenv/internal/core"
	"hyrisenv/internal/shard"
	"hyrisenv/internal/txn"
	"hyrisenv/internal/wire"
)

// failNthWriteConn fails the nth Write call on the underlying
// connection mid-frame: it pushes a strict prefix of the bytes onto the
// wire, closes the socket, and reports a write error — the shape a
// fault-plane partial write (or a peer reset racing a response burst)
// presents to the connection's goroutine.
type failNthWriteConn struct {
	net.Conn
	writes atomic.Int32
	failAt int32
}

func (c *failNthWriteConn) Write(b []byte) (int, error) {
	if c.writes.Add(1) != c.failAt || len(b) < 2 {
		return c.Conn.Write(b)
	}
	n, _ := c.Conn.Write(b[: len(b)/2 : len(b)/2])
	c.Conn.Close() //nolint:errcheck — conn is the fault target
	return n, fmt.Errorf("injected mid-frame write failure: %w", syscall.ECONNRESET)
}

// testFrame round-trips one request on a raw wire connection from
// inside the server package (the external test package has its own
// helper; this one exists because importing hyrisenv/client here would
// cycle back through the root package).
func testFrame(t *testing.T, nc net.Conn, reqID uint64, typ wire.Type, payload []byte) (wire.Frame, error) {
	t.Helper()
	nc.SetDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck
	if err := wire.WriteFrame(nc, wire.Frame{Type: typ, ReqID: reqID, Payload: payload}); err != nil {
		return wire.Frame{}, err
	}
	return wire.ReadFrame(nc, 0)
}

// TestMidFrameWriteFailureReleasesResources audits the teardown path
// the fault plane exercises constantly: a response write that dies
// mid-frame must take down only that connection — its goroutine exits,
// its transaction-scoped admission slot is released,
// and other connections keep serving. A leak in any of these turns a
// chaos run into resource exhaustion instead of graceful degradation.
func TestMidFrameWriteFailureReleasesResources(t *testing.T) {
	eng, err := shard.Open(shard.Config{Config: core.Config{Mode: txn.ModeNone, Dir: t.TempDir()}})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	// The first accepted connection is the victim: its 3rd socket write
	// (handshake flush, BeginOK flush, then the Ping reply) fails
	// mid-frame. Later connections are untouched.
	var accepted atomic.Int32
	srv, err := Listen(eng, "127.0.0.1:0", Config{
		MaxConcurrent: 4,
		ConnWrapper: func(nc net.Conn) net.Conn {
			if accepted.Add(1) == 1 {
				return &failNthWriteConn{Conn: nc, failAt: 3}
			}
			return nc
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	baseline := runtime.NumGoroutine()

	victim, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer victim.Close()
	if f, err := testFrame(t, victim, 1, wire.TypeHello, wire.Hello{Version: wire.Version}.Encode()); err != nil || f.Type != wire.TypeHelloOK {
		t.Fatalf("handshake: type=%v err=%v", f.Type, err)
	}
	if f, err := testFrame(t, victim, 2, wire.TypeBegin, wire.BeginReq{}.Encode()); err != nil || f.Type != wire.TypeBeginOK {
		t.Fatalf("begin: type=%v err=%v", f.Type, err)
	}
	// The transaction now holds an admission slot that only teardown can
	// release (the client will never commit).
	if got := len(srv.admit); got != 1 {
		t.Fatalf("admission slots held after Begin = %d, want 1", got)
	}

	// The Ping reply is the victim conn's 3rd write: it dies mid-frame.
	if _, err := testFrame(t, victim, 3, wire.TypePing, nil); err == nil {
		t.Fatal("ping on the victim conn succeeded; the injected write failure never fired")
	}

	// Teardown must be complete, not just begun: conn deregistered, the
	// orphaned transaction aborted and its admission slot returned.
	waitFor("victim conn teardown", func() bool { return srv.NumConns() == 0 })
	waitFor("admission slot release", func() bool { return len(srv.admit) == 0 })

	// A fresh connection is fully served — the failure was scoped to one
	// conn, and the freed slot is grantable again.
	healthy, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if f, err := testFrame(t, healthy, 1, wire.TypeHello, wire.Hello{Version: wire.Version}.Encode()); err != nil || f.Type != wire.TypeHelloOK {
		t.Fatalf("healthy handshake: type=%v err=%v", f.Type, err)
	}
	if f, err := testFrame(t, healthy, 2, wire.TypeBegin, wire.BeginReq{}.Encode()); err != nil || f.Type != wire.TypeBeginOK {
		t.Fatalf("healthy begin: type=%v err=%v", f.Type, err)
	}
	if f, err := testFrame(t, healthy, 3, wire.TypePing, nil); err != nil || f.Type != wire.TypePong {
		t.Fatalf("healthy ping: type=%v err=%v", f.Type, err)
	}
	healthy.Close() //nolint:errcheck
	waitFor("healthy conn teardown", func() bool { return srv.NumConns() == 0 })

	// No goroutine leak: both connections' goroutines are gone.
	// A couple of runtime-internal goroutines of slack absorbs timers etc.
	waitFor("goroutine count recovery", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= baseline+2
	})
}
