// Package server implements the hyrisenv network front end: a concurrent
// TCP server that multiplexes many client connections onto one storage
// engine using the internal/wire protocol.
//
// Each accepted connection runs on one goroutine: it reads a request
// through a read buffer, executes it, writes the reply, and flushes the
// replies once no further request is buffered. Pipelined requests wait
// in the read buffer or the kernel socket buffer and are answered in
// arrival order. A transaction is begun, written to, committed and
// aborted by one request, the wire batch, and one body (conn.batch) runs
// it. Transaction handles are connection-scoped, so a dropped
// connection aborts everything it left open. Errors are reported per
// request as structured wire.TypeError frames — a failed request never
// tears down the connection.
//
// A fixed-size admission semaphore with a bounded wait queue sits in
// front of the execution stage: work that cannot be admitted in time is
// answered with a CodeOverloaded error frame immediately (the
// fast-reject path that keeps tail latency bounded past saturation).
// Admission is transaction-scoped: the batch that begins a transaction —
// one naming none — acquires a slot that the transaction holds until a
// batch commits or aborts it, so surplus load is shed at the door while
// an admitted transaction — including the commit that releases its row
// locks — can always finish. Standalone requests (one-shot reads, DDL)
// hold a slot just for their own execution, and ping stays exempt so
// health checks measure liveness, not load.
//
// Shutdown drains gracefully: the listener closes, and each connection
// reads on until its client has been quiet for a short grace (bounded
// by the drain context). During the drain a request addressed to a
// transaction open on the connection still executes, so an admitted
// transaction can commit or abort; every other request gets a
// CodeShuttingDown reply. Remaining open transactions are then aborted,
// and only then does the caller close the engine.
package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"hyrisenv/internal/backoff"
	"hyrisenv/internal/core"
	"hyrisenv/internal/exec"
	"hyrisenv/internal/nvm"
	"hyrisenv/internal/shard"
	"hyrisenv/internal/storage"
	"hyrisenv/internal/txn"
	"hyrisenv/internal/wire"
)

// Config tunes a Server. The zero value picks sensible defaults.
type Config struct {
	// MaxConns caps concurrently served connections; further accepts are
	// refused with a CodeShuttingDown error frame. Default 1024.
	MaxConns int
	// MaxFrame bounds request/response payloads in bytes. Default
	// wire.DefaultMaxPayload.
	MaxFrame uint32
	// IdleTimeout disconnects a client that sends no request for this
	// long. Default 5 minutes; negative disables.
	IdleTimeout time.Duration
	// WriteTimeout bounds writing one response frame. Default 30 s;
	// negative disables.
	WriteTimeout time.Duration
	// MaxConcurrent caps admitted work across all connections (the
	// admission semaphore): each open transaction holds one slot from
	// its begin to commit/abort, and each standalone request (one-shot
	// read, DDL) holds one for its own execution. Default
	// 64×GOMAXPROCS — sized for in-flight transactions, which span
	// client round trips, not just CPU bursts; negative disables
	// admission control entirely.
	MaxConcurrent int
	// AdmissionQueue bounds begins and requests waiting for an admission
	// slot; arrivals beyond it are fast-rejected with CodeOverloaded.
	// Default 4×MaxConcurrent.
	AdmissionQueue int
	// AdmissionWait bounds how long one begin or request waits for an
	// admission slot before it is rejected with CodeOverloaded. Default
	// 25 ms; negative rejects immediately when no slot is free.
	AdmissionWait time.Duration
	// ConnWrapper, when non-nil, wraps every accepted connection before
	// it is served — the hook the fault-injection plane
	// (internal/fault) uses to inject resets, partial-frame writes and
	// read stalls at the server's edge. The wrapper must preserve
	// net.Conn deadline semantics.
	ConnWrapper func(net.Conn) net.Conn
	// Logf, when non-nil, receives connection-level diagnostics.
	Logf func(format string, args ...any)
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.MaxConns == 0 {
		out.MaxConns = 1024
	}
	if out.MaxFrame == 0 {
		out.MaxFrame = wire.DefaultMaxPayload
	}
	if out.IdleTimeout == 0 {
		out.IdleTimeout = 5 * time.Minute
	}
	if out.WriteTimeout == 0 {
		out.WriteTimeout = 30 * time.Second
	}
	if out.MaxConcurrent == 0 {
		out.MaxConcurrent = 64 * runtime.GOMAXPROCS(0)
	}
	if out.AdmissionQueue == 0 {
		out.AdmissionQueue = 4 * out.MaxConcurrent
	}
	if out.AdmissionWait == 0 {
		out.AdmissionWait = 25 * time.Millisecond
	}
	return out
}

// Server serves one engine over TCP. The engine may be partitioned
// (shard.Config.Shards > 1); the wire protocol is shard-transparent —
// clients see one database, row IDs are global, and cross-shard
// transactions commit through the engine's 2PC coordinator.
type Server struct {
	eng   *shard.Engine
	cfg   Config
	ln    net.Listener
	start time.Time

	// admit is the admission semaphore: one token per concurrently
	// executing request. Nil when admission control is disabled.
	admit        chan struct{}
	admitWaiting atomic.Int64
	rejected     atomic.Uint64

	mu       sync.Mutex
	conns    map[*conn]struct{}
	draining bool
	done     chan struct{} // closed when Serve's accept loop exits

	nConns atomic.Int64
}

// New wraps an already-open engine. The caller retains ownership of the
// engine: the server never closes it (see Shutdown).
func New(eng *shard.Engine, cfg Config) *Server {
	s := &Server{
		eng:   eng,
		cfg:   cfg.withDefaults(),
		start: time.Now(),
		conns: map[*conn]struct{}{},
		done:  make(chan struct{}),
	}
	if s.cfg.MaxConcurrent > 0 {
		s.admit = make(chan struct{}, s.cfg.MaxConcurrent)
	}
	return s
}

// Listen binds addr (e.g. "127.0.0.1:4466"; port 0 picks a free port)
// and starts serving in a background goroutine. Use Addr for the bound
// address and Shutdown/Close to stop.
func Listen(eng *shard.Engine, addr string, cfg Config) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := New(eng, cfg)
	s.mu.Lock()
	s.ln = ln // visible to Addr before the accept goroutine runs
	s.mu.Unlock()
	go s.Serve(ln) //nolint:errcheck — the accept-loop error after Close is expected
	return s, nil
}

// Addr returns the listener address ("" before Serve/Listen).
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Engine returns the served engine.
func (s *Server) Engine() *shard.Engine { return s.eng }

// Serve accepts connections on ln until the listener closes. It returns
// the accept error (net.ErrClosed after Shutdown/Close).
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		ln.Close()
		return net.ErrClosed
	}
	s.ln = ln
	s.mu.Unlock()
	defer close(s.done)

	for {
		nc, err := ln.Accept()
		if err != nil {
			return err
		}
		if w := s.cfg.ConnWrapper; w != nil {
			nc = w(nc)
		}
		if n := s.nConns.Add(1); int(n) > s.cfg.MaxConns {
			s.nConns.Add(-1)
			s.refuse(nc, wire.CodeShuttingDown,
				fmt.Sprintf("server at connection limit (%d)", s.cfg.MaxConns))
			continue
		}
		c := &conn{srv: s, nc: nc, fr: wire.NewFrameReader(nc, s.cfg.MaxFrame),
			bw: bufio.NewWriterSize(nc, 16<<10), txns: map[uint64]openTxn{}}
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			s.nConns.Add(-1)
			s.refuse(nc, wire.CodeShuttingDown, "server is shutting down")
			continue
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		go c.serve()
	}
}

// refuse sends a best-effort error frame and closes the raw connection.
func (s *Server) refuse(nc net.Conn, code uint16, msg string) {
	nc.SetWriteDeadline(time.Now().Add(2 * time.Second)) //nolint:errcheck
	wire.WriteFrame(nc, wire.Frame{                      //nolint:errcheck — best effort
		Type:    wire.TypeError,
		Payload: wire.ErrorResp{Code: code, Msg: msg}.Encode(),
	})
	nc.Close()
}

// NumConns reports the live connection count.
func (s *Server) NumConns() int { return int(s.nConns.Load()) }

// Rejected reports how many requests the admission stage fast-rejected
// with CodeOverloaded since the server started.
func (s *Server) Rejected() uint64 { return s.rejected.Load() }

// admitOne acquires one execution slot, returning its release func.
// ok=false is the fast-reject path: the wait queue was full, or no slot
// came free within AdmissionWait.
func (s *Server) admitOne() (release func(), ok bool) {
	if s.admit == nil {
		return nil, true // admission control disabled
	}
	select {
	case s.admit <- struct{}{}:
		return s.releaseOne, true
	default:
	}
	if int(s.admitWaiting.Add(1)) > s.cfg.AdmissionQueue {
		s.admitWaiting.Add(-1)
		s.rejected.Add(1)
		return nil, false
	}
	defer s.admitWaiting.Add(-1)
	if s.cfg.AdmissionWait <= 0 {
		s.rejected.Add(1)
		return nil, false
	}
	t := time.NewTimer(s.cfg.AdmissionWait)
	defer t.Stop()
	select {
	case s.admit <- struct{}{}:
		return s.releaseOne, true
	case <-t.C:
		s.rejected.Add(1)
		return nil, false
	}
}

func (s *Server) releaseOne() { <-s.admit }

const overloadedMsg = "admission queue full; back off and retry"

// admit is admitOne with a release that is never nil.
func (c *conn) admit() (release func(), ok bool) {
	if release, ok = c.srv.admitOne(); release == nil {
		release = func() {}
	}
	return release, ok
}

// Shutdown drains the server: it stops accepting, lets each connection
// serve its open transactions until its client goes quiet or ctx
// expires, then force-closes stragglers and aborts every transaction
// still open. The engine is left open — the caller (who owns it) closes
// it after Shutdown returns, which is what makes "drain, then DB.Close"
// safe to race with a second signal.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	ln := s.ln
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	if ln != nil {
		ln.Close()
		<-s.done // accept loop has exited; no new conns will register
	}
	for _, c := range conns {
		c.beginDrain()
	}

	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		if s.NumConns() == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			for _, c := range conns {
				c.nc.Close()
			}
			// Even on the force path, wait for the handler goroutines to
			// run their deferred transaction aborts: the caller closes
			// the engine right after Shutdown returns, and an abort must
			// not race the heap unmap. Handlers exit promptly once their
			// sockets are closed, so start with short waits and back off
			// if they don't.
			pol := backoff.Policy{Base: time.Millisecond, Max: 20 * time.Millisecond}
			for i := 0; s.NumConns() > 0; i++ {
				time.Sleep(pol.Delay(i))
			}
			return ctx.Err()
		case <-tick.C:
		}
	}
}

// Close force-closes the listener and every connection without
// draining; open transactions are aborted.
func (s *Server) Close() error {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already expired: Shutdown skips straight to force-close
	err := s.Shutdown(ctx)
	if errors.Is(err, context.Canceled) {
		return nil
	}
	return err
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

func (s *Server) dropConn(c *conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	s.nConns.Add(-1)
}

// ---------------------------------------------------------------------------
// Per-connection handling.

// drainGrace is how long a draining connection waits for the client's
// next request before it closes. Requests already buffered arrive
// instantly; the grace only bounds a quiet socket.
const drainGrace = 20 * time.Millisecond

// openTxn is one registry entry: a transaction and the release of the
// admission slot its first request charged for it, so a slot can neither
// outlive nor predate its transaction.
type openTxn struct {
	tx      *shard.Tx
	release func()
}

// conn is one served connection. Everything but draining belongs to the
// connection's goroutine.
type conn struct {
	srv *Server
	nc  net.Conn
	fr  *wire.FrameReader
	// bw buffers replies so a pipelined burst costs one write syscall,
	// not one per reply; serve flushes once no further request is
	// buffered.
	bw *bufio.Writer

	// txns is the connection-scoped transaction registry.
	txns    map[uint64]openTxn
	nextTxn uint64

	// The request deadline's context and the timer that cancels it (see
	// armDeadline); nil timer until a request carries a deadline.
	dctx   context.Context
	cancel context.CancelFunc
	timer  *time.Timer

	draining atomic.Bool
}

// beginDrain switches the connection to drain mode and wakes a blocked
// read so an idle connection notices.
func (c *conn) beginDrain() {
	c.draining.Store(true)
	c.nc.SetReadDeadline(time.Now()) //nolint:errcheck
}

// serve runs the connection: handshake, then read a request, execute
// it, reply, for as long as the client keeps the connection.
func (c *conn) serve() {
	defer func() {
		c.nc.Close()
		if c.timer != nil {
			c.timer.Stop()
			c.cancel()
		}
		// Abort whatever the client left open so row locks are released.
		for id, t := range c.txns {
			if t.tx.Active() {
				t.tx.Abort() //nolint:errcheck — already tearing down
			}
			delete(c.txns, id)
			t.release()
		}
		c.srv.dropConn(c)
	}()

	if err := c.handshake(); err != nil {
		c.srv.logf("server: handshake with %s failed: %v", c.nc.RemoteAddr(), err)
		return
	}
	for {
		f, draining, err := c.next()
		if err != nil {
			if !draining && !isExpectedNetErr(err) {
				c.srv.logf("server: read from %s: %v", c.nc.RemoteAddr(), err)
			}
			c.flush() //nolint:errcheck — replies to requests already executed; the connection is closing
			return
		}
		if draining && !c.namesOpenTxn(f) {
			err = c.replyErr(f.ReqID, wire.CodeShuttingDown, "server is shutting down")
		} else {
			err = c.handle(f)
		}
		if err == nil && !c.fr.Ready() {
			// No further request is buffered: the client is (momentarily)
			// waiting on our replies, so push them out now. While requests
			// are buffered, replies coalesce and a pipelined burst costs
			// one syscall.
			err = c.flush()
		}
		if err != nil {
			c.srv.logf("server: write to %s: %v", c.nc.RemoteAddr(), err)
			return
		}
	}
}

// next reads the next request. Until the drain begins it waits up to
// IdleTimeout for one; after, only drainGrace, so the drain ends once
// the client goes quiet. The drain's wake-up may interrupt a read
// part-way through a frame: the frame reader keeps what has arrived,
// and the read that follows resumes it.
func (c *conn) next() (f wire.Frame, draining bool, err error) {
	for {
		if t := c.srv.cfg.IdleTimeout; t > 0 {
			c.nc.SetReadDeadline(time.Now().Add(t)) //nolint:errcheck
		} else {
			c.nc.SetReadDeadline(time.Time{}) //nolint:errcheck
		}
		// Checked after arming the idle deadline: a drain that begins
		// from here on sets its wake-up after it, so it cannot be lost.
		if draining = c.draining.Load(); draining {
			c.nc.SetReadDeadline(time.Now().Add(drainGrace)) //nolint:errcheck
		}
		f, err = c.fr.Next()
		if err != nil && !draining && c.draining.Load() && errors.Is(err, os.ErrDeadlineExceeded) {
			continue // the drain's wake-up: read on under the grace
		}
		return f, draining, err
	}
}

// namesOpenTxn reports whether request f is addressed to a transaction
// open on this connection — the requests a drain still executes.
func (c *conn) namesOpenTxn(f wire.Frame) bool {
	_, open := c.txns[wire.RequestTxn(f)]
	return open
}

// flush sends the buffered replies.
func (c *conn) flush() error {
	//nvmcheck:ignore deadlinecheck every buffered write went through c.reply, which set the conn's write deadline (or deliberately cleared it when WriteTimeout is disabled)
	return c.bw.Flush()
}

// handshake negotiates the protocol version: the connection speaks
// min(client, server) provided the client's version is at least
// wire.MinVersion; an older client is refused with the supported range.
func (c *conn) handshake() error {
	f, _, err := c.next()
	if err != nil {
		return err
	}
	if f.Type != wire.TypeHello {
		c.replyErr(f.ReqID, wire.CodeBadRequest, "expected hello") //nolint:errcheck
		c.flush()                                                  //nolint:errcheck — conn is being dropped
		return fmt.Errorf("first frame is %s, not hello", f.Type)
	}
	h, err := wire.DecodeHello(f.Payload)
	if err != nil {
		return err
	}
	if h.Version < wire.MinVersion {
		c.replyErr(f.ReqID, wire.CodeBadRequest, fmt.Sprintf( //nolint:errcheck
			"protocol version %d not supported (server speaks %d through %d)",
			h.Version, wire.MinVersion, wire.Version))
		c.flush() //nolint:errcheck — conn is being dropped
		return fmt.Errorf("client version %d unsupported", h.Version)
	}
	if err := c.reply(f.ReqID, wire.TypeHelloOK, wire.HelloOK{
		Version:    min(h.Version, wire.Version),
		Mode:       uint8(c.srv.eng.Mode()),
		MaxPayload: c.srv.cfg.MaxFrame,
	}.Encode()); err != nil {
		return err
	}
	return c.flush()
}

func (c *conn) reply(reqID uint64, t wire.Type, payload []byte) error {
	if len(payload) > int(c.srv.cfg.MaxFrame) {
		payload = wire.ErrorResp{
			Code: wire.CodeTooLarge,
			Msg:  fmt.Sprintf("response exceeds frame limit (%d bytes)", c.srv.cfg.MaxFrame),
		}.Encode()
		t = wire.TypeError
	}
	if w := c.srv.cfg.WriteTimeout; w > 0 {
		c.nc.SetWriteDeadline(time.Now().Add(w)) //nolint:errcheck
	} else {
		// Timeout disabled by the operator: clear any deadline left on
		// the conn so this write does not fail against a stale one.
		c.nc.SetWriteDeadline(time.Time{}) //nolint:errcheck
	}
	// Buffered: serve flushes once no further request is buffered, so the
	// deadline set above governs a flush that is at most one handled
	// request away.
	return wire.WriteFrame(c.bw, wire.Frame{Type: t, ReqID: reqID, Payload: payload})
}

func (c *conn) replyErr(reqID uint64, code uint16, msg string) error {
	return c.reply(reqID, wire.TypeError, wire.ErrorResp{Code: code, Msg: msg}.Encode())
}

// handle dispatches one request frame and writes exactly one response.
// The returned error is a connection-level write failure; request-level
// failures become TypeError frames.
func (c *conn) handle(f wire.Frame) error {
	// Admission control guards the execution stage and is
	// transaction-scoped. Ping stays exempt so health checks measure
	// liveness, not load. A batch that begins a transaction charges a slot
	// the transaction holds until commit or abort (see batch). A request
	// naming a transaction — a batch of its writes, the commit that
	// releases its row locks, a read inside it — rides that slot; a read
	// naming none pays a request-scoped one (readTxnTable decides, once
	// dispatch has decoded the request). Everything else (DDL and other
	// standalone work) is gated here for its own execution.
	//nvmcheck:ignore wirecodecheck the default arm is the point: anything not explicitly exempted — including new request types and response codes arriving as requests — pays admission first and then fails in dispatch
	switch f.Type {
	case wire.TypePing, wire.TypeBatch, wire.TypeGetRow, wire.TypeSelect,
		wire.TypeCount, wire.TypeRange:
	default:
		release, ok := c.admit()
		if !ok {
			return c.replyErr(f.ReqID, wire.CodeOverloaded, overloadedMsg)
		}
		defer release()
	}

	// Per-request deadline: the client stamps its timeout into the frame
	// header; a request that cannot start before its deadline gets a
	// structured CodeDeadline reply instead of a hung connection.
	ctx := context.Background()
	if f.TimeoutMs > 0 {
		ctx = c.armDeadline(time.Duration(f.TimeoutMs) * time.Millisecond)
		defer c.disarmDeadline()
	}

	t, payload, code, msg := c.dispatch(ctx, f)
	if code != 0 {
		return c.replyErr(f.ReqID, code, msg)
	}
	if err := ctx.Err(); err != nil && t != wire.TypeBatchOK {
		// The work finished but past its deadline: the client has given
		// up; report the deadline rather than a result it won't use. A
		// batch's reply stands: it tells which of the batch's writes ran.
		return c.replyErr(f.ReqID, wire.CodeDeadline, "request deadline exceeded")
	}
	return c.reply(f.ReqID, t, payload)
}

// armDeadline returns a context cancelled d from now. The connection
// keeps one such context and the timer that cancels it, and re-arms the
// timer for each request with a deadline: a request builds no context
// and no timer of its own. Only disarmDeadline finding that the timer
// fired makes the next request build them afresh.
func (c *conn) armDeadline(d time.Duration) context.Context {
	if c.timer == nil {
		c.dctx, c.cancel = context.WithCancel(context.Background())
		c.timer = time.AfterFunc(d, c.cancel)
	} else {
		c.timer.Reset(d)
	}
	return c.dctx
}

// disarmDeadline stops the timer armDeadline armed.
func (c *conn) disarmDeadline() {
	if !c.timer.Stop() {
		c.timer = nil // it fired, and c.dctx is cancelled for good
	}
}

// dispatch executes the request. A non-zero code means "reply with this
// error".
func (c *conn) dispatch(ctx context.Context, f wire.Frame) (t wire.Type, payload []byte, code uint16, msg string) {
	if err := ctx.Err(); err != nil {
		return 0, nil, wire.CodeDeadline, "request deadline exceeded"
	}
	switch f.Type {
	case wire.TypePing:
		return wire.TypePong, nil, 0, ""

	case wire.TypeBatch:
		req, err := wire.DecodeBatchReq(f.Payload)
		if err != nil {
			return 0, nil, wire.CodeBadRequest, err.Error()
		}
		resp, code, msg := c.batch(ctx, req)
		if code != 0 {
			return 0, nil, code, msg
		}
		return wire.TypeBatchOK, resp.Encode(), 0, ""

	case wire.TypeGetRow:
		req, err := wire.DecodeRowReq(f.Payload)
		if err != nil {
			return 0, nil, wire.CodeBadRequest, err.Error()
		}
		tx, tbl, release, code, msg := c.readTxnTable(req.Txn, req.Table)
		if code != 0 {
			return 0, nil, code, msg
		}
		defer release()
		if !tx.Sees(tbl, req.Row) {
			return 0, nil, wire.CodeRowNotFound, fmt.Sprintf("row %d not visible", req.Row)
		}
		vals, err := tx.Row(ctx, tbl, req.Row)
		if err != nil {
			return 0, nil, errCode(err), err.Error()
		}
		return wire.TypeRow, wire.RowResp{Vals: vals}.Encode(), 0, ""

	case wire.TypeSelect, wire.TypeCount:
		req, err := wire.DecodeSelectReq(f.Payload)
		if err != nil {
			return 0, nil, wire.CodeBadRequest, err.Error()
		}
		tx, tbl, release, code, msg := c.readTxnTable(req.Txn, req.Table)
		if code != 0 {
			return 0, nil, code, msg
		}
		defer release()
		preds := make([]exec.Pred, len(req.Preds))
		for i, p := range req.Preds {
			ci := tbl.Schema.ColIndex(p.Col)
			if ci < 0 {
				return 0, nil, wire.CodeBadColumn, fmt.Sprintf("no column %q in table %q", p.Col, req.Table)
			}
			preds[i] = exec.Pred{Col: ci, Op: exec.Op(p.Op), Val: p.Val}
		}
		if f.Type == wire.TypeCount {
			n, err := tx.Count(ctx, tbl, preds...)
			if err != nil {
				return 0, nil, errCode(err), err.Error()
			}
			return wire.TypeCountOK, wire.CountResp{N: uint64(n)}.Encode(), 0, ""
		}
		rows, err := tx.Select(ctx, tbl, preds...)
		if err != nil {
			return 0, nil, errCode(err), err.Error()
		}
		return wire.TypeRowIDs, wire.RowIDsResp{Rows: rows}.Encode(), 0, ""

	case wire.TypeRange:
		req, err := wire.DecodeRangeReq(f.Payload)
		if err != nil {
			return 0, nil, wire.CodeBadRequest, err.Error()
		}
		tx, tbl, release, code, msg := c.readTxnTable(req.Txn, req.Table)
		if code != 0 {
			return 0, nil, code, msg
		}
		defer release()
		ci := tbl.Schema.ColIndex(req.Col)
		if ci < 0 {
			return 0, nil, wire.CodeBadColumn, fmt.Sprintf("no column %q in table %q", req.Col, req.Table)
		}
		rows, err := tx.SelectRange(ctx, tbl, ci, req.Lo, req.Hi)
		if err != nil {
			return 0, nil, errCode(err), err.Error()
		}
		return wire.TypeRowIDs, wire.RowIDsResp{Rows: rows}.Encode(), 0, ""

	case wire.TypeCreateTable:
		req, err := wire.DecodeCreateTableReq(f.Payload)
		if err != nil {
			return 0, nil, wire.CodeBadRequest, err.Error()
		}
		defs := make([]storage.ColumnDef, len(req.Cols))
		for i, cd := range req.Cols {
			defs[i] = storage.ColumnDef{Name: cd.Name, Type: storage.ColType(cd.Type)}
		}
		sch, err := storage.NewSchema(defs...)
		if err != nil {
			return 0, nil, wire.CodeBadRequest, err.Error()
		}
		if _, err := c.srv.eng.CreateTable(req.Name, sch, req.Indexed...); err != nil {
			return 0, nil, errCode(err), err.Error()
		}
		return wire.TypeOK, nil, 0, ""

	case wire.TypeTables:
		var resp wire.TablesResp
		for _, t := range c.srv.eng.Tables() {
			resp.Tables = append(resp.Tables, wire.TableStat{
				Name: t.Name, ID: t.ID(),
				MainRows: t.MainRows(), DeltaRows: t.DeltaRows(), Rows: t.Rows(),
			})
		}
		return wire.TypeTablesOK, resp.Encode(), 0, ""

	case wire.TypeStats:
		rs := c.srv.eng.RecoveryStats()
		sum := rs.Sum()
		resp := wire.StatsResp{
			Mode:           uint8(c.srv.eng.Mode()),
			Uptime:         time.Since(c.srv.start),
			Recovery:       rs.Total,
			TablesOpened:   uint32(sum.TablesOpened),
			CheckpointLoad: sum.CheckpointLoad,
			LogReplay:      sum.LogReplay,
			IndexRebuild:   sum.IndexRebuild,
			ReplayRecords:  uint32(sum.ReplayRecords),
			RolledBack:     uint32(sum.NVM.RolledBack),
			EntriesUndone:  uint32(sum.NVM.EntriesUndone),
		}
		if c.srv.eng.Mode() == txn.ModeNVM {
			hs := c.srv.eng.NVMStats()
			resp.NVMFlushes, resp.NVMFences, resp.NVMBytesUsed = hs.Flushes, hs.Fences, hs.BytesUsed
		}
		return wire.TypeStatsOK, resp.Encode(), 0, ""

	case wire.TypeHello, wire.TypeHelloOK, wire.TypePong, wire.TypeOK,
		wire.TypeInsert, wire.TypeRow, wire.TypeRowIDs, wire.TypeCountOK,
		wire.TypeTablesOK, wire.TypeStatsOK, wire.TypeError, wire.TypeBatchOK:
		// Response-only frames, a second Hello after the handshake, and
		// Insert, which only the benchmark's codec timing still encodes,
		// are never valid requests. Listing them explicitly keeps this
		// switch exhaustive over wire.Type, so adding an opcode forces a
		// decision here instead of silently hitting the generic arm.
		return 0, nil, wire.CodeBadRequest, fmt.Sprintf("frame type %s is not a request", f.Type)

	default:
		// A number no frame type has, such as one version 3 retired.
		return 0, nil, wire.CodeBadRequest, fmt.Sprintf("unexpected frame type %s", f.Type)
	}
}

// batch runs a batch, the one request that begins, writes to, commits or
// aborts a transaction. A batch that names no transaction begins one —
// read-only at req.AtCID if req.ReadOnly — and charges the admission
// slot the transaction holds until commit or abort, so that under
// overload whole transactions are shed at their first frame instead of
// starving mid-flight. The ops run in order under that one slot until
// one fails. Then a batch that asks for the commit commits, or aborts if
// an op failed, and one that asks for the abort aborts; one that asks
// for neither leaves the transaction open either way, since the reply
// names it. A non-zero code means the batch did not start: no op ran and
// no transaction was begun or ended.
func (c *conn) batch(ctx context.Context, req wire.BatchReq) (resp wire.BatchResp, code uint16, msg string) {
	began := req.Txn == 0
	var open openTxn
	if began {
		var ok bool
		if open.release, ok = c.admit(); !ok {
			return resp, wire.CodeOverloaded, overloadedMsg
		}
		if req.ReadOnly {
			open.tx = c.srv.eng.BeginAt(req.AtCID)
		} else {
			open.tx = c.srv.eng.Begin()
		}
		c.nextTxn++
		req.Txn = c.nextTxn
		c.txns[req.Txn] = open
	} else {
		var ok bool
		if open, ok = c.txns[req.Txn]; !ok {
			return resp, wire.CodeNoSuchTxn, fmt.Sprintf("no transaction %d on this connection", req.Txn)
		}
	}

	resp = wire.BatchResp{Txn: req.Txn, SnapshotCID: open.tx.SnapshotCID(), Rows: make([]uint64, 0, len(req.Ops))}
	for _, op := range req.Ops {
		row, err := c.write(ctx, open.tx, op)
		if err != nil {
			resp.Code, resp.Msg = errCode(err), err.Error()
			break
		}
		resp.Rows = append(resp.Rows, row)
	}
	switch {
	case req.Commit || req.Abort:
		// The error of an abort after a failed op is dropped: the reply
		// reports the op.
		if err := c.end(req.Txn, open, req.Commit && resp.Code == 0); err != nil && resp.Code == 0 {
			resp.Code, resp.Msg = errCode(err), err.Error()
		}
	case began && ctx.Err() != nil:
		// Finished past its deadline, the batch is answered with a
		// deadline error, which names no transaction: one the client
		// cannot name must not outlive the request.
		c.end(req.Txn, open, false) //nolint:errcheck — the reply is the deadline
		return wire.BatchResp{}, wire.CodeDeadline, "request deadline exceeded"
	}
	return resp, 0, ""
}

// end commits or aborts transaction id, drops it from the registry and
// releases its admission slot, which covers the commit work itself.
func (c *conn) end(id uint64, open openTxn, commit bool) error {
	delete(c.txns, id)
	defer open.release()
	if commit {
		return open.tx.Commit()
	}
	return open.tx.Abort()
}

// write runs one op of a batch and returns the row ID an insert or
// update wrote.
func (c *conn) write(ctx context.Context, tx *shard.Tx, op wire.WriteOp) (uint64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	tbl, err := c.srv.eng.Table(op.Table)
	if err != nil {
		return 0, err
	}
	switch op.Kind {
	case wire.WriteInsert:
		return tx.Insert(tbl, op.Vals)
	case wire.WriteUpdate:
		return tx.Update(tbl, op.Row, op.Vals)
	}
	return 0, tx.Delete(tbl, op.Row) // the decoder admits no other kind
}

// readTxnTable resolves the transaction for a read and applies the
// admission rule to it: a read naming a transaction rides the slot its
// begin charged; Txn 0 gets a fresh read-only snapshot at the current
// horizon — the auto-commit read path that makes the request idempotent
// for client-side retries — and pays a request-scoped slot. The caller
// runs release once the read is done.
func (c *conn) readTxnTable(txid uint64, table string) (tx *shard.Tx, tbl *shard.Table, release func(), code uint16, msg string) {
	release = func() {}
	if txid != 0 {
		t, ok := c.txns[txid]
		if !ok {
			return nil, nil, nil, wire.CodeNoSuchTxn, fmt.Sprintf("no transaction %d on this connection", txid)
		}
		tx = t.tx
	} else {
		var ok bool
		if release, ok = c.admit(); !ok {
			return nil, nil, nil, wire.CodeOverloaded, overloadedMsg
		}
		tx = c.srv.eng.BeginAt(c.srv.eng.LastCID())
	}
	tbl, err := c.srv.eng.Table(table)
	if err != nil {
		release()
		return nil, nil, nil, wire.CodeNoSuchTable, err.Error()
	}
	return tx, tbl, release, 0, ""
}

// errCode maps engine errors to protocol error codes.
func errCode(err error) uint16 {
	switch {
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return wire.CodeDeadline
	case errors.Is(err, exec.ErrBadColumn):
		return wire.CodeBadColumn
	case errors.Is(err, exec.ErrBadValue):
		return wire.CodeBadRequest
	case errors.Is(err, txn.ErrConflict):
		return wire.CodeConflict
	case errors.Is(err, txn.ErrNotActive):
		return wire.CodeNotActive
	case errors.Is(err, txn.ErrRowNotFound), errors.Is(err, shard.ErrNoSuchRow):
		return wire.CodeRowNotFound
	case errors.Is(err, txn.ErrEpochChanged):
		return wire.CodeEpochChanged
	case errors.Is(err, txn.ErrReadOnly):
		return wire.CodeReadOnly
	case errors.Is(err, core.ErrNoSuchTable):
		return wire.CodeNoSuchTable
	case errors.Is(err, core.ErrTableExists):
		return wire.CodeTableExists
	case errors.Is(err, core.ErrClosed), errors.Is(err, txn.ErrClosed):
		return wire.CodeShuttingDown
	case errors.Is(err, core.ErrBadTableName):
		return wire.CodeBadRequest
	case errors.Is(err, nvm.ErrOutOfMemory), errors.Is(err, shard.ErrCoordFull):
		// Graceful degradation: a full persistent heap is an operational
		// condition, not a bug. Writes fail with a structured code while
		// reads keep serving, so clients can branch into read-only mode.
		return wire.CodeOutOfSpace
	default:
		return wire.CodeInternal
	}
}

func isExpectedNetErr(err error) bool {
	if errors.Is(err, net.ErrClosed) || errors.Is(err, io.EOF) ||
		errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE) {
		return true // routine client hangup or our own close
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}
