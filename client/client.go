// Package client is the Go client for a hyrisenv database served over
// TCP by hyrise-nvd (or hyrisenv.DB.Serve). It speaks the internal/wire
// protocol and provides:
//
//   - Dial: a pooled client. Connections are created lazily up to the
//     pool size, checked before an idle one is reused — a non-blocking
//     look at the socket for a peer that has closed it, plus a ping
//     once it has been idle for a while — and re-dialed transparently
//     when the server restarts.
//   - Auto-commit reads (Select, Count, ScanAll, Row, SelectRange): each
//     runs in a fresh read-only snapshot on the server; because they are
//     idempotent the client retries them once on a fresh connection
//     after a network failure — which is what makes a server restart
//     nearly invisible to read traffic.
//   - Begin/BeginAt: a typed Tx mirroring hyrisenv.Tx, pinned to one
//     pooled connection for its lifetime. Every frame that begins,
//     writes to, commits or aborts a transaction is one wire batch. A
//     read-write Tx sends as few as it can: Begin sends nothing, a
//     Delete waits for the next frame, and every write is one batch, so
//     the errors of a Begin or a Delete surface at the next call that
//     sends (see Tx). A Tx's reads share one body per verb with the
//     auto-commit reads, but run in its snapshot and are never retried.
//
// Every request-path method has a context-accepting variant; the
// context deadline is propagated to the server in the frame header, so
// an expired request comes back as a structured error
// (context.DeadlineExceeded), not a hung connection. The methods without
// a context apply Options.RequestTimeout the same way, as a plain
// deadline: they build no context and arm no timer unless they wait
// behind another caller's read.
//
// The client runs no goroutine of its own. Callers sharing a connection
// read their replies themselves: one of them at a time holds the reader
// role, reading under its own context's deadline and handing the other
// callers' replies to them, until its own reply arrives (see wconn).
package client

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"hyrisenv"
	"hyrisenv/internal/backoff"
	"hyrisenv/internal/wire"
)

// Errors mapped from server error frames. Request errors leave the
// connection usable; only network failures discard it.
var (
	ErrConflict     = hyrisenvError("write-write conflict")
	ErrNotActive    = hyrisenvError("transaction is not active")
	ErrRowNotFound  = hyrisenvError("row not visible or already dead")
	ErrEpochChanged = hyrisenvError("table merged since this transaction read it")
	ErrReadOnly     = hyrisenvError("transaction is read-only")
	ErrNoSuchTable  = hyrisenvError("no such table")
	ErrTableExists  = hyrisenvError("table already exists")
	ErrNoSuchTxn    = hyrisenvError("no such transaction on this connection")
	ErrBadColumn    = hyrisenvError("unknown column")
	ErrShuttingDown = hyrisenvError("server is shutting down")
	ErrOverloaded   = hyrisenvError("server is overloaded")
	ErrOutOfSpace   = hyrisenvError("server is out of persistent space")
	ErrClosed       = hyrisenvError("client is closed")
	ErrTxDone       = hyrisenvError("transaction already finished")
)

func hyrisenvError(msg string) error { return errors.New("client: " + msg) }

// ServerError carries an error frame the client has no sentinel for.
type ServerError struct {
	Code uint16
	Msg  string
}

func (e *ServerError) Error() string {
	return fmt.Sprintf("client: server error %d: %s", e.Code, e.Msg)
}

func errFromResp(e wire.ErrorResp) error {
	var sentinel error
	switch e.Code {
	case wire.CodeConflict:
		sentinel = ErrConflict
	case wire.CodeNotActive:
		sentinel = ErrNotActive
	case wire.CodeRowNotFound:
		sentinel = ErrRowNotFound
	case wire.CodeEpochChanged:
		sentinel = ErrEpochChanged
	case wire.CodeReadOnly:
		sentinel = ErrReadOnly
	case wire.CodeNoSuchTable:
		sentinel = ErrNoSuchTable
	case wire.CodeTableExists:
		sentinel = ErrTableExists
	case wire.CodeNoSuchTxn:
		sentinel = ErrNoSuchTxn
	case wire.CodeBadColumn:
		sentinel = ErrBadColumn
	case wire.CodeShuttingDown:
		sentinel = ErrShuttingDown
	case wire.CodeOverloaded:
		// Deliberately not retried: the server sheds load by answering
		// fast, and an immediate retry would defeat that. Callers decide
		// when to back off.
		sentinel = ErrOverloaded
	case wire.CodeOutOfSpace:
		// The server's persistent heap is exhausted: writes fail with
		// this sentinel while reads keep working — the degraded
		// read-only mode callers branch on.
		sentinel = ErrOutOfSpace
	case wire.CodeDeadline:
		// Deadline errors surface as the standard context error so
		// callers can use one errors.Is check for local and remote
		// expiry.
		return fmt.Errorf("%w (server: %s)", context.DeadlineExceeded, e.Msg)
	case wire.CodeInternal, wire.CodeBadRequest, wire.CodeTooLarge:
		// No sentinel: these indicate a bug (ours or the server's), not
		// a condition callers branch on. Listed explicitly so the switch
		// stays exhaustive and a new code cannot silently land here.
		return &ServerError{Code: e.Code, Msg: e.Msg}
	default:
		// Unknown code from a newer server.
		return &ServerError{Code: e.Code, Msg: e.Msg}
	}
	return fmt.Errorf("%w: %s", sentinel, e.Msg)
}

// Options tunes Dial. The zero value picks sensible defaults.
type Options struct {
	// PoolSize caps pooled connections (default 4). Connections are
	// shared: many requests multiplex over one connection as tagged
	// in-flight frames, so the pool only needs to grow for throughput,
	// not for concurrency.
	PoolSize int
	// DialTimeout bounds establishing one TCP connection + handshake
	// (default 5 s).
	DialTimeout time.Duration
	// RequestTimeout is the default per-request deadline applied by the
	// non-context methods (default 30 s; negative disables).
	RequestTimeout time.Duration
	// HealthCheckAfter pings a pooled connection that has been idle
	// longer than this before reuse (default 30 s; negative disables).
	HealthCheckAfter time.Duration
	// MaxFrame bounds response payloads (default wire.DefaultMaxPayload).
	MaxFrame uint32
	// ReadRetries is how many times an idempotent read is re-sent on a
	// fresh connection after a network failure (default 1; negative
	// disables retries). Raising it hardens read traffic against
	// sustained connection faults — writes are never retried regardless.
	ReadRetries int
	// ConnWrapper, when non-nil, wraps every dialed connection before
	// the handshake — the hook the fault-injection plane
	// (internal/fault) uses to inject transport faults on the client
	// side. The wrapper must preserve net.Conn deadline semantics.
	ConnWrapper func(net.Conn) net.Conn
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.PoolSize <= 0 {
		out.PoolSize = 4
	}
	if out.DialTimeout == 0 {
		out.DialTimeout = 5 * time.Second
	}
	if out.RequestTimeout == 0 {
		out.RequestTimeout = 30 * time.Second
	}
	if out.HealthCheckAfter == 0 {
		out.HealthCheckAfter = 30 * time.Second
	}
	if out.MaxFrame == 0 {
		out.MaxFrame = wire.DefaultMaxPayload
	}
	if out.ReadRetries == 0 {
		out.ReadRetries = 1
	}
	if out.ReadRetries < 0 {
		out.ReadRetries = 0
	}
	return out
}

// Client is a pool of multiplexed connections to one server. It is
// safe for concurrent use.
type Client struct {
	addr string
	opts Options
	mode hyrisenv.Mode

	mu      sync.Mutex
	conns   []*wconn
	dialing int // dials in flight, counted against PoolSize
	closed  bool
}

// Dial connects to a hyrise-nvd server and verifies the protocol
// handshake on one connection (which is then pooled).
func Dial(addr string, opts Options) (*Client, error) {
	c := &Client{
		addr: addr,
		opts: opts.withDefaults(),
	}
	wc, err := c.dial(call{ctx: context.Background(), dl: time.Now().Add(c.opts.DialTimeout)})
	if err != nil {
		return nil, err
	}
	c.mode = hyrisenv.Mode(wc.serverMode)
	c.mu.Lock()
	c.conns = append(c.conns, wc)
	c.mu.Unlock()
	return c, nil
}

// Mode reports the durability mode of the serving engine, learned in
// the handshake.
func (c *Client) Mode() hyrisenv.Mode { return c.mode }

// Addr returns the server address this client dials.
func (c *Client) Addr() string { return c.addr }

// Close closes all pooled connections. In-flight requests fail.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	conns := c.conns
	c.conns = nil
	c.mu.Unlock()
	for _, wc := range conns {
		wc.close()
	}
	return nil
}

// ---------------------------------------------------------------------------
// Pool internals.

// wconn is one established, handshaken connection, multiplexing many
// in-flight requests. Writers serialize on wmu so frames (and ID
// assignment) stay ordered on the wire. Replies are read by the callers
// themselves, leader/follower style: a caller that has sent its request
// while no one is reading takes the reader role; it reads frames under
// its own context's deadline, hands each other caller's reply to that
// caller, and on its own reply passes the role to one of the callers
// still waiting. A reader whose context expires mid-frame leaves the
// partial frame in fr for the next reader to resume, so the stream never
// desynchronizes.
type wconn struct {
	nc         net.Conn
	fr         *wire.FrameReader // used only by the caller holding the reader role
	peer       *peerProbe
	serverMode uint8

	wmu   sync.Mutex // serializes reqID assignment and frame writes
	bw    *bufio.Writer
	reqID uint64

	mu       sync.Mutex
	pending  map[uint64]chan reply // reqID → waiting caller (buffered, cap 1: its one message)
	reading  bool                  // a caller holds the reader role, or it is on its way to one
	pins     int                   // live Txs referencing this conn
	broken   bool
	readErr  error // why the conn broke, for late arrivals
	lastUsed time.Time
}

// reply is the one message a waiting caller receives: its reply frame,
// or the reader role.
type reply struct {
	f    wire.Frame
	lead bool
}

// call is what bounds one request: the caller's context and the deadline
// it carries or, for the methods without a context, a background
// context and the plain deadline Options.RequestTimeout sets. A zero dl
// is no deadline.
type call struct {
	ctx context.Context
	dl  time.Time
}

// ctxCall bounds a request by ctx.
func ctxCall(ctx context.Context) call {
	dl, _ := ctx.Deadline()
	return call{ctx: ctx, dl: dl}
}

// plain bounds a request by Options.RequestTimeout from now.
func (c *Client) plain() call {
	cl := call{ctx: context.Background()}
	if c.opts.RequestTimeout > 0 {
		cl.dl = time.Now().Add(c.opts.RequestTimeout)
	}
	return cl
}

// err reports why the request may no longer run: its context's error,
// or context.DeadlineExceeded once its deadline has passed.
func (cl call) err() error {
	if err := cl.ctx.Err(); err != nil {
		return err
	}
	if !cl.dl.IsZero() && !time.Now().Before(cl.dl) {
		return context.DeadlineExceeded
	}
	return nil
}

func (w *wconn) close() { w.fail(net.ErrClosed) }

// fail marks the connection broken exactly once, closes the socket, and
// wakes every waiting caller with the failure. A caller holding the
// reader role finds out from its read.
func (w *wconn) fail(err error) {
	w.mu.Lock()
	if w.broken {
		w.mu.Unlock()
		return
	}
	w.broken = true
	w.readErr = err
	pend := w.pending
	w.pending = nil
	w.mu.Unlock()
	w.nc.Close()
	for _, ch := range pend {
		close(ch)
	}
}

func (w *wconn) isBroken() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.broken
}

// brokenErr is the error a caller woken by fail reports.
func (w *wconn) brokenErr() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.readErr == nil {
		return net.ErrClosed
	}
	return w.readErr
}

// inflight reports how many requests are awaiting responses.
func (w *wconn) inflight() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.inflightLocked()
}

func (w *wconn) inflightLocked() int {
	if w.reading {
		return len(w.pending) + 1
	}
	return len(w.pending)
}

func (w *wconn) idleFor() time.Duration {
	w.mu.Lock()
	defer w.mu.Unlock()
	return time.Since(w.lastUsed)
}

func (w *wconn) pin() {
	w.mu.Lock()
	w.pins++
	w.mu.Unlock()
}

func (w *wconn) unpin() {
	w.mu.Lock()
	w.pins--
	w.mu.Unlock()
}

// idleUnpinned reports whether nothing references the conn right now —
// no in-flight request and no live Tx.
func (w *wconn) idleUnpinned() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.inflightLocked() == 0 && w.pins == 0
}

// roundTrip sends one request and waits for its response, applying the
// call's deadline both remotely (frame header timeout) and locally
// (abandoning the wait; the late response is discarded when it
// arrives). Other requests proceed on the same connection while this
// one waits.
func (w *wconn) roundTrip(cl call, t wire.Type, payload []byte) (wire.Frame, error) {
	f, err := cl.frame(t, payload)
	if err != nil {
		return wire.Frame{}, err
	}
	return w.send(cl, f)
}

// frame returns the request frame of type t, its header timeout the time
// the call has left, or the error that stops the call before anything is
// sent: its context's, or context.DeadlineExceeded.
func (cl call) frame(t wire.Type, payload []byte) (wire.Frame, error) {
	if err := cl.ctx.Err(); err != nil {
		return wire.Frame{}, err
	}
	f := wire.Frame{Type: t, Payload: payload}
	if !cl.dl.IsZero() {
		remain := time.Until(cl.dl)
		if remain <= 0 {
			return wire.Frame{}, context.DeadlineExceeded
		}
		if ms := remain.Milliseconds(); ms > 0 {
			f.TimeoutMs = uint32(min(ms, int64(^uint32(0))))
		} else {
			f.TimeoutMs = 1
		}
	}
	return f, nil
}

// send is roundTrip for a frame that cl.frame made.
func (w *wconn) send(cl call, f wire.Frame) (wire.Frame, error) {
	w.wmu.Lock()
	w.mu.Lock()
	if w.broken {
		err := w.readErr
		w.mu.Unlock()
		w.wmu.Unlock()
		if err == nil {
			err = net.ErrClosed
		}
		return wire.Frame{}, err
	}
	w.reqID++
	f.ReqID = w.reqID
	// With no one reading, this caller takes the reader role now and
	// needs no channel: no one else will read its reply.
	var ch chan reply
	if !w.reading {
		w.reading = true
	} else {
		ch = make(chan reply, 1)
		w.pending[f.ReqID] = ch
	}
	w.mu.Unlock()
	w.nc.SetWriteDeadline(cl.dl) //nolint:errcheck — a zero dl clears it
	//nvmcheck:ignore lockcheck wmu serializes frame writes on purpose; the write deadline set from the call above bounds the hold, and a deadline-less caller accepts sharing the connection's fate on a stalled peer
	err := wire.WriteFrame(w.bw, f)
	if err == nil {
		err = w.bw.Flush()
	}
	w.wmu.Unlock()
	if err != nil {
		w.fail(err)
		return wire.Frame{}, err
	}
	if ch == nil {
		return w.lead(cl, f.ReqID)
	}
	return w.await(cl, f.ReqID, ch)
}

// await waits for the reply to request id, or for the reader role. A
// deadline the context does not enforce itself needs a timer, armed only
// if the caller actually has to wait.
func (w *wconn) await(cl call, id uint64, ch chan reply) (wire.Frame, error) {
	var r reply
	var ok bool
	select {
	case r, ok = <-ch:
	default:
		var expired <-chan time.Time
		if ctxDL, has := cl.ctx.Deadline(); !cl.dl.IsZero() && (!has || cl.dl.Before(ctxDL)) {
			t := time.NewTimer(time.Until(cl.dl))
			defer t.Stop()
			expired = t.C
		}
		select {
		case r, ok = <-ch:
		case <-cl.ctx.Done():
			return w.withdraw(id, ch, cl.ctx.Err())
		case <-expired:
			return w.withdraw(id, ch, context.DeadlineExceeded)
		}
	}
	if !ok {
		return wire.Frame{}, w.brokenErr()
	}
	if r.lead {
		return w.lead(cl, id)
	}
	return r.f, nil
}

// withdraw gives up waiting for the reply to request id with err, unless
// the reply is already on its way.
func (w *wconn) withdraw(id uint64, ch chan reply, err error) (wire.Frame, error) {
	w.mu.Lock()
	_, waiting := w.pending[id]
	delete(w.pending, id)
	w.mu.Unlock()
	if !waiting {
		// Too late to withdraw: the reply or the reader role is already
		// on its way (or the connection broke and closed ch).
		if r, ok := <-ch; ok {
			if !r.lead {
				return r.f, nil
			}
			w.release()
		}
	}
	return wire.Frame{}, err
}

// lead reads frames as the connection's reader until the reply to
// request id arrives, handing every other reply to its waiting caller,
// and then gives the role up. It reads under the call's deadline, and a
// cancellation of its context wakes the read; either way the partial
// frame, if any, stays in fr for the next reader.
func (w *wconn) lead(cl call, id uint64) (wire.Frame, error) {
	// Arming the cancellation wake-up costs allocations, and most replies
	// arrive well within wakeAfter; until then, a read deadline at armAt
	// stands in for it. A context that cannot be cancelled needs neither.
	armed := cl.ctx.Done() == nil
	var armAt time.Time
	if !armed {
		armAt = time.Now().Add(wakeAfter)
	}
	var stop func() bool
	defer func() {
		if stop != nil {
			stop()
		}
	}()
	for {
		rdl := cl.dl // a zero dl clears the deadline
		if !armed && (rdl.IsZero() || armAt.Before(rdl)) {
			rdl = armAt
		}
		w.nc.SetReadDeadline(rdl) //nolint:errcheck
		f, err := w.fr.Next()
		if errors.Is(err, os.ErrDeadlineExceeded) {
			if cerr := cl.err(); cerr != nil {
				w.release()
				return wire.Frame{}, cerr
			}
			if !armed && !time.Now().Before(armAt) {
				armed = true
				stop = context.AfterFunc(cl.ctx, w.wake)
			}
			continue // armAt, or a wake-up meant for an earlier reader
		}
		if err != nil {
			w.fail(err)
			return wire.Frame{}, err
		}
		if f.ReqID == id {
			w.release()
			return f, nil
		}
		w.mu.Lock()
		ch := w.pending[f.ReqID] // nil: its caller gave up; drop the frame
		delete(w.pending, f.ReqID)
		w.lastUsed = time.Now()
		w.mu.Unlock()
		if ch != nil {
			ch <- reply{f: f}
		}
	}
}

// wakeAfter is how long a reader waits before it arms a wake-up on its
// context's cancellation, and so the longest a cancellation can go
// unnoticed.
const wakeAfter = 5 * time.Millisecond

// wake interrupts the reader's blocked read.
func (w *wconn) wake() { w.nc.SetReadDeadline(time.Now()) } //nolint:errcheck

// release gives up the reader role: to one of the waiting callers, if
// any.
func (w *wconn) release() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.lastUsed = time.Now()
	w.reading = false
	for id, ch := range w.pending {
		delete(w.pending, id)
		w.reading = true
		ch <- reply{lead: true}
		return
	}
}

// dial establishes and handshakes one connection (no pool accounting).
func (c *Client) dial(cl call) (*wconn, error) {
	d := net.Dialer{Deadline: cl.dl}
	raw, err := d.DialContext(cl.ctx, "tcp", c.addr)
	if err != nil {
		return nil, fmt.Errorf("client: dial %s: %w", c.addr, err)
	}
	nc := raw
	if w := c.opts.ConnWrapper; w != nil {
		nc = w(raw)
	}
	wc := &wconn{
		nc:       nc,
		fr:       wire.NewFrameReader(nc, c.opts.MaxFrame),
		peer:     newPeerProbe(raw),
		bw:       bufio.NewWriter(nc),
		pending:  make(map[uint64]chan reply),
		lastUsed: time.Now(),
	}
	// Handshake deadline: without one, a dial to a black-holed server
	// would hang in the Hello exchange forever. The call's deadline can
	// only tighten it. Cleared once the connection is established.
	hsDL := time.Now().Add(10 * time.Second)
	if !cl.dl.IsZero() && cl.dl.Before(hsDL) {
		hsDL = cl.dl
	}
	nc.SetDeadline(hsDL) //nolint:errcheck
	wc.reqID = 1
	hf := wire.Frame{Type: wire.TypeHello, ReqID: wc.reqID, Payload: wire.Hello{Version: wire.Version}.Encode()}
	if err := wire.WriteFrame(wc.bw, hf); err == nil {
		err = wc.bw.Flush()
	}
	if err != nil {
		nc.Close()
		return nil, err
	}
	f, err := wc.fr.Next()
	if err != nil {
		nc.Close()
		return nil, err
	}
	if f.Type != wire.TypeHelloOK {
		nc.Close()
		if f.Type == wire.TypeError {
			if e, derr := wire.DecodeErrorResp(f.Payload); derr == nil {
				return nil, fmt.Errorf("client: handshake rejected: %s", e.Msg)
			}
		}
		return nil, fmt.Errorf("client: unexpected handshake reply %s", f.Type)
	}
	ok, err := wire.DecodeHelloOK(f.Payload)
	if err != nil {
		nc.Close()
		return nil, err
	}
	// The server negotiates down to the highest version both sides
	// speak; anything in [MinVersion, Version] is fine.
	if ok.Version < wire.MinVersion || ok.Version > wire.Version {
		nc.Close()
		return nil, fmt.Errorf("client: server negotiated unsupported protocol %d", ok.Version)
	}
	wc.serverMode = ok.Mode
	nc.SetDeadline(time.Time{}) //nolint:errcheck
	return wc, nil
}

// conn picks a connection for one request: the least-loaded live
// connection, or a fresh dial when every existing connection is busy
// and the pool has room. Connections are shared — callers do not hold
// them exclusively and there is nothing to release.
func (c *Client) conn(cl call) (*wconn, error) {
	for {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return nil, ErrClosed
		}
		live := c.conns[:0]
		for _, wc := range c.conns {
			if !wc.isBroken() {
				live = append(live, wc)
			}
		}
		c.conns = live
		var best *wconn
		bestLoad := 0
		for _, wc := range c.conns {
			if n := wc.inflight(); best == nil || n < bestLoad {
				best, bestLoad = wc, n
			}
		}
		canDial := len(c.conns)+c.dialing < c.opts.PoolSize
		if best != nil && (bestLoad == 0 || !canDial) {
			c.mu.Unlock()
			if best.inflight() == 0 {
				// Nothing in flight, so no reader would notice a server that
				// went away while the connection sat idle. Look before
				// reuse: a write or a Begin sent into a dead connection is
				// not retried.
				if best.peer.gone() {
					best.close() // e.g. the server restarted; re-pick
					continue
				}
				if h := c.opts.HealthCheckAfter; h > 0 && best.idleFor() > h {
					// Bound the health check tightly: a dead server must
					// not eat the whole request deadline before we re-pick.
					ping := call{ctx: cl.ctx, dl: time.Now().Add(2 * time.Second)}
					if !cl.dl.IsZero() && cl.dl.Before(ping.dl) {
						ping.dl = cl.dl
					}
					_, err := best.roundTrip(ping, wire.TypePing, nil)
					if err != nil {
						best.close() // stale conn; re-pick
						continue
					}
				}
			}
			return best, nil
		}
		c.dialing++
		c.mu.Unlock()
		wc, err := c.dial(cl)
		c.mu.Lock()
		c.dialing--
		if err != nil {
			c.mu.Unlock()
			if best != nil {
				return best, nil // scale-out failed; share the busy conn
			}
			return nil, err
		}
		if c.closed {
			c.mu.Unlock()
			wc.close()
			return nil, ErrClosed
		}
		c.conns = append(c.conns, wc)
		c.mu.Unlock()
		return wc, nil
	}
}

// do runs one request on a pooled connection. Idempotent requests
// (retriable=true) are retried up to Options.ReadRetries times on a
// fresh connection after a network error — the reconnect path that
// rides out a server restart (and, with more retries configured,
// sustained injected connection faults). Writes are never retried:
// after a network failure the client cannot know whether the server
// applied them, so the definite network error surfaces to the caller
// instead of a possible double-apply.
func (c *Client) do(cl call, t wire.Type, payload []byte, retriable bool) (wire.Frame, error) {
	var lastErr error
	attempts := 1
	if retriable {
		attempts = 1 + c.opts.ReadRetries
	}
	for i := 0; i < attempts; i++ {
		wc, err := c.conn(cl)
		if err != nil {
			return wire.Frame{}, err
		}
		f, err := wc.roundTrip(cl, t, payload)
		if err == nil {
			if f.Type == wire.TypeError {
				e, derr := wire.DecodeErrorResp(f.Payload)
				if derr != nil {
					return wire.Frame{}, derr
				}
				return wire.Frame{}, errFromResp(e)
			}
			return f, nil
		}
		lastErr = err
		if cl.err() != nil {
			return wire.Frame{}, err
		}
		// A network failure usually means the server went away; other
		// pooled connections are probably equally dead but may not have
		// noticed yet, so proactively drop the unreferenced ones and let
		// the retry dial fresh — after a jittered backoff, so a fleet of
		// clients doesn't hammer a restarting server in lockstep.
		c.purgeStale()
		if i+1 < attempts {
			if serr := backoff.Sleep(cl.ctx, reconnectBackoff, i); serr != nil {
				return wire.Frame{}, lastErr
			}
		}
	}
	return wire.Frame{}, lastErr
}

// reconnectBackoff paces retries after network failures: capped
// exponential with jitter (see internal/backoff).
var reconnectBackoff = backoff.Policy{Base: 2 * time.Millisecond, Max: 100 * time.Millisecond}

// purgeStale closes every pooled connection with no in-flight request
// and no live Tx. Connections that are in use are left alone — if the
// server really went away the caller reading on them notices.
func (c *Client) purgeStale() {
	c.mu.Lock()
	var stale []*wconn
	live := c.conns[:0]
	for _, wc := range c.conns {
		if wc.idleUnpinned() {
			stale = append(stale, wc)
		} else {
			live = append(live, wc)
		}
	}
	c.conns = live
	c.mu.Unlock()
	for _, wc := range stale {
		wc.close()
	}
}

// ---------------------------------------------------------------------------
// Connection-level API.

// Ping checks server liveness over one pooled connection.
func (c *Client) Ping() error { return c.ping(c.plain()) }

// PingContext is Ping with a caller-supplied context.
func (c *Client) PingContext(ctx context.Context) error { return c.ping(ctxCall(ctx)) }

func (c *Client) ping(cl call) error {
	_, err := c.do(cl, wire.TypePing, nil, true)
	return err
}

// CreateTable creates a table on the server; indexed names columns to
// maintain secondary indexes on.
func (c *Client) CreateTable(name string, cols []hyrisenv.Column, indexed ...string) error {
	return c.createTable(c.plain(), name, cols, indexed)
}

// CreateTableContext is CreateTable with a caller-supplied context.
func (c *Client) CreateTableContext(ctx context.Context, name string, cols []hyrisenv.Column, indexed ...string) error {
	return c.createTable(ctxCall(ctx), name, cols, indexed)
}

func (c *Client) createTable(cl call, name string, cols []hyrisenv.Column, indexed []string) error {
	req := wire.CreateTableReq{Name: name, Indexed: indexed}
	for _, col := range cols {
		req.Cols = append(req.Cols, wire.ColumnDef{Name: col.Name, Type: uint8(col.Type)})
	}
	_, err := c.do(cl, wire.TypeCreateTable, req.Encode(), false)
	return err
}

// TableStat describes one table on the server.
type TableStat struct {
	Name      string
	ID        uint32
	MainRows  uint64
	DeltaRows uint64
	Rows      uint64
}

// Tables lists the server catalog.
func (c *Client) Tables() ([]TableStat, error) { return c.tables(c.plain()) }

// TablesContext is Tables with a caller-supplied context.
func (c *Client) TablesContext(ctx context.Context) ([]TableStat, error) {
	return c.tables(ctxCall(ctx))
}

func (c *Client) tables(cl call) ([]TableStat, error) {
	f, err := c.do(cl, wire.TypeTables, nil, true)
	if err != nil {
		return nil, err
	}
	resp, err := wire.DecodeTablesResp(f.Payload)
	if err != nil {
		return nil, err
	}
	out := make([]TableStat, len(resp.Tables))
	for i, t := range resp.Tables {
		out[i] = TableStat(t)
	}
	return out, nil
}

// Stats reports the server's recovery and NVM statistics.
type Stats struct {
	Mode           hyrisenv.Mode
	Uptime         time.Duration
	Recovery       time.Duration // cost of the server's last engine open
	TablesOpened   int
	CheckpointLoad time.Duration
	LogReplay      time.Duration
	IndexRebuild   time.Duration
	ReplayRecords  int
	RolledBack     int
	EntriesUndone  int
	NVMFlushes     uint64
	NVMFences      uint64
	NVMBytesUsed   uint64
}

// Stats fetches server statistics.
func (c *Client) Stats() (Stats, error) { return c.stats(c.plain()) }

// StatsContext is Stats with a caller-supplied context.
func (c *Client) StatsContext(ctx context.Context) (Stats, error) { return c.stats(ctxCall(ctx)) }

func (c *Client) stats(cl call) (Stats, error) {
	f, err := c.do(cl, wire.TypeStats, nil, true)
	if err != nil {
		return Stats{}, err
	}
	resp, err := wire.DecodeStatsResp(f.Payload)
	if err != nil {
		return Stats{}, err
	}
	return Stats{
		Mode:           hyrisenv.Mode(resp.Mode),
		Uptime:         resp.Uptime,
		Recovery:       resp.Recovery,
		TablesOpened:   int(resp.TablesOpened),
		CheckpointLoad: resp.CheckpointLoad,
		LogReplay:      resp.LogReplay,
		IndexRebuild:   resp.IndexRebuild,
		ReplayRecords:  int(resp.ReplayRecords),
		RolledBack:     int(resp.RolledBack),
		EntriesUndone:  int(resp.EntriesUndone),
		NVMFlushes:     resp.NVMFlushes,
		NVMFences:      resp.NVMFences,
		NVMBytesUsed:   resp.NVMBytesUsed,
	}, nil
}

// ---------------------------------------------------------------------------
// Reads. One body per verb serves the Client and the Tx. The Client's
// reads are auto-commit: each names handle 0, runs in a fresh read-only
// snapshot server-side, and is retried on a fresh connection after a
// network failure (Options.ReadRetries). A Tx's reads first send the
// begin and the writes waiting in the Tx, so that they see them, then
// run in its snapshot over its pinned connection, and are never retried.

// read sends read request t on behalf of tx, or as an auto-commit read
// when tx is nil. encode builds the payload for the handle the read
// names.
func (c *Client) read(cl call, tx *Tx, t wire.Type, encode func(txn uint64) []byte) (wire.Frame, error) {
	if tx == nil {
		return c.do(cl, t, encode(0), true)
	}
	if err := tx.flush(cl); err != nil {
		return wire.Frame{}, err
	}
	return tx.roundTrip(cl, t, encode(tx.id))
}

func wirePreds(preds []hyrisenv.Pred) []wire.Pred {
	out := make([]wire.Pred, len(preds))
	for i, p := range preds {
		out[i] = wire.Pred{Col: p.Col, Op: uint8(p.Op), Val: p.Val}
	}
	return out
}

// Select returns the row IDs satisfying all predicates.
func (c *Client) Select(table string, preds ...hyrisenv.Pred) ([]uint64, error) {
	return c.sel(c.plain(), nil, table, preds)
}

// SelectContext is Select with a caller-supplied context.
func (c *Client) SelectContext(ctx context.Context, table string, preds ...hyrisenv.Pred) ([]uint64, error) {
	return c.sel(ctxCall(ctx), nil, table, preds)
}

func (c *Client) sel(cl call, tx *Tx, table string, preds []hyrisenv.Pred) ([]uint64, error) {
	f, err := c.read(cl, tx, wire.TypeSelect, func(txn uint64) []byte {
		return wire.SelectReq{Txn: txn, Table: table, Preds: wirePreds(preds)}.Encode()
	})
	if err != nil {
		return nil, err
	}
	resp, err := wire.DecodeRowIDsResp(f.Payload)
	if err != nil {
		return nil, err
	}
	return resp.Rows, nil
}

// ScanAll returns every visible row ID.
func (c *Client) ScanAll(table string) ([]uint64, error) {
	return c.Select(table)
}

// ScanAllContext is ScanAll with a caller-supplied context.
func (c *Client) ScanAllContext(ctx context.Context, table string) ([]uint64, error) {
	return c.SelectContext(ctx, table)
}

// Count returns the number of rows satisfying all predicates.
func (c *Client) Count(table string, preds ...hyrisenv.Pred) (int, error) {
	return c.count(c.plain(), nil, table, preds)
}

// CountContext is Count with a caller-supplied context.
func (c *Client) CountContext(ctx context.Context, table string, preds ...hyrisenv.Pred) (int, error) {
	return c.count(ctxCall(ctx), nil, table, preds)
}

func (c *Client) count(cl call, tx *Tx, table string, preds []hyrisenv.Pred) (int, error) {
	f, err := c.read(cl, tx, wire.TypeCount, func(txn uint64) []byte {
		return wire.SelectReq{Txn: txn, Table: table, Preds: wirePreds(preds)}.Encode()
	})
	if err != nil {
		return 0, err
	}
	resp, err := wire.DecodeCountResp(f.Payload)
	if err != nil {
		return 0, err
	}
	return int(resp.N), nil
}

// SelectRange returns rows whose named column falls in [lo, hi).
func (c *Client) SelectRange(table, col string, lo, hi hyrisenv.Value) ([]uint64, error) {
	return c.selectRange(c.plain(), nil, table, col, lo, hi)
}

// SelectRangeContext is SelectRange with a caller-supplied context.
func (c *Client) SelectRangeContext(ctx context.Context, table, col string, lo, hi hyrisenv.Value) ([]uint64, error) {
	return c.selectRange(ctxCall(ctx), nil, table, col, lo, hi)
}

func (c *Client) selectRange(cl call, tx *Tx, table, col string, lo, hi hyrisenv.Value) ([]uint64, error) {
	f, err := c.read(cl, tx, wire.TypeRange, func(txn uint64) []byte {
		return wire.RangeReq{Txn: txn, Table: table, Col: col, Lo: lo, Hi: hi}.Encode()
	})
	if err != nil {
		return nil, err
	}
	resp, err := wire.DecodeRowIDsResp(f.Payload)
	if err != nil {
		return nil, err
	}
	return resp.Rows, nil
}

// Row materializes all columns of a row.
func (c *Client) Row(table string, row uint64) ([]hyrisenv.Value, error) {
	return c.row(c.plain(), nil, table, row)
}

// RowContext is Row with a caller-supplied context.
func (c *Client) RowContext(ctx context.Context, table string, row uint64) ([]hyrisenv.Value, error) {
	return c.row(ctxCall(ctx), nil, table, row)
}

func (c *Client) row(cl call, tx *Tx, table string, row uint64) ([]hyrisenv.Value, error) {
	f, err := c.read(cl, tx, wire.TypeGetRow, func(txn uint64) []byte {
		return wire.RowReq{Txn: txn, Table: table, Row: row}.Encode()
	})
	if err != nil {
		return nil, err
	}
	resp, err := wire.DecodeRowResp(f.Payload)
	if err != nil {
		return nil, err
	}
	return resp.Vals, nil
}
