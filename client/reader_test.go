package client_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"hyrisenv"
	"hyrisenv/client"
	"hyrisenv/internal/wire"
)

// Tests of the reader hand-off: callers sharing a connection read their
// own replies, one reader at a time.

// rawServer serves one connection on a loopback port with script, after
// answering the handshake. It returns the address.
func rawServer(t *testing.T, script func(nc net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	t.Cleanup(func() {
		ln.Close()
		<-done
	})
	go func() {
		defer close(done)
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		nc.SetDeadline(time.Now().Add(30 * time.Second))
		hello, err := wire.ReadFrame(nc, 0)
		if err != nil {
			t.Errorf("raw server: hello: %v", err)
			return
		}
		ok := wire.HelloOK{Version: wire.Version, MaxPayload: wire.DefaultMaxPayload}
		if err := wire.WriteFrame(nc, wire.Frame{Type: wire.TypeHelloOK, ReqID: hello.ReqID, Payload: ok.Encode()}); err != nil {
			t.Errorf("raw server: hello-ok: %v", err)
			return
		}
		script(nc)
	}()
	return ln.Addr().String()
}

// rowIDs encodes the reply to request id of a Select returning rows.
func rowIDs(id uint64, rows ...uint64) []byte {
	return wire.AppendFrame(nil, wire.Frame{Type: wire.TypeRowIDs, ReqID: id, Payload: wire.RowIDsResp{Rows: rows}.Encode()})
}

// TestReaderTimeoutMidFrame has the server write part of a reply and
// stall past its reader's deadline, while a second caller waits on the
// same connection. The reader gets context.DeadlineExceeded, the second
// caller takes over the read and resumes the partial frame, and the
// connection keeps decoding: its next request gets its own answer.
func TestReaderTimeoutMidFrame(t *testing.T) {
	first := rowIDs(2, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
	for _, cut := range []int{wire.HeaderSize / 2, wire.HeaderSize + 20} {
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			got2, got3, resume := make(chan struct{}), make(chan struct{}), make(chan struct{})
			addr := rawServer(t, func(nc net.Conn) {
				read := func() wire.Frame {
					f, err := wire.ReadFrame(nc, 0)
					if err != nil {
						t.Errorf("raw server: %v", err)
					}
					return f
				}
				if f := read(); f.ReqID != 2 {
					t.Errorf("raw server: first request has id %d, want 2", f.ReqID)
				}
				nc.Write(first[:cut])
				close(got2)
				third := read()
				close(got3)
				<-resume
				nc.Write(first[cut:])
				nc.Write(rowIDs(third.ReqID, 42))
				nc.Write(rowIDs(read().ReqID, 43))
			})
			c, err := client.Dial(addr, client.Options{PoolSize: 1, ReadRetries: -1, HealthCheckAfter: -1})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()

			errA := make(chan error, 1)
			go func() {
				ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
				defer cancel()
				_, err := c.SelectContext(ctx, "t")
				errA <- err
			}()
			<-got2
			type result struct {
				rows []uint64
				err  error
			}
			resB := make(chan result, 1)
			go func() {
				rows, err := c.Select("t")
				resB <- result{rows, err}
			}()
			<-got3
			if err := <-errA; !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("reader past its deadline: got %v, want context.DeadlineExceeded", err)
			}
			close(resume)
			if b := <-resB; b.err != nil || !slices.Equal(b.rows, []uint64{42}) {
				t.Fatalf("caller that took over the read: got %v, %v; want [42]", b.rows, b.err)
			}
			if rows, err := c.Select("t"); err != nil || !slices.Equal(rows, []uint64{43}) {
				t.Fatalf("next request on the connection: got %v, %v; want [43]", rows, err)
			}
		})
	}
}

// TestReaderCancel cancels the context of a caller that holds the
// reader role on a connection whose server never answers: the read is
// woken and the caller returns context.Canceled.
func TestReaderCancel(t *testing.T) {
	addr := rawServer(t, func(nc net.Conn) {
		io.Copy(io.Discard, nc) // read requests, answer none
	})
	c, err := client.Dial(addr, client.Options{PoolSize: 1, ReadRetries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(50*time.Millisecond, cancel)
	start := time.Now()
	if _, err := c.SelectContext(ctx, "t"); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("cancelled read returned after %v", d)
	}
}

// TestFollowerPlainDeadline has a caller of a method without a context
// wait behind another caller's read, on a server that never answers: the
// follower's plain deadline (Options.RequestTimeout) must still end its
// wait, while the reader reads on.
func TestFollowerPlainDeadline(t *testing.T) {
	got := make(chan struct{})
	addr := rawServer(t, func(nc net.Conn) {
		if _, err := wire.ReadFrame(nc, 0); err != nil {
			t.Errorf("raw server: %v", err)
		}
		close(got)
		io.Copy(io.Discard, nc) // read requests, answer none
	})
	c, err := client.Dial(addr, client.Options{PoolSize: 1, ReadRetries: -1, RequestTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	leader := make(chan error, 1)
	go func() {
		_, err := c.SelectContext(ctx, "t")
		leader <- err
	}()
	<-got
	start := time.Now()
	if _, err := c.Select("t"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("follower: got %v, want context.DeadlineExceeded", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("follower's 50 ms deadline ended its wait after %v", d)
	}
	select {
	case err := <-leader:
		t.Fatalf("the reader returned with the follower: %v", err)
	default:
	}
	cancel()
	if err := <-leader; !errors.Is(err, context.Canceled) {
		t.Fatalf("reader: got %v, want context.Canceled", err)
	}
}

// TestReaderHandOffManyCallers has 32 goroutines share one connection,
// each asking for its own rows: every caller must get its own answer.
func TestReaderHandOffManyCallers(t *testing.T) {
	_, srv := startVolatile(t)
	c, err := client.Dial(srv.Addr(), client.Options{PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.CreateTable("t", cols, "id"); err != nil {
		t.Fatal(err)
	}
	const callers, perCaller = 32, 200
	rowOf := make([]uint64, callers*perCaller)
	tx, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for k := range rowOf {
		if rowOf[k], err = tx.Insert("t", hyrisenv.Int(int64(k)), hyrisenv.Str("")); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perCaller; i++ {
				k := g*perCaller + i
				rows, err := c.Select("t", hyrisenv.Pred{Col: "id", Op: hyrisenv.Eq, Val: hyrisenv.Int(int64(k))})
				if err != nil || !slices.Equal(rows, rowOf[k:k+1]) {
					errs <- fmt.Errorf("caller %d, key %d: got %v, %v; want [%d]", g, k, rows, err, rowOf[k])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := srv.NumConns(); n != 1 {
		t.Fatalf("server sees %d connections, want 1", n)
	}
}

// TestClientRunsNoGoroutine checks that a client's connections need no
// goroutine of their own: none is running after Dial and a few requests
// from concurrent callers, and none is left after Close.
func TestClientRunsNoGoroutine(t *testing.T) {
	addr := rawServer(t, func(nc net.Conn) {
		for {
			f, err := wire.ReadFrame(nc, 0)
			if err != nil {
				return
			}
			if err := wire.WriteFrame(nc, wire.Frame{Type: wire.TypePong, ReqID: f.ReqID}); err != nil {
				return
			}
		}
	})
	// steady returns the goroutine count once it stops changing, so
	// that goroutines on their way out — the previous tests' servers,
	// say — are not counted.
	steady := func() int {
		n := runtime.NumGoroutine()
		for i := 0; i < 200; i++ {
			time.Sleep(5 * time.Millisecond)
			m := runtime.NumGoroutine()
			if m == n {
				break
			}
			n = m
		}
		return n
	}
	// settle waits up to 5 s for the count to fall to want.
	settle := func(want int) int {
		n := runtime.NumGoroutine()
		for deadline := time.Now().Add(5 * time.Second); n > want && time.Now().Before(deadline); n = runtime.NumGoroutine() {
			time.Sleep(time.Millisecond)
		}
		return n
	}
	before := steady()
	c, err := client.Dial(addr, client.Options{PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if err := c.Ping(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := settle(before); n > before {
		t.Fatalf("%d goroutines with an open client, %d before Dial", n, before)
	}
	c.Close()
	if n := settle(before); n > before {
		t.Fatalf("%d goroutines after Close, %d before Dial", n, before)
	}
}
