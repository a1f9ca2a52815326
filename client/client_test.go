package client_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hyrisenv"
	"hyrisenv/client"
	"hyrisenv/internal/core"
	"hyrisenv/internal/fault"
	"hyrisenv/internal/server"
	"hyrisenv/internal/shard"
	"hyrisenv/internal/txn"
)

func startVolatile(t testing.TB) (*shard.Engine, *server.Server) {
	t.Helper()
	eng, err := shard.Open(shard.Config{Config: core.Config{Mode: txn.ModeNone}})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.Listen(eng, "127.0.0.1:0", server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		eng.Close()
	})
	return eng, srv
}

var cols = []hyrisenv.Column{
	{Name: "id", Type: hyrisenv.Int64},
	{Name: "v", Type: hyrisenv.String},
}

// TestRetryOnReconnect checks the idempotent-read retry: after the
// server is replaced behind the same address, the next auto-commit read
// succeeds on its first call — the stale pooled connections are purged
// and redialed inside the client.
func TestRetryOnReconnect(t *testing.T) {
	eng, srv := startVolatile(t)
	c, err := client.Dial(srv.Addr(), client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.CreateTable("t", cols); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Count("t"); err != nil {
		t.Fatal(err)
	}

	// Replace the server behind the same address (new engine: volatile
	// data is gone, which is fine — we only care about transport).
	addr := srv.Addr()
	srv.Close()
	eng2, err := shard.Open(shard.Config{Config: core.Config{Mode: txn.ModeNone}})
	if err != nil {
		t.Fatal(err)
	}
	srv2, err := server.Listen(eng2, addr, server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv2.Close()
		eng2.Close()
	})
	_ = eng

	// The pooled connection is dead, but Ping is idempotent: one call,
	// internal retry, success.
	if err := c.Ping(); err != nil {
		t.Fatalf("ping after server swap: %v", err)
	}
	// Reads against the new (empty) server map to a clean table error,
	// proving the request reached the replacement server.
	if _, err := c.Count("t"); !errors.Is(err, client.ErrNoSuchTable) {
		t.Fatalf("count after swap: got %v, want ErrNoSuchTable", err)
	}
}

// TestIdleRestartFirstCallSucceeds replaces the server behind the same
// address while the client sits idle, with retries off: requests that
// are never retried — Begin, CreateTable — must still succeed on their
// first call, because the client finds the dead pooled connection
// before it sends anything into it.
func TestIdleRestartFirstCallSucceeds(t *testing.T) {
	_, srv := startVolatile(t)
	c, err := client.Dial(srv.Addr(), client.Options{ReadRetries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.CreateTable("t", cols); err != nil {
		t.Fatal(err)
	}

	addr := srv.Addr()
	srv.Close()
	eng2, err := shard.Open(shard.Config{Config: core.Config{Mode: txn.ModeNone}})
	if err != nil {
		t.Fatal(err)
	}
	srv2, err := server.Listen(eng2, addr, server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv2.Close()
		eng2.Close()
	})
	time.Sleep(50 * time.Millisecond) // the client sits idle

	tx, err := c.Begin()
	if err != nil {
		t.Fatalf("begin after an idle restart: %v", err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateTable("t", cols); err != nil {
		t.Fatalf("create table after an idle restart: %v", err)
	}
}

// TestWritesAreNotRetried checks that non-idempotent requests surface
// the transport error instead of being silently replayed.
func TestWritesAreNotRetried(t *testing.T) {
	_, srv := startVolatile(t)
	c, err := client.Dial(srv.Addr(), client.Options{RequestTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.CreateTable("t", cols); err != nil {
		t.Fatal(err)
	}
	tx, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	srv.Close() // server gone mid-transaction
	if _, err := tx.Insert("t", hyrisenv.Int(1), hyrisenv.Str("x")); err == nil {
		t.Fatal("insert against dead server succeeded")
	}
	// The Tx is finished; further use reports it cleanly.
	if _, err := tx.Insert("t", hyrisenv.Int(2), hyrisenv.Str("y")); !errors.Is(err, client.ErrTxDone) {
		t.Fatalf("insert on broken tx: got %v, want ErrTxDone", err)
	}
}

// TestPoolSharesConnection checks that connections multiplex: with a
// pool of one, concurrent transactions (and auto-commit reads) share
// the single connection instead of blocking each other — the server
// scopes transaction handles per connection and allows many.
func TestPoolSharesConnection(t *testing.T) {
	_, srv := startVolatile(t)
	c, err := client.Dial(srv.Addr(), client.Options{PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.CreateTable("t", cols); err != nil {
		t.Fatal(err)
	}

	tx, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	// A second transaction and a read proceed on the shared connection
	// while the first is still open. The deadline would fire if either
	// had to wait for the first Tx to release anything.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	tx2, err := c.BeginContext(ctx)
	if err != nil {
		t.Fatalf("second begin on shared conn: %v", err)
	}
	if _, err := c.CountContext(ctx, "t"); err != nil {
		t.Fatalf("read alongside two open txs: %v", err)
	}

	// Both transactions commit independently and their writes land.
	if _, err := tx.Insert("t", hyrisenv.Int(1), hyrisenv.Str("a")); err != nil {
		t.Fatal(err)
	}
	if _, err := tx2.Insert("t", hyrisenv.Int(2), hyrisenv.Str("b")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	n, err := c.Count("t")
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("rows = %d, want 2", n)
	}
}

// TestPipelinedSingleConn proves requests multiplex rather than
// queueing for exclusive checkout: 16 goroutines hammer a PoolSize-1
// client concurrently, and the server must see exactly one connection.
func TestPipelinedSingleConn(t *testing.T) {
	_, srv := startVolatile(t)
	c, err := client.Dial(srv.Addr(), client.Options{PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.CreateTable("t", cols); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errCh := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				if _, err := c.Count("t"); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if n := srv.NumConns(); n != 1 {
		t.Fatalf("server sees %d conns, want 1 (requests must share the pooled conn)", n)
	}
}

// TestMidPipelineRestart kills the server while pipelined requests are
// in flight, then restarts it behind the same address. In-flight and
// queued writes must surface a definite error (never a silent replay);
// idempotent reads ride out the restart via the retry path; and the
// client must be fully usable against the replacement server.
func TestMidPipelineRestart(t *testing.T) {
	_, srv := startVolatile(t)
	addr := srv.Addr()
	c, err := client.Dial(addr, client.Options{PoolSize: 2, RequestTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.CreateTable("t", cols); err != nil {
		t.Fatal(err)
	}
	tx, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Insert("t", hyrisenv.Int(1), hyrisenv.Str("staged")); err != nil {
		t.Fatal(err)
	}

	// Keep the pipeline busy with reads while the server dies.
	stop := make(chan struct{})
	var readErrs atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := c.Count("t"); err != nil {
					readErrs.Add(1)
				}
			}
		}()
	}
	time.Sleep(20 * time.Millisecond)
	srv.Close() // every connection drops mid-pipeline

	// The staged write's commit must report a definite failure: with the
	// connection dead the client cannot know whether it applied, so it
	// must not be replayed on a fresh connection.
	if err := tx.Commit(); err == nil {
		t.Fatal("commit across server death reported success")
	}
	close(stop)
	wg.Wait()

	// Restart behind the same address (fresh volatile engine).
	eng2, err := shard.Open(shard.Config{Config: core.Config{Mode: txn.ModeNone}})
	if err != nil {
		t.Fatal(err)
	}
	srv2, err := server.Listen(eng2, addr, server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv2.Close()
		eng2.Close()
	})

	// Idempotent ping flushes the dead conns and redials transparently.
	if err := c.Ping(); err != nil {
		t.Fatalf("ping after restart: %v", err)
	}
	if err := c.CreateTable("t", cols); err != nil {
		t.Fatal(err)
	}
	tx2, err := c.Begin()
	if err != nil {
		t.Fatalf("begin after restart: %v", err)
	}
	if _, err := tx2.Insert("t", hyrisenv.Int(2), hyrisenv.Str("after")); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	n, err := c.Count("t")
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("rows after restart = %d, want 1 (the pre-restart staged row must not reappear)", n)
	}
}

// TestClientClose checks Close is terminal and idempotent.
func TestClientClose(t *testing.T) {
	_, srv := startVolatile(t)
	c, err := client.Dial(srv.Addr(), client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Ping(); !errors.Is(err, client.ErrClosed) {
		t.Fatalf("ping after close: got %v, want ErrClosed", err)
	}
}

// TestPipelinedResetExactlyOnce is the acked-durability contract at the
// client-pool level: under pipelined load on a server whose fault plane
// injects connection resets and partial-frame response writes, every
// tagged write must resolve exactly once — an acked commit is visible
// exactly once, a write that failed before Commit was issued is absent
// (its transaction died with the connection and was aborted server
// side), and a commit whose ack was lost is present at most once (never
// duplicated by a retry). Reads ride ReadRetries and recover; writes
// are never replayed. Each transaction also deletes the row of its
// worker's last acked one, a delete that rides the commit frame: an
// acked commit's delete applied, and an indeterminate commit's delete
// applied exactly when its insert did — the frame is all or nothing.
func TestPipelinedResetExactlyOnce(t *testing.T) {
	eng, err := shard.Open(shard.Config{Config: core.Config{Mode: txn.ModeNone}})
	if err != nil {
		t.Fatal(err)
	}
	plane := fault.New(fault.Config{Seed: 42, ResetProb: 0.02, PartialWriteProb: 0.01})
	srv, err := server.Listen(eng, "127.0.0.1:0", server.Config{ConnWrapper: plane.WrapConn})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		eng.Close()
	})
	c, err := client.Dial(srv.Addr(), client.Options{
		ReadRetries:    3,
		RequestTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.CreateTable("t", cols); err != nil {
		t.Fatal(err)
	}
	plane.Enable() // setup is done; from here every conn write/read may fault

	const workers, perWorker = 8, 50
	const (
		acked  = iota // Commit returned nil: must be visible exactly once
		failed        // error before Commit was sent: must be absent
		indet         // Commit errored: ack lost in flight, at most once
	)
	status := make([]int32, workers*perWorker)
	deletes := make([]int, workers*perWorker) // key whose row the transaction deleted, -1 for none
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			prev, prevRow := -1, uint64(0) // the last acked key whose row no commit has tried to delete
			for i := 0; i < perWorker; i++ {
				key := w*perWorker + i
				deletes[key] = -1
				tx, err := c.Begin()
				if err != nil {
					status[key] = failed
					continue
				}
				row, err := tx.Insert("t", hyrisenv.Int(int64(key)), hyrisenv.Str(fmt.Sprintf("w%d-%d", w, i)))
				if err != nil {
					tx.Abort() //nolint:errcheck — connection likely dead already
					status[key] = failed
					continue
				}
				if prev >= 0 {
					if err := tx.Delete("t", prevRow); err != nil {
						t.Errorf("key %d: delete sent before the commit: %v", key, err)
					}
					deletes[key] = prev
				}
				if err := tx.Commit(); err != nil {
					status[key] = indet
					prev = -1 // its row may be gone
					continue
				}
				status[key] = acked
				prev, prevRow = key, row
			}
		}(w)
	}
	// Concurrent readers keep the pipeline mixed while faults fire; their
	// errors are irrelevant here — only that they never deadlock the pool.
	stopReads := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stopReads:
					return
				default:
					c.Count("t") //nolint:errcheck — fault noise by design
				}
			}
		}()
	}
	wg.Wait()
	close(stopReads)
	readers.Wait()
	plane.Disable()

	st := plane.Stats()
	if st.Resets+st.PartialWrites == 0 {
		t.Fatal("no connection fault fired; the test exercised nothing")
	}
	var nAcked, nFailed, nIndet int
	for _, s := range status {
		switch s {
		case acked:
			nAcked++
		case failed:
			nFailed++
		default:
			nIndet++
		}
	}
	t.Logf("faults: %v; writes: %d acked, %d failed, %d indeterminate", &st, nAcked, nFailed, nIndet)
	if nAcked == 0 {
		t.Fatal("no write was ever acked under the fault plane")
	}

	// Verification pass on the same (recovered) pool, plane quiet.
	visible := make([]int, len(status))
	for key := range status {
		n, err := c.Count("t", hyrisenv.Pred{Col: "id", Op: hyrisenv.Eq, Val: hyrisenv.Int(int64(key))})
		if err != nil {
			t.Fatalf("verify key %d: %v", key, err)
		}
		visible[key] = n
	}
	deleted := make([]bool, len(status)) // a commit that may have applied deleted the key's row
	for key, s := range status {
		if s != failed && deletes[key] >= 0 {
			deleted[deletes[key]] = true
		}
	}
	for key, s := range status {
		n, d := visible[key], deletes[key]
		switch {
		case s == acked && n > 1, s == acked && n == 0 && !deleted[key]:
			t.Errorf("key %d: acked but visible %d times — lost or duplicated acked write", key, n)
		case s == failed && n != 0:
			t.Errorf("key %d: failed before commit but visible %d times — phantom write", key, n)
		case s == indet && n > 1:
			t.Errorf("key %d: indeterminate commit visible %d times — duplicate apply", key, n)
		case s == acked && d >= 0 && visible[d] != 0:
			t.Errorf("key %d: acked, but the row of key %d it deleted is visible", key, d)
		case s == indet && d >= 0 && n+visible[d] != 1:
			t.Errorf("key %d: indeterminate commit shows its insert %d times and the row it deleted %d times — half a frame applied", key, n, visible[d])
		}
	}
}

// TestTxCancelledCallKeepsTx: a Tx call whose context is done before it
// sends anything returns the context's error and leaves the transaction
// open — its writes before and after it commit, and the connection it
// is pinned to keeps serving it.
func TestTxCancelledCallKeepsTx(t *testing.T) {
	_, srv := startVolatile(t)
	c, err := client.Dial(srv.Addr(), client.Options{PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.CreateTable("t", cols); err != nil {
		t.Fatal(err)
	}
	tx, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Insert("t", hyrisenv.Int(1), hyrisenv.Str("a")); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := tx.SelectContext(ctx, "t"); !errors.Is(err, context.Canceled) {
		t.Fatalf("SelectContext with a cancelled context: %v, want context.Canceled", err)
	}
	if _, err := tx.Insert("t", hyrisenv.Int(2), hyrisenv.Str("b")); err != nil {
		t.Fatalf("Insert after the cancelled call: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("Commit after the cancelled call: %v", err)
	}
	if n, err := c.Count("t"); err != nil || n != 2 {
		t.Fatalf("Count = %d, %v; want both rows", n, err)
	}
}

// TestContextVariants runs the Context variants no other test calls.
// With a context cancelled before the call each returns context.Canceled
// and leaves the pooled connection serving the next call; with a live
// context each returns what its plain variant returns.
func TestContextVariants(t *testing.T) {
	_, srv := startVolatile(t)
	c, err := client.Dial(srv.Addr(), client.Options{PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.CreateTable("t", cols); err != nil {
		t.Fatal(err)
	}
	tx, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	const rows = 70 // more than a Tx holds back, so a delete sends a frame
	for i := 0; i < rows; i++ {
		if _, err := tx.Insert("t", hyrisenv.Int(int64(i)), hyrisenv.Str("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	ids, err := c.ScanAll("t")
	if err != nil {
		t.Fatal(err)
	}
	// A snapshot that sees the rows, for BeginAt to travel back to once
	// some are deleted.
	ro, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ro.Count("t"); err != nil {
		t.Fatal(err)
	}
	cid := ro.SnapshotCID()
	if err := ro.Abort(); err != nil {
		t.Fatal(err)
	}
	del, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := del.Delete("t", ids[rows-1]); err != nil {
		t.Fatal(err)
	}
	if err := del.Commit(); err != nil {
		t.Fatal(err)
	}
	ids = ids[:rows-1]

	// deleteMany holds back 64 deletes and sends them with the 65th,
	// through del, then reports the rows the transaction still sees.
	deleteMany := func(del func(tx *client.Tx, row uint64) error) (any, error) {
		tx, err := c.Begin()
		if err != nil {
			return nil, err
		}
		defer tx.Abort() //nolint:errcheck
		for _, row := range ids[:64] {
			if err := tx.Delete("t", row); err != nil {
				return nil, err
			}
		}
		if err := del(tx, ids[64]); err != nil {
			return nil, err
		}
		return tx.Count("t")
	}
	// Uptime moves between two calls; the rest of a Stats reply does not.
	stats := func(s client.Stats, err error) (any, error) {
		s.Uptime = 0
		return s, err
	}
	cases := []struct {
		name  string
		ctx   func(ctx context.Context) (any, error)
		plain func() (any, error)
	}{
		{"BeginAtContext",
			func(ctx context.Context) (any, error) {
				tx, err := c.BeginAtContext(ctx, cid)
				if err != nil {
					return nil, err
				}
				defer tx.Abort() //nolint:errcheck
				return tx.Count("t")
			},
			func() (any, error) {
				tx, err := c.BeginAt(cid)
				if err != nil {
					return nil, err
				}
				defer tx.Abort() //nolint:errcheck
				return tx.Count("t")
			}},
		{"Tx.DeleteContext",
			func(ctx context.Context) (any, error) {
				return deleteMany(func(tx *client.Tx, row uint64) error { return tx.DeleteContext(ctx, "t", row) })
			},
			func() (any, error) {
				return deleteMany(func(tx *client.Tx, row uint64) error { return tx.Delete("t", row) })
			}},
		{"ScanAllContext",
			func(ctx context.Context) (any, error) { return c.ScanAllContext(ctx, "t") },
			func() (any, error) { return c.ScanAll("t") }},
		{"StatsContext",
			func(ctx context.Context) (any, error) { return stats(c.StatsContext(ctx)) },
			func() (any, error) { return stats(c.Stats()) }},
		{"TablesContext",
			func(ctx context.Context) (any, error) { return c.TablesContext(ctx) },
			func() (any, error) { return c.Tables() }},
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := tc.ctx(cancelled); !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled: got %v, want context.Canceled", err)
			}
			want, err := tc.plain()
			if err != nil {
				t.Fatalf("plain call after a cancelled one: %v", err)
			}
			got, err := tc.ctx(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("got %v, want %v as the plain variant returns", got, want)
			}
			if n := srv.NumConns(); n != 1 {
				t.Fatalf("server sees %d conns, want the one pooled conn", n)
			}
		})
	}
}
