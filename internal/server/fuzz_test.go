package server

import (
	"net"
	"sync"
	"testing"
	"time"

	"hyrisenv/internal/core"
	"hyrisenv/internal/shard"
	"hyrisenv/internal/storage"
	"hyrisenv/internal/txn"
	"hyrisenv/internal/wire"
)

// pipeListener hands the server the far ends of in-process pipes.
type pipeListener struct {
	conns chan net.Conn
	once  sync.Once
	done  chan struct{}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case nc := <-l.conns:
		return nc, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// fuzzBatches turns fuzz input into a stream of batch frames: random
// flags (contradictory ones included), handles that name the
// transactions the stream begins and ones that do not, and ops of every
// kind on rows that exist, rows past the table's end and a table that
// does not exist, with the right number of values and the wrong one.
// Now and then a batch carries a 1 ms deadline.
func fuzzBatches(data []byte) []wire.Frame {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	var frames []wire.Frame
	for len(data) > 0 && len(frames) < 64 {
		ctl := next()
		req := wire.BatchReq{Commit: ctl&1 != 0, Abort: ctl&2 != 0, ReadOnly: ctl&4 != 0}
		if ctl&8 != 0 {
			req.Txn = uint64(next() % 8) // handles are 1, 2, … per connection
		}
		if req.ReadOnly {
			req.AtCID = uint64(next())
		}
		for n := next() % 4; n > 0; n-- {
			op := wire.WriteOp{Kind: wire.WriteKind(1 + next()%3), Table: "f"}
			if next()%16 == 0 {
				op.Table = "nope"
			}
			if op.Kind != wire.WriteInsert {
				// The low byte lands on or near the table's rows; the high one
				// far past its end.
				op.Row = uint64(next()) | uint64(next())<<32
			}
			if op.Kind != wire.WriteDelete {
				for k := next() % 3; k > 0; k-- { // the schema wants one value
					op.Vals = append(op.Vals, storage.Int(int64(next())))
				}
			}
			req.Ops = append(req.Ops, op)
		}
		f := wire.Frame{Type: wire.TypeBatch, ReqID: uint64(len(frames) + 1), Payload: req.Encode()}
		if ctl&16 != 0 {
			f.TimeoutMs = 1
		}
		frames = append(frames, f)
	}
	return frames
}

// FuzzServeBatch drives the server's one transaction body with random
// batches over an in-process connection and holds it to its contract:
// no panic, exactly one reply per request, in request order, and once
// the connection closes, every admission slot is back — whatever
// transactions the batches left open were aborted with the connection.
func FuzzServeBatch(f *testing.F) {
	eng, err := shard.Open(shard.Config{Config: core.Config{Mode: txn.ModeNVM, Dir: f.TempDir(), NVMHeapSize: 64 << 20}})
	if err != nil {
		f.Fatal(err)
	}
	sch, err := storage.NewSchema(storage.ColumnDef{Name: "id", Type: storage.TypeInt64})
	if err != nil {
		f.Fatal(err)
	}
	tbl, err := eng.CreateTable("f", sch, "id")
	if err != nil {
		f.Fatal(err)
	}
	tx := eng.Begin()
	for i := 0; i < 200; i++ {
		if _, err := tx.Insert(tbl, []storage.Value{storage.Int(int64(i))}); err != nil {
			f.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		f.Fatal(err)
	}
	srv := New(eng, Config{MaxConcurrent: 4, AdmissionWait: -1})
	ln := &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
	go srv.Serve(ln) //nolint:errcheck — returns net.ErrClosed at cleanup
	f.Cleanup(func() {
		srv.Close()
		eng.Close()
	})

	// An input is a run of batches, each: a control byte (bit 0 commit,
	// 1 abort, 2 read-only begin, 3 a handle byte follows, 4 a 1 ms
	// deadline), the handle byte, the CID byte of a read-only begin, the
	// op count, then per op its kind (0 insert, 1 update, 2 delete), its
	// table (a multiple of 16 names none), the row's low and high byte
	// (update and delete) and the values (insert and update: a count and
	// one byte each).
	f.Add([]byte{0x01, 0x01, 0x00, 0x01, 0x01, 0x07})                                                 // begin, insert, commit
	f.Add([]byte{0x00, 0x00, 0x09, 0x01, 0x01, 0x02, 0x01, 0x05, 0x00})                               // begin, then delete and commit
	f.Add([]byte{0x00, 0x00, 0x0a, 0x01, 0x00})                                                       // begin, then abort
	f.Add([]byte{0x01, 0x01, 0x02, 0x01, 0xff, 0x7f})                                                 // a delete past the table's end
	f.Add([]byte{0x01, 0x01, 0x01, 0x01, 0x03, 0x00, 0x02, 0x01, 0x02})                               // an update with two values
	f.Add([]byte{0x0a, 0x05, 0x00, 0x0a, 0x01, 0x01, 0x02, 0x01, 0x01, 0x00})                         // abort an unknown handle; abort with ops
	f.Add([]byte{0x04, 0x10, 0x01, 0x00, 0x01, 0x01, 0x02})                                           // read-only begin with a write
	f.Add([]byte{0x0c, 0x01, 0x00, 0x00})                                                             // read-only begin naming a handle
	f.Add([]byte{0x00, 0x00, 0x0b, 0x01, 0x00})                                                       // commit with abort
	f.Add([]byte{0x11, 0x03, 0x00, 0x01, 0x01, 0x01, 0x00, 0x01, 0x01, 0x02, 0x00, 0x01, 0x01, 0x03}) // a deadline
	f.Add(make([]byte, 12))                                                                           // more begins than slots

	f.Fuzz(func(t *testing.T, data []byte) {
		frames := fuzzBatches(data)
		if len(frames) == 0 {
			return
		}
		cli, far := net.Pipe()
		defer cli.Close()
		ln.conns <- far
		cli.SetDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck
		fr := wire.NewFrameReader(cli, 0)
		if err := wire.WriteFrame(cli, wire.Frame{Type: wire.TypeHello, Payload: wire.Hello{Version: wire.Version}.Encode()}); err != nil {
			t.Fatal(err)
		}
		if f, err := fr.Next(); err != nil || f.Type != wire.TypeHelloOK {
			t.Fatalf("handshake: %s %v", f.Type, err)
		}

		// A pipe does not buffer: the requests go out while the replies
		// come back.
		wrote := make(chan error, 1)
		go func() {
			for _, f := range frames {
				if err := wire.WriteFrame(cli, f); err != nil {
					wrote <- err
					return
				}
			}
			wrote <- nil
		}()
		for _, req := range frames {
			f, err := fr.Next()
			if err != nil {
				t.Fatalf("reply to request %d: %v", req.ReqID, err)
			}
			if f.ReqID != req.ReqID {
				t.Fatalf("reply for request %d, want %d", f.ReqID, req.ReqID)
			}
			switch f.Type {
			case wire.TypeBatchOK:
				_, err = wire.DecodeBatchResp(f.Payload)
			case wire.TypeError:
				_, err = wire.DecodeErrorResp(f.Payload)
			default:
				t.Fatalf("reply to request %d is %s", req.ReqID, f.Type)
			}
			if err != nil {
				t.Fatalf("reply to request %d: %v", req.ReqID, err)
			}
		}
		if err := <-wrote; err != nil {
			t.Fatal(err)
		}
		cli.SetReadDeadline(time.Now().Add(time.Millisecond)) //nolint:errcheck
		if f, err := fr.Next(); err == nil {
			t.Fatalf("a %s reply no request asked for", f.Type)
		}
		cli.Close()

		for deadline := time.Now().Add(10 * time.Second); srv.NumConns() > 0; time.Sleep(50 * time.Microsecond) {
			if time.Now().After(deadline) {
				t.Fatal("connection never closed")
			}
		}
		if n := len(srv.admit); n != 0 {
			t.Fatalf("%d admission slots held after the connection closed", n)
		}
	})
}
