package wire

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"os"
	"reflect"
	"testing"
	"time"

	"hyrisenv/internal/storage"
)

func TestFrameRoundTrip(t *testing.T) {
	f := Frame{Type: TypeSelect, ReqID: 0xdeadbeefcafe, TimeoutMs: 1500, Payload: []byte("hello payload")}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, f); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrame(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != f.Type || got.ReqID != f.ReqID || got.TimeoutMs != f.TimeoutMs || !bytes.Equal(got.Payload, f.Payload) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, f)
	}

	// DecodeFrame agrees with ReadFrame and reports consumed length.
	enc := AppendFrame(nil, f)
	df, n, err := DecodeFrame(append(enc, 0xff), 0) // trailing garbage must be ignored
	if err != nil || n != len(enc) {
		t.Fatalf("DecodeFrame: n=%d err=%v", n, err)
	}
	if df.ReqID != f.ReqID || !bytes.Equal(df.Payload, f.Payload) {
		t.Fatalf("DecodeFrame mismatch: %+v", df)
	}
}

// TestFrameReaderStream reads a burst of frames written through a
// bufio.Writer back through one FrameReader, and checks that Ready tells
// a buffered frame from one that still needs the stream.
func TestFrameReaderStream(t *testing.T) {
	frames := []Frame{
		{Type: TypePing, ReqID: 1},
		{Type: TypeSelect, ReqID: 2, TimeoutMs: 9, Payload: []byte("select payload")},
		{Type: TypeError, ReqID: 3, Payload: ErrorResp{Code: CodeConflict, Msg: "x"}.Encode()},
	}
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	var want []byte
	for _, f := range frames {
		if err := WriteFrame(bw, f); err != nil {
			t.Fatal(err)
		}
		want = AppendFrame(want, f)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatal("WriteFrame through a bufio.Writer differs from AppendFrame")
	}

	// All but the last byte: every frame but the last is whole.
	fr := NewFrameReader(bytes.NewReader(want[:len(want)-1]), 0)
	for i, f := range frames {
		got, err := fr.Next()
		if i == len(frames)-1 {
			if !errors.Is(err, ErrTruncated) {
				t.Fatalf("last frame cut short: got %v, want ErrTruncated", err)
			}
			break
		}
		if err != nil || got.Type != f.Type || got.ReqID != f.ReqID || got.TimeoutMs != f.TimeoutMs || !bytes.Equal(got.Payload, f.Payload) {
			t.Fatalf("frame %d: got %+v, %v; want %+v", i, got, err, f)
		}
		if ready := fr.Ready(); ready != (i+1 < len(frames)-1) {
			t.Fatalf("after frame %d: Ready = %v", i, ready)
		}
	}
	if _, err := NewFrameReader(bytes.NewReader(nil), 0).Next(); err != io.EOF {
		t.Fatalf("empty stream: got %v, want io.EOF", err)
	}
	if _, err := NewFrameReader(bytes.NewReader(want[:5]), 0).Next(); err != io.ErrUnexpectedEOF {
		t.Fatalf("stream ending inside a header: got %v, want io.ErrUnexpectedEOF", err)
	}
}

// TestFrameReaderResumes interrupts the stream with a timeout before
// every byte: each Next that fails keeps its partial frame, and the
// frames still come out whole and in order.
func TestFrameReaderResumes(t *testing.T) {
	a := Frame{Type: TypeRowIDs, ReqID: 7, Payload: RowIDsResp{Rows: []uint64{1, 2, 3}}.Encode()}
	b := Frame{Type: TypePong, ReqID: 8}
	fr := NewFrameReader(&stallReader{data: AppendFrame(AppendFrame(nil, a), b), chunk: 1}, 0)
	for _, want := range []Frame{a, b} {
		got, err := nextThroughStalls(t, fr, 1000)
		if err != nil || got.ReqID != want.ReqID || got.Type != want.Type || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("got %+v, %v; want %+v", got, err, want)
		}
	}
}

// TestRequestTxn pins the one layout fact the server's drain relies on:
// every request that names a transaction carries its handle first.
func TestRequestTxn(t *testing.T) {
	for _, f := range []Frame{
		{Type: TypeCommit, Payload: TxnReq{Txn: 42}.Encode()},
		{Type: TypeAbort, Payload: TxnReq{Txn: 42}.Encode()},
		{Type: TypeInsert, Payload: InsertReq{Txn: 42, Table: "t"}.Encode()},
		{Type: TypeUpdate, Payload: UpdateReq{Txn: 42, Table: "t", Row: 1}.Encode()},
		{Type: TypeDelete, Payload: DeleteReq{Txn: 42, Table: "t", Row: 1}.Encode()},
		{Type: TypeGetRow, Payload: RowReq{Txn: 42, Table: "t", Row: 1}.Encode()},
		{Type: TypeSelect, Payload: SelectReq{Txn: 42, Table: "t"}.Encode()},
		{Type: TypeCount, Payload: SelectReq{Txn: 42, Table: "t"}.Encode()},
		{Type: TypeRange, Payload: RangeReq{Txn: 42, Table: "t", Col: "c", Lo: storage.Int(0), Hi: storage.Int(1)}.Encode()},
		{Type: TypeBatch, Payload: BatchReq{Txn: 42, Commit: true}.Encode()},
	} {
		if got := RequestTxn(f); got != 42 {
			t.Errorf("%s: RequestTxn = %d, want 42", f.Type, got)
		}
	}
	for _, f := range []Frame{
		{Type: TypeBegin, Payload: BeginReq{AtCID: 42}.Encode()},
		{Type: TypePing},
		{Type: TypeCreateTable, Payload: CreateTableReq{Name: "t"}.Encode()},
		{Type: TypeCommit, Payload: []byte{1, 2, 3}},
		{Type: TypeBatch, Payload: BatchReq{Ops: []WriteOp{{Kind: WriteDelete, Table: "t", Row: 42}}}.Encode()},
	} {
		if got := RequestTxn(f); got != 0 {
			t.Errorf("%s: RequestTxn = %d, want 0", f.Type, got)
		}
	}
}

// stallReader delivers data in chunk-sized pieces and fails with a read
// timeout before each piece, the way a net.Conn does when its read
// deadline expires between segments.
type stallReader struct {
	data    []byte
	chunk   int
	stalled bool
}

func (r *stallReader) Read(p []byte) (int, error) {
	if r.stalled = !r.stalled; r.stalled {
		return 0, os.ErrDeadlineExceeded
	}
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	n := min(r.chunk, len(r.data), len(p))
	copy(p, r.data[:n])
	r.data = r.data[n:]
	return n, nil
}

// nextThroughStalls calls fr.Next until it returns something other than
// a timeout, failing the test after limit timeouts.
func nextThroughStalls(t testing.TB, fr *FrameReader, limit int) (Frame, error) {
	t.Helper()
	for i := 0; i < limit; i++ {
		f, err := fr.Next()
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			return f, err
		}
	}
	t.Fatalf("no progress after %d timeouts", limit)
	return Frame{}, nil
}

func TestFrameEmptyPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, Frame{Type: TypePing, ReqID: 7}); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrame(&buf, 0)
	if err != nil || got.Type != TypePing || got.ReqID != 7 || len(got.Payload) != 0 {
		t.Fatalf("got %+v err %v", got, err)
	}
}

func TestFrameCorruption(t *testing.T) {
	enc := AppendFrame(nil, Frame{Type: TypeInsert, ReqID: 1, Payload: []byte("abcdef")})

	// Truncations at every length must fail with ErrTruncated, not panic.
	for i := 0; i < len(enc); i++ {
		if _, _, err := DecodeFrame(enc[:i], 0); !errors.Is(err, ErrTruncated) {
			t.Fatalf("truncated at %d: got %v", i, err)
		}
	}

	// Bad magic.
	bad := append([]byte(nil), enc...)
	bad[0] = 'X'
	if _, _, err := DecodeFrame(bad, 0); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("bad magic: got %v", err)
	}

	// Unknown type.
	bad = append([]byte(nil), enc...)
	bad[4] = 0xEE
	if _, _, err := DecodeFrame(bad, 0); !errors.Is(err, ErrBadType) {
		t.Fatalf("bad type: got %v", err)
	}

	// Flipped payload byte breaks the checksum.
	bad = append([]byte(nil), enc...)
	bad[HeaderSize] ^= 0x01
	if _, _, err := DecodeFrame(bad, 0); !errors.Is(err, ErrChecksum) {
		t.Fatalf("checksum: got %v", err)
	}

	// Oversized payload is refused before allocation.
	big := AppendFrame(nil, Frame{Type: TypeInsert, ReqID: 1, Payload: make([]byte, 1024)})
	if _, _, err := DecodeFrame(big, 512); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("too large: got %v", err)
	}
	if _, err := ReadFrame(bytes.NewReader(big), 512); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("too large (reader): got %v", err)
	}
}

func vals(vs ...storage.Value) []storage.Value { return vs }

func TestMessageRoundTrips(t *testing.T) {
	row := vals(storage.Int(42), storage.Str("alice"), storage.Float(9.5))

	check := func(name string, enc []byte, dec func([]byte) (any, error), want any) {
		t.Helper()
		got, err := dec(enc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: got %+v want %+v", name, got, want)
		}
		// Every codec must reject trailing garbage (catches silent
		// payload confusion between message types).
		if _, err := dec(append(append([]byte{}, enc...), 0x00)); err == nil {
			t.Fatalf("%s: trailing byte accepted", name)
		}
	}

	check("hello", Hello{Version: 3}.Encode(),
		func(b []byte) (any, error) { return DecodeHello(b) }, Hello{Version: 3})
	check("hello-ok", HelloOK{Version: 2, Mode: 2, MaxPayload: 1 << 20, MaxInFlight: 32}.Encode(),
		func(b []byte) (any, error) { return DecodeHelloOK(b) }, HelloOK{Version: 2, Mode: 2, MaxPayload: 1 << 20, MaxInFlight: 32})
	check("begin", BeginReq{ReadOnly: true, AtCID: 99}.Encode(),
		func(b []byte) (any, error) { return DecodeBeginReq(b) }, BeginReq{ReadOnly: true, AtCID: 99})
	check("begin-ok", BeginOK{Txn: 5, SnapshotCID: 77}.Encode(),
		func(b []byte) (any, error) { return DecodeBeginOK(b) }, BeginOK{Txn: 5, SnapshotCID: 77})
	check("txn", TxnReq{Txn: 12}.Encode(),
		func(b []byte) (any, error) { return DecodeTxnReq(b) }, TxnReq{Txn: 12})
	check("insert", InsertReq{Txn: 1, Table: "orders", Vals: row}.Encode(),
		func(b []byte) (any, error) { return DecodeInsertReq(b) }, InsertReq{Txn: 1, Table: "orders", Vals: row})
	check("update", UpdateReq{Txn: 1, Table: "orders", Row: 9, Vals: row}.Encode(),
		func(b []byte) (any, error) { return DecodeUpdateReq(b) }, UpdateReq{Txn: 1, Table: "orders", Row: 9, Vals: row})
	check("delete", DeleteReq{Txn: 1, Table: "orders", Row: 9}.Encode(),
		func(b []byte) (any, error) { return DecodeDeleteReq(b) }, DeleteReq{Txn: 1, Table: "orders", Row: 9})
	check("row-id", RowIDResp{Row: 123}.Encode(),
		func(b []byte) (any, error) { return DecodeRowIDResp(b) }, RowIDResp{Row: 123})
	check("get-row", RowReq{Txn: 2, Table: "t", Row: 3}.Encode(),
		func(b []byte) (any, error) { return DecodeRowReq(b) }, RowReq{Txn: 2, Table: "t", Row: 3})
	check("row", RowResp{Vals: row}.Encode(),
		func(b []byte) (any, error) { return DecodeRowResp(b) }, RowResp{Vals: row})
	sel := SelectReq{Txn: 4, Table: "orders", Preds: []Pred{
		{Col: "customer", Op: 0, Val: storage.Int(17)},
		{Col: "region", Op: 3, Val: storage.Str("eu")},
	}}
	check("select", sel.Encode(),
		func(b []byte) (any, error) { return DecodeSelectReq(b) }, sel)
	check("range", RangeReq{Txn: 4, Table: "t", Col: "id", Lo: storage.Int(1), Hi: storage.Int(10)}.Encode(),
		func(b []byte) (any, error) { return DecodeRangeReq(b) },
		RangeReq{Txn: 4, Table: "t", Col: "id", Lo: storage.Int(1), Hi: storage.Int(10)})
	check("row-ids", RowIDsResp{Rows: []uint64{1, 5, 9}}.Encode(),
		func(b []byte) (any, error) { return DecodeRowIDsResp(b) }, RowIDsResp{Rows: []uint64{1, 5, 9}})
	check("count", CountResp{N: 321}.Encode(),
		func(b []byte) (any, error) { return DecodeCountResp(b) }, CountResp{N: 321})
	ct := CreateTableReq{
		Name:    "orders",
		Cols:    []ColumnDef{{Name: "id", Type: 1}, {Name: "who", Type: 3}},
		Indexed: []string{"id"},
	}
	check("create-table", ct.Encode(),
		func(b []byte) (any, error) { return DecodeCreateTableReq(b) }, ct)
	tl := TablesResp{Tables: []TableStat{{Name: "a", ID: 1, MainRows: 10, DeltaRows: 2, Rows: 12}}}
	check("tables", tl.Encode(),
		func(b []byte) (any, error) { return DecodeTablesResp(b) }, tl)
	st := StatsResp{
		Mode: 2, Uptime: time.Minute, Recovery: 42 * time.Millisecond, TablesOpened: 3,
		CheckpointLoad: time.Millisecond, LogReplay: 2 * time.Millisecond,
		IndexRebuild: 3 * time.Millisecond, ReplayRecords: 100,
		RolledBack: 1, EntriesUndone: 5, NVMFlushes: 9, NVMFences: 8, NVMBytesUsed: 7,
	}
	check("stats", st.Encode(),
		func(b []byte) (any, error) { return DecodeStatsResp(b) }, st)
	check("error", ErrorResp{Code: CodeConflict, Msg: "boom"}.Encode(),
		func(b []byte) (any, error) { return DecodeErrorResp(b) }, ErrorResp{Code: CodeConflict, Msg: "boom"})
	batch := BatchReq{Txn: 3, Commit: true, Ops: []WriteOp{
		{Kind: WriteInsert, Table: "orders", Vals: row},
		{Kind: WriteUpdate, Table: "orders", Row: 9, Vals: row},
		{Kind: WriteDelete, Table: "orders", Row: 4},
	}}
	check("batch", batch.Encode(),
		func(b []byte) (any, error) { return DecodeBatchReq(b) }, batch)
	br := BatchResp{Txn: 3, SnapshotCID: 70, Rows: []uint64{11, 12}, Code: CodeConflict, Msg: "row 4"}
	check("batch-ok", br.Encode(),
		func(b []byte) (any, error) { return DecodeBatchResp(b) }, br)
}

func TestMessageDecodersRejectCorruptInput(t *testing.T) {
	// Every decoder must reject truncations of a valid encoding at every
	// length without panicking. (Empty payloads are valid for some
	// messages only when the encoding itself is empty.)
	msgs := map[string][]byte{
		"hello":        Hello{Version: 1}.Encode(),
		"insert":       InsertReq{Txn: 1, Table: "orders", Vals: vals(storage.Int(1), storage.Str("x"))}.Encode(),
		"select":       SelectReq{Txn: 1, Table: "t", Preds: []Pred{{Col: "c", Op: 1, Val: storage.Int(3)}}}.Encode(),
		"create-table": CreateTableReq{Name: "t", Cols: []ColumnDef{{Name: "c", Type: 1}}, Indexed: []string{"c"}}.Encode(),
		"tables":       TablesResp{Tables: []TableStat{{Name: "t", ID: 1, Rows: 2}}}.Encode(),
		"stats":        StatsResp{Mode: 1}.Encode(),
		"row-ids":      RowIDsResp{Rows: []uint64{1, 2, 3}}.Encode(),
		"batch": BatchReq{Txn: 1, Ops: []WriteOp{
			{Kind: WriteUpdate, Table: "t", Row: 2, Vals: vals(storage.Int(1))},
			{Kind: WriteDelete, Table: "t", Row: 3},
		}}.Encode(),
		"batch-ok": BatchResp{Txn: 1, Rows: []uint64{5}, Code: CodeConflict, Msg: "x"}.Encode(),
	}
	decs := map[string]func([]byte) error{
		"hello":        func(b []byte) error { _, err := DecodeHello(b); return err },
		"insert":       func(b []byte) error { _, err := DecodeInsertReq(b); return err },
		"select":       func(b []byte) error { _, err := DecodeSelectReq(b); return err },
		"create-table": func(b []byte) error { _, err := DecodeCreateTableReq(b); return err },
		"tables":       func(b []byte) error { _, err := DecodeTablesResp(b); return err },
		"stats":        func(b []byte) error { _, err := DecodeStatsResp(b); return err },
		"row-ids":      func(b []byte) error { _, err := DecodeRowIDsResp(b); return err },
		"batch":        func(b []byte) error { _, err := DecodeBatchReq(b); return err },
		"batch-ok":     func(b []byte) error { _, err := DecodeBatchResp(b); return err },
	}
	for name, enc := range msgs {
		for i := 0; i < len(enc); i++ {
			if err := decs[name](enc[:i]); err == nil {
				t.Fatalf("%s: truncation at %d accepted", name, i)
			}
		}
	}

	// Absurd element counts with tiny bodies must be rejected cheaply,
	// not allocated.
	huge := []byte{0xff, 0xff, 0xff, 0xff}
	if _, err := DecodeRowIDsResp(huge); err == nil {
		t.Fatal("row-ids: absurd count accepted")
	}
	if _, err := DecodeTablesResp(huge); err == nil {
		t.Fatal("tables: absurd count accepted")
	}

	// A write kind the codec does not know is refused, not skipped.
	b := BatchReq{Txn: 1, Ops: []WriteOp{{Kind: WriteDelete, Table: "t", Row: 1}}}.Encode()
	b[13] = 9 // the op's kind byte, after txn, commit and the count
	if _, err := DecodeBatchReq(b); err == nil {
		t.Fatal("batch: unknown write kind accepted")
	}
}

// TestHelloOKPayloadSize pins the hello-ok payload to its 11 bytes:
// every field is present whatever version was negotiated, and the 7-byte
// form of the retired version 1 no longer decodes.
func TestHelloOKPayloadSize(t *testing.T) {
	b := HelloOK{Version: 2, Mode: 1, MaxPayload: 4096, MaxInFlight: 99}.Encode()
	if len(b) != 11 {
		t.Fatalf("hello-ok payload is %d bytes, want 11", len(b))
	}
	if _, err := DecodeHelloOK(b[:7]); err == nil {
		t.Fatal("7-byte version-1 hello-ok decoded")
	}
}
