package wire

import (
	"bytes"
	"io"
	"testing"

	"hyrisenv/internal/storage"
)

// FuzzDecodeFrame asserts the decoder's safety contract: arbitrary
// bytes never panic, never over-consume, and anything that decodes
// re-encodes to a frame the decoder accepts again. The payload codecs
// are chained behind the frame decode so corrupt payloads of every
// message type are exercised too.
func FuzzDecodeFrame(f *testing.F) {
	// Seed with valid frames of several types so the fuzzer starts from
	// the interesting part of the input space.
	seed := [][]byte{
		AppendFrame(nil, Frame{Type: TypePing, ReqID: 1}),
		AppendFrame(nil, Frame{Type: TypeHello, ReqID: 2, Payload: Hello{Version: Version}.Encode()}),
		AppendFrame(nil, Frame{Type: TypeInsert, ReqID: 3, TimeoutMs: 250, Payload: InsertReq{
			Txn: 9, Table: "orders",
			Vals: []storage.Value{storage.Int(1), storage.Str("alice"), storage.Float(2.5)},
		}.Encode()}),
		AppendFrame(nil, Frame{Type: TypeSelect, ReqID: 4, Payload: SelectReq{
			Table: "orders",
			Preds: []Pred{{Col: "id", Op: 2, Val: storage.Int(5)}},
		}.Encode()}),
		AppendFrame(nil, Frame{Type: TypeCreateTable, ReqID: 5, Payload: CreateTableReq{
			Name: "t", Cols: []ColumnDef{{Name: "id", Type: 1}}, Indexed: []string{"id"},
		}.Encode()}),
		AppendFrame(nil, Frame{Type: TypeError, ReqID: 6, Payload: ErrorResp{Code: CodeConflict, Msg: "x"}.Encode()}),
		AppendFrame(nil, Frame{Type: TypeBatch, ReqID: 7, TimeoutMs: 250, Payload: BatchReq{Commit: true, Ops: []WriteOp{
			{Kind: WriteInsert, Table: "orders", Vals: []storage.Value{storage.Int(1), storage.Str("bob")}},
			{Kind: WriteUpdate, Table: "orders", Row: 3, Vals: []storage.Value{storage.Float(0.5)}},
			{Kind: WriteDelete, Table: "orders", Row: 4},
		}}.Encode()}),
		AppendFrame(nil, Frame{Type: TypeBatch, ReqID: 8, Payload: BatchReq{Txn: 2, Abort: true}.Encode()}),
		AppendFrame(nil, Frame{Type: TypeBatch, ReqID: 9, Payload: BatchReq{ReadOnly: true, AtCID: 17, Ops: []WriteOp{
			{Kind: WriteDelete, Table: "orders", Row: 4},
		}}.Encode()}),
		AppendFrame(nil, Frame{Type: TypeBatch, ReqID: 10, Payload: BatchReq{ReadOnly: true, Commit: true}.Encode()}),
		AppendFrame(nil, Frame{Type: TypeBatchOK, ReqID: 7, Payload: BatchResp{
			Txn: 1, SnapshotCID: 9, Rows: []uint64{5, 6}, Code: CodeConflict, Msg: "row 4",
		}.Encode()}),
		{0x48, 0x4e, 0x56, 0x31}, // bare magic
		bytes.Repeat([]byte{0xff}, HeaderSize+4),
	}
	for _, s := range seed {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		frame, n, err := DecodeFrame(data, 1<<20)
		if err != nil {
			return // rejected without panicking: contract satisfied
		}
		if n < HeaderSize || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}

		// Whatever decoded must survive a re-encode/re-decode cycle.
		re := AppendFrame(nil, frame)
		frame2, _, err := DecodeFrame(re, 1<<20)
		if err != nil {
			t.Fatalf("re-decode of valid frame failed: %v", err)
		}
		if frame2.Type != frame.Type || frame2.ReqID != frame.ReqID ||
			frame2.TimeoutMs != frame.TimeoutMs || !bytes.Equal(frame2.Payload, frame.Payload) {
			t.Fatalf("re-decode mismatch: %+v vs %+v", frame2, frame)
		}

		// Chain the payload codecs: they may reject, but must not panic
		// or accept trailing garbage silently.
		p := frame.Payload
		switch frame.Type {
		case TypeHello:
			DecodeHello(p) //nolint:errcheck
		case TypeHelloOK:
			DecodeHelloOK(p) //nolint:errcheck
		case TypeInsert:
			DecodeInsertReq(p) //nolint:errcheck
		case TypeGetRow:
			DecodeRowReq(p) //nolint:errcheck
		case TypeRow:
			DecodeRowResp(p) //nolint:errcheck
		case TypeSelect, TypeCount:
			DecodeSelectReq(p) //nolint:errcheck
		case TypeRange:
			DecodeRangeReq(p) //nolint:errcheck
		case TypeRowIDs:
			DecodeRowIDsResp(p) //nolint:errcheck
		case TypeCountOK:
			DecodeCountResp(p) //nolint:errcheck
		case TypeCreateTable:
			DecodeCreateTableReq(p) //nolint:errcheck
		case TypeTablesOK:
			DecodeTablesResp(p) //nolint:errcheck
		case TypeStatsOK:
			DecodeStatsResp(p) //nolint:errcheck
		case TypeError:
			DecodeErrorResp(p) //nolint:errcheck
		case TypeBatch:
			DecodeBatchReq(p) //nolint:errcheck
		case TypeBatchOK:
			DecodeBatchResp(p) //nolint:errcheck
		}
	})
}

// FuzzReadFrame covers the streaming readers: arbitrary byte streams —
// including short reads at every boundary — must never panic, and any
// frame ReadFrame accepts must agree with the in-place decoder. The
// buffered FrameReader gets the same stream in chunks with a read
// timeout before each; resuming after every timeout, it must return the
// frames that decoding the stream in place one after another returns.
func FuzzReadFrame(f *testing.F) {
	f.Add(AppendFrame(nil, Frame{Type: TypePing, ReqID: 1}), 1)
	f.Add(AppendFrame(nil, Frame{Type: TypeError, ReqID: 2,
		Payload: ErrorResp{Code: CodeInternal, Msg: "boom"}.Encode()}), 3)
	f.Add(bytes.Repeat([]byte{0xff}, HeaderSize*2), 2)
	f.Add(append(AppendFrame(nil, Frame{Type: TypePong, ReqID: 3}),
		AppendFrame(nil, Frame{Type: TypeRowIDs, ReqID: 4, Payload: RowIDsResp{Rows: []uint64{5}}.Encode()})...), 5)

	f.Fuzz(func(t *testing.T, data []byte, chunk int) {
		if chunk < 1 {
			chunk = 1
		}
		if frame, err := ReadFrame(iotest(data, chunk), 1<<20); err == nil {
			ref, _, err := DecodeFrame(data, 1<<20)
			if err != nil {
				t.Fatalf("ReadFrame accepted what DecodeFrame rejects: %v", err)
			}
			if frame.Type != ref.Type || frame.ReqID != ref.ReqID ||
				frame.TimeoutMs != ref.TimeoutMs || !bytes.Equal(frame.Payload, ref.Payload) {
				t.Fatalf("stream/in-place mismatch: %+v vs %+v", frame, ref)
			}
		}

		fr := NewFrameReader(&stallReader{data: data, chunk: chunk}, 1<<20)
		for rest := data; ; {
			frame, err := nextThroughStalls(t, fr, 2*len(data)+4)
			ref, n, rerr := DecodeFrame(rest, 1<<20)
			if rerr != nil {
				if err == nil {
					t.Fatalf("FrameReader accepted what DecodeFrame rejects: %v", rerr)
				}
				return
			}
			if err != nil {
				t.Fatalf("FrameReader rejected what DecodeFrame accepts: %v", err)
			}
			if frame.Type != ref.Type || frame.ReqID != ref.ReqID ||
				frame.TimeoutMs != ref.TimeoutMs || !bytes.Equal(frame.Payload, ref.Payload) {
				t.Fatalf("buffered/in-place mismatch: %+v vs %+v", frame, ref)
			}
			rest = rest[n:]
		}
	})
}

// iotest returns a reader delivering data in chunk-sized pieces so the
// fuzzer exercises short reads on every header and payload boundary.
func iotest(data []byte, chunk int) io.Reader {
	return &chunkReader{data: data, chunk: chunk}
}

type chunkReader struct {
	data  []byte
	chunk int
}

func (r *chunkReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	n := r.chunk
	if n > len(r.data) {
		n = len(r.data)
	}
	if n > len(p) {
		n = len(p)
	}
	copy(p, r.data[:n])
	r.data = r.data[n:]
	return n, nil
}
