// Package wire defines the binary client/server protocol of hyrisenv's
// network layer: a versioned, length-prefixed frame format with a CRC32
// payload checksum, plus the payload codecs for every request and
// response the server understands (see README.md in this directory for
// the framing spec).
//
// The protocol is pipelined: a client may have many requests in flight
// on one connection, each correlated with its response by the echoed
// request ID. The server decodes ahead into a bounded per-connection
// queue and answers strictly in request order; a peer that writes one
// frame and waits is simply the depth-1 special case. All multi-byte
// integers are little-endian except the magic, which is the literal
// bytes "HNV1".
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Protocol constants.
const (
	// Version is the newest protocol version this package speaks,
	// carried in Hello/HelloOK. Version 2 added request pipelining
	// (many tagged requests in flight per connection), the negotiated
	// handshake, the HelloOK MaxInFlight field, and CodeOverloaded.
	Version uint16 = 2

	// MinVersion is the oldest version either end still accepts; a
	// Hello below it is refused with CodeBadRequest.
	MinVersion uint16 = 2

	// HeaderSize is the fixed frame-header length in bytes.
	HeaderSize = 26

	// DefaultMaxPayload bounds a frame payload unless overridden; both
	// ends enforce it to keep a corrupt or hostile peer from forcing a
	// huge allocation.
	DefaultMaxPayload uint32 = 16 << 20
)

// Magic is the first four bytes of every frame.
var Magic = [4]byte{'H', 'N', 'V', '1'}

// Type identifies a frame.
type Type uint8

// Frame types. Requests and responses share one namespace; the header
// does not distinguish direction.
const (
	TypeInvalid Type = iota

	// Handshake and liveness.
	TypeHello   // client → server: Hello payload
	TypeHelloOK // server → client: HelloOK payload
	TypePing    // empty payload
	TypePong    // empty payload

	// Transaction control.
	TypeBegin   // BeginReq
	TypeBeginOK // BeginOK
	TypeCommit  // TxnReq
	TypeAbort   // TxnReq
	TypeOK      // empty generic success

	// Writes.
	TypeInsert // InsertReq → TypeRowID
	TypeUpdate // UpdateReq → TypeRowID
	TypeDelete // DeleteReq → TypeOK
	TypeRowID  // RowIDResp

	// Reads.
	TypeGetRow // RowReq → TypeRow
	TypeRow    // RowResp
	TypeSelect // SelectReq → TypeRowIDs (empty Preds = full scan)
	TypeRange  // RangeReq → TypeRowIDs
	TypeRowIDs // RowIDsResp
	TypeCount  // SelectReq → TypeCountOK
	TypeCountOK

	// DDL and introspection.
	TypeCreateTable // CreateTableReq → TypeOK
	TypeTables      // empty → TypeTablesOK
	TypeTablesOK    // TablesResp
	TypeStats       // empty → TypeStatsOK
	TypeStatsOK     // StatsResp

	// Error reply (any request can receive one).
	TypeError // ErrorResp

	typeMax // sentinel; not a valid frame type
)

// String names the frame type.
func (t Type) String() string {
	names := [...]string{
		TypeInvalid: "invalid", TypeHello: "hello", TypeHelloOK: "hello-ok",
		TypePing: "ping", TypePong: "pong", TypeBegin: "begin",
		TypeBeginOK: "begin-ok", TypeCommit: "commit", TypeAbort: "abort",
		TypeOK: "ok", TypeInsert: "insert", TypeUpdate: "update",
		TypeDelete: "delete", TypeRowID: "row-id", TypeGetRow: "get-row",
		TypeRow: "row", TypeSelect: "select", TypeRange: "range",
		TypeRowIDs: "row-ids", TypeCount: "count", TypeCountOK: "count-ok",
		TypeCreateTable: "create-table", TypeTables: "tables",
		TypeTablesOK: "tables-ok", TypeStats: "stats", TypeStatsOK: "stats-ok",
		TypeError: "error",
	}
	if int(t) < len(names) && names[t] != "" {
		return names[t]
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// Framing errors.
var (
	ErrBadMagic   = errors.New("wire: bad magic")
	ErrBadType    = errors.New("wire: unknown frame type")
	ErrTooLarge   = errors.New("wire: frame exceeds max payload")
	ErrChecksum   = errors.New("wire: payload checksum mismatch")
	ErrTruncated  = errors.New("wire: truncated frame")
	ErrBadPayload = errors.New("wire: malformed payload")
)

// Frame is one protocol message.
type Frame struct {
	Type Type
	// ReqID correlates a response with its request; the server echoes it.
	ReqID uint64
	// TimeoutMs is the client's per-request deadline in milliseconds
	// (0 = none). The server refuses work whose deadline has passed with
	// a CodeDeadline error frame instead of hanging the connection.
	TimeoutMs uint32
	Payload   []byte
}

// AppendFrame appends the encoded frame to dst and returns the result.
func AppendFrame(dst []byte, f Frame) []byte {
	dst = append(dst, Magic[:]...)
	dst = append(dst, byte(f.Type), 0)
	dst = binary.LittleEndian.AppendUint64(dst, f.ReqID)
	dst = binary.LittleEndian.AppendUint32(dst, f.TimeoutMs)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(f.Payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(f.Payload))
	return append(dst, f.Payload...)
}

// WriteFrame writes one frame to w.
func WriteFrame(w io.Writer, f Frame) error {
	buf := AppendFrame(make([]byte, 0, HeaderSize+len(f.Payload)), f)
	_, err := w.Write(buf)
	return err
}

// DecodeFrame decodes one frame from the front of b, returning the frame
// and the number of bytes consumed. It never panics on corrupt input:
// truncated, oversized, mistyped or checksum-failing frames return an
// error (ErrTruncated when more bytes might complete the frame).
func DecodeFrame(b []byte, maxPayload uint32) (Frame, int, error) {
	if maxPayload == 0 {
		maxPayload = DefaultMaxPayload
	}
	if len(b) < HeaderSize {
		return Frame{}, 0, ErrTruncated
	}
	if [4]byte(b[:4]) != Magic {
		return Frame{}, 0, ErrBadMagic
	}
	t := Type(b[4])
	if t == TypeInvalid || t >= typeMax {
		return Frame{}, 0, fmt.Errorf("%w: %d", ErrBadType, b[4])
	}
	f := Frame{
		Type:      t,
		ReqID:     binary.LittleEndian.Uint64(b[6:14]),
		TimeoutMs: binary.LittleEndian.Uint32(b[14:18]),
	}
	plen := binary.LittleEndian.Uint32(b[18:22])
	if plen > maxPayload {
		return Frame{}, 0, fmt.Errorf("%w: %d > %d", ErrTooLarge, plen, maxPayload)
	}
	crc := binary.LittleEndian.Uint32(b[22:26])
	total := HeaderSize + int(plen)
	if len(b) < total {
		return Frame{}, 0, ErrTruncated
	}
	payload := b[HeaderSize:total]
	if crc32.ChecksumIEEE(payload) != crc {
		return Frame{}, 0, ErrChecksum
	}
	f.Payload = payload
	return f, total, nil
}

// ReadFrame reads one frame from r, enforcing maxPayload (0 = default).
// Header validation happens before the payload is allocated, so a
// corrupt length field cannot force a large allocation.
func ReadFrame(r io.Reader, maxPayload uint32) (Frame, error) {
	if maxPayload == 0 {
		maxPayload = DefaultMaxPayload
	}
	var hdr [HeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Frame{}, err
	}
	if [4]byte(hdr[:4]) != Magic {
		return Frame{}, ErrBadMagic
	}
	t := Type(hdr[4])
	if t == TypeInvalid || t >= typeMax {
		return Frame{}, fmt.Errorf("%w: %d", ErrBadType, hdr[4])
	}
	plen := binary.LittleEndian.Uint32(hdr[18:22])
	if plen > maxPayload {
		return Frame{}, fmt.Errorf("%w: %d > %d", ErrTooLarge, plen, maxPayload)
	}
	f := Frame{
		Type:      t,
		ReqID:     binary.LittleEndian.Uint64(hdr[6:14]),
		TimeoutMs: binary.LittleEndian.Uint32(hdr[14:18]),
	}
	crc := binary.LittleEndian.Uint32(hdr[22:26])
	if plen > 0 {
		f.Payload = make([]byte, plen)
		if _, err := io.ReadFull(r, f.Payload); err != nil {
			return Frame{}, ErrTruncated
		}
	}
	if crc32.ChecksumIEEE(f.Payload) != crc {
		return Frame{}, ErrChecksum
	}
	return f, nil
}
