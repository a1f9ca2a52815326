// Package wire defines the binary client/server protocol of hyrisenv's
// network layer: a versioned, length-prefixed frame format with a CRC32
// payload checksum, plus the payload codecs for every request and
// response the server understands (see README.md in this directory for
// the framing spec).
//
// The protocol is pipelined: a client may have many requests in flight
// on one connection, each correlated with its response by the echoed
// request ID. The server executes a connection's requests one at a time
// and answers strictly in request order; a peer that writes one frame
// and waits is simply the depth-1 special case. All multi-byte
// integers are little-endian except the magic, which is the literal
// bytes "HNV1".
package wire

import (
	"bufio"
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
	// handshake and CodeOverloaded. Version 3 made batch the one request
	// that begins, writes to, commits or aborts a transaction, retired
	// the per-op transaction opcodes, and dropped HelloOK's advisory
	// pipeline depth.
	Version uint16 = 3

	// MinVersion is the oldest version either end still accepts; a
	// Hello below it is refused with CodeBadRequest.
	MinVersion uint16 = 3

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
// does not distinguish direction. The numbers are stable across
// versions: a client refused at the handshake must still read the
// refusal as an error frame. Numbers retired in version 3 (5–8 and
// 11–13: begin, begin-ok, commit, abort, update, delete, row-id) stay
// unassigned; a frame carrying one is answered bad-request.
const (
	TypeInvalid Type = 0

	// Handshake and liveness.
	TypeHello   Type = 1 // client → server: Hello payload
	TypeHelloOK Type = 2 // server → client: HelloOK payload
	TypePing    Type = 3 // empty payload
	TypePong    Type = 4 // empty payload

	TypeOK Type = 9 // empty generic success

	// TypeInsert is not a request: the server answers it bad-request. It
	// stays only as the frame the benchmark's codec timing encodes
	// (a ROADMAP item retires it).
	TypeInsert Type = 10

	// Reads.
	TypeGetRow  Type = 14 // RowReq → TypeRow
	TypeRow     Type = 15 // RowResp
	TypeSelect  Type = 16 // SelectReq → TypeRowIDs (empty Preds = full scan)
	TypeRange   Type = 17 // RangeReq → TypeRowIDs
	TypeRowIDs  Type = 18 // RowIDsResp
	TypeCount   Type = 19 // SelectReq → TypeCountOK
	TypeCountOK Type = 20 // CountResp

	// DDL and introspection.
	TypeCreateTable Type = 21 // CreateTableReq → TypeOK
	TypeTables      Type = 22 // empty → TypeTablesOK
	TypeTablesOK    Type = 23 // TablesResp
	TypeStats       Type = 24 // empty → TypeStatsOK
	TypeStatsOK     Type = 25 // StatsResp

	// Error reply (any request can receive one).
	TypeError Type = 26 // ErrorResp

	// The one transaction request: it begins, writes to, commits or
	// aborts a transaction.
	TypeBatch   Type = 27 // BatchReq → TypeBatchOK
	TypeBatchOK Type = 28 // BatchResp

	typeMax Type = 29 // sentinel; not a valid frame type
)

// String names the frame type.
func (t Type) String() string {
	names := [...]string{
		TypeInvalid: "invalid", TypeHello: "hello", TypeHelloOK: "hello-ok",
		TypePing: "ping", TypePong: "pong", TypeOK: "ok", TypeInsert: "insert",
		TypeGetRow: "get-row", TypeRow: "row", TypeSelect: "select",
		TypeRange: "range", TypeRowIDs: "row-ids", TypeCount: "count",
		TypeCountOK: "count-ok", TypeCreateTable: "create-table",
		TypeTables: "tables", TypeTablesOK: "tables-ok", TypeStats: "stats",
		TypeStatsOK: "stats-ok", TypeError: "error", TypeBatch: "batch",
		TypeBatchOK: "batch-ok",
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
	return append(appendHeader(dst, f), f.Payload...)
}

func appendHeader(dst []byte, f Frame) []byte {
	dst = append(dst, Magic[:]...)
	dst = append(dst, byte(f.Type), 0)
	dst = binary.LittleEndian.AppendUint64(dst, f.ReqID)
	dst = binary.LittleEndian.AppendUint32(dst, f.TimeoutMs)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(f.Payload)))
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(f.Payload))
}

// WriteFrame writes one frame to w. A *bufio.Writer takes the header
// and the payload straight into its buffer; any other writer gets the
// whole frame in one Write call.
func WriteFrame(w io.Writer, f Frame) error {
	if bw, ok := w.(*bufio.Writer); ok {
		// The header is built in the writer's free space: no copy and, but
		// for a nearly full buffer, no allocation.
		if _, err := bw.Write(appendHeader(bw.AvailableBuffer(), f)); err != nil {
			return err
		}
		_, err := bw.Write(f.Payload)
		return err
	}
	_, err := w.Write(AppendFrame(make([]byte, 0, HeaderSize+len(f.Payload)), f))
	return err
}

// parseHeader validates a frame header: magic, then type, then the
// payload length against maxPayload (0 = default). It returns the frame
// without its payload, the payload length and the payload checksum.
func parseHeader(hdr []byte, maxPayload uint32) (f Frame, plen, crc uint32, err error) {
	if maxPayload == 0 {
		maxPayload = DefaultMaxPayload
	}
	if [4]byte(hdr[:4]) != Magic {
		return Frame{}, 0, 0, ErrBadMagic
	}
	t := Type(hdr[4])
	if t == TypeInvalid || t >= typeMax {
		return Frame{}, 0, 0, fmt.Errorf("%w: %d", ErrBadType, hdr[4])
	}
	plen = binary.LittleEndian.Uint32(hdr[18:22])
	if plen > maxPayload {
		return Frame{}, 0, 0, fmt.Errorf("%w: %d > %d", ErrTooLarge, plen, maxPayload)
	}
	f = Frame{
		Type:      t,
		ReqID:     binary.LittleEndian.Uint64(hdr[6:14]),
		TimeoutMs: binary.LittleEndian.Uint32(hdr[14:18]),
	}
	return f, plen, binary.LittleEndian.Uint32(hdr[22:26]), nil
}

// DecodeFrame decodes one frame from the front of b, returning the frame
// and the number of bytes consumed. It never panics on corrupt input:
// truncated, oversized, mistyped or checksum-failing frames return an
// error (ErrTruncated when more bytes might complete the frame).
func DecodeFrame(b []byte, maxPayload uint32) (Frame, int, error) {
	if len(b) < HeaderSize {
		return Frame{}, 0, ErrTruncated
	}
	f, plen, crc, err := parseHeader(b[:HeaderSize], maxPayload)
	if err != nil {
		return Frame{}, 0, err
	}
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
// corrupt length field cannot force a large allocation. It reads no
// byte past the frame; a connection that carries a stream of frames
// reads them through a FrameReader instead.
func ReadFrame(r io.Reader, maxPayload uint32) (Frame, error) {
	var hdr [HeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Frame{}, err
	}
	f, plen, crc, err := parseHeader(hdr[:], maxPayload)
	if err != nil {
		return Frame{}, err
	}
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

// FrameReader reads a stream of frames through a read buffer, so a
// burst of small frames costs one read from the stream, not two per
// frame. A read that fails part-way through a frame — a net.Conn read
// deadline expiring — keeps what has arrived, and the next call to Next
// resumes the frame where it stopped: a timeout never desynchronizes
// the stream. After any other error the stream is unusable.
type FrameReader struct {
	br         *bufio.Reader
	maxPayload uint32

	// The frame whose payload is being read (Type 0 between frames), its
	// payload checksum and how many payload bytes have arrived.
	f   Frame
	crc uint32
	got int
}

// NewFrameReader returns a FrameReader over r that enforces maxPayload
// (0 = default).
func NewFrameReader(r io.Reader, maxPayload uint32) *FrameReader {
	return &FrameReader{br: bufio.NewReader(r), maxPayload: maxPayload}
}

// Next returns the next frame. Header validation happens before the
// payload is allocated, as in ReadFrame. A clean end of stream between
// frames is io.EOF; inside a header it is io.ErrUnexpectedEOF, inside a
// payload ErrTruncated.
func (r *FrameReader) Next() (Frame, error) {
	if r.f.Type == TypeInvalid {
		// The header stays in the buffer until all of it has arrived.
		hdr, err := r.br.Peek(HeaderSize)
		if err != nil {
			if err == io.EOF && len(hdr) > 0 {
				err = io.ErrUnexpectedEOF
			}
			return Frame{}, err
		}
		f, plen, crc, err := parseHeader(hdr, r.maxPayload)
		if err != nil {
			return Frame{}, err
		}
		r.br.Discard(HeaderSize) //nolint:errcheck — the bytes are buffered
		if plen > 0 {
			f.Payload = make([]byte, plen)
		}
		r.f, r.crc, r.got = f, crc, 0
	}
	for r.got < len(r.f.Payload) {
		n, err := r.br.Read(r.f.Payload[r.got:])
		r.got += n
		if err != nil {
			if err == io.EOF {
				err = ErrTruncated
			}
			return Frame{}, err
		}
	}
	f := r.f
	r.f = Frame{}
	if crc32.ChecksumIEEE(f.Payload) != r.crc {
		return Frame{}, ErrChecksum
	}
	return f, nil
}

// Ready reports whether the buffer already holds the rest of the next
// frame, so that Next returns without reading from the stream.
func (r *FrameReader) Ready() bool {
	n := r.br.Buffered()
	if r.f.Type != TypeInvalid {
		return n >= len(r.f.Payload)-r.got
	}
	if n < HeaderSize {
		return false
	}
	hdr, _ := r.br.Peek(HeaderSize)
	return n-HeaderSize >= int(binary.LittleEndian.Uint32(hdr[18:22]))
}
