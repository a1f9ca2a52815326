package wire

import (
	"encoding/binary"
	"fmt"
	"time"

	"hyrisenv/internal/storage"
)

// Error codes carried by TypeError frames. They are stable protocol
// values: clients map them back to sentinel errors.
const (
	CodeInternal     uint16 = 1  // unexpected server-side failure
	CodeBadRequest   uint16 = 2  // malformed payload or wrong frame type
	CodeNoSuchTable  uint16 = 3  // table name not in the catalog
	CodeTableExists  uint16 = 4  // CreateTable name collision
	CodeConflict     uint16 = 5  // write-write conflict; retry the txn
	CodeNotActive    uint16 = 6  // txn already committed/aborted
	CodeRowNotFound  uint16 = 7  // row not visible or already dead
	CodeEpochChanged uint16 = 8  // table merged since the txn read it
	CodeReadOnly     uint16 = 9  // write through a time-travel txn
	CodeDeadline     uint16 = 10 // request deadline exceeded
	CodeShuttingDown uint16 = 11 // server is draining; reconnect later
	CodeNoSuchTxn    uint16 = 12 // unknown txn handle on this connection
	CodeBadColumn    uint16 = 13 // predicate/schema names an unknown column
	CodeTooLarge     uint16 = 14 // request or response exceeds frame limit
	CodeOverloaded   uint16 = 15 // admission queue full; back off and retry
	CodeOutOfSpace   uint16 = 16 // persistent heap exhausted; writes fail, reads keep serving
)

// ---------------------------------------------------------------------------
// Payload reader: sticky-error cursor so codecs read fields linearly and
// check once at the end. Corrupt input yields ErrBadPayload, never a panic.

type reader struct {
	b   []byte
	bad bool
}

func (r *reader) fail() {
	r.bad = true
	r.b = nil
}

func (r *reader) take(n int) []byte {
	if r.bad || len(r.b) < n {
		r.fail()
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

func (r *reader) u8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *reader) u16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (r *reader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *reader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *reader) str() string {
	n := r.u32()
	if r.bad || uint64(n) > uint64(len(r.b)) {
		r.fail()
		return ""
	}
	return string(r.take(int(n)))
}

func (r *reader) val() storage.Value {
	if r.bad {
		return storage.Value{}
	}
	v, rest, err := storage.DecodeBinary(r.b)
	if err != nil {
		r.fail()
		return storage.Value{}
	}
	r.b = rest
	return v
}

func (r *reader) vals() []storage.Value {
	n := r.u32()
	if r.bad || uint64(n) > uint64(len(r.b)) { // each value is ≥ 1 byte
		r.fail()
		return nil
	}
	out := make([]storage.Value, 0, n)
	for i := uint32(0); i < n && !r.bad; i++ {
		out = append(out, r.val())
	}
	return out
}

// done validates that the payload was fully and exactly consumed.
func (r *reader) done() error {
	if r.bad {
		return ErrBadPayload
	}
	if len(r.b) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrBadPayload, len(r.b))
	}
	return nil
}

func appendStr(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(s)))
	return append(b, s...)
}

func appendVals(b []byte, vals []storage.Value) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(vals)))
	for _, v := range vals {
		b = v.AppendBinary(b)
	}
	return b
}

// ---------------------------------------------------------------------------
// Handshake.

// Hello opens a connection (client → server).
type Hello struct {
	Version uint16
}

// Encode serializes the message.
func (m Hello) Encode() []byte {
	return binary.LittleEndian.AppendUint16(nil, m.Version)
}

// DecodeHello parses a Hello payload.
func DecodeHello(b []byte) (Hello, error) {
	r := &reader{b: b}
	m := Hello{Version: r.u16()}
	return m, r.done()
}

// HelloOK acknowledges the handshake (server → client). Version is the
// negotiated protocol version — min(client, server).
type HelloOK struct {
	Version    uint16
	Mode       uint8  // durability mode of the serving engine (txn.Mode)
	MaxPayload uint32 // server's frame payload limit
}

// Encode serializes the message.
func (m HelloOK) Encode() []byte {
	b := binary.LittleEndian.AppendUint16(nil, m.Version)
	b = append(b, m.Mode)
	return binary.LittleEndian.AppendUint32(b, m.MaxPayload)
}

// DecodeHelloOK parses a HelloOK payload.
func DecodeHelloOK(b []byte) (HelloOK, error) {
	r := &reader{b: b}
	m := HelloOK{Version: r.u16(), Mode: r.u8(), MaxPayload: r.u32()}
	return m, r.done()
}

// RequestTxn returns the transaction handle request f names, 0 for none.
// Every request that can name one — the batch and the reads — carries
// it as its payload's first field.
func RequestTxn(f Frame) uint64 {
	switch f.Type {
	case TypeBatch, TypeGetRow, TypeSelect, TypeRange, TypeCount:
		if len(f.Payload) >= 8 {
			return binary.LittleEndian.Uint64(f.Payload)
		}
	case TypeInvalid, TypeHello, TypeHelloOK, TypePing, TypePong, TypeOK,
		TypeInsert, TypeRow, TypeRowIDs, TypeCountOK, TypeCreateTable,
		TypeTables, TypeTablesOK, TypeStats, TypeStatsOK, TypeError,
		TypeBatchOK:
	}
	return 0
}

// ---------------------------------------------------------------------------
// Writes.

// InsertReq is the payload of TypeInsert, which is not a request: it
// stays only as the payload the benchmark's codec timing encodes
// (ROADMAP item 7 retires it).
type InsertReq struct {
	Txn   uint64
	Table string
	Vals  []storage.Value
}

// Encode serializes the message.
func (m InsertReq) Encode() []byte {
	b := binary.LittleEndian.AppendUint64(nil, m.Txn)
	b = appendStr(b, m.Table)
	return appendVals(b, m.Vals)
}

// DecodeInsertReq parses an InsertReq payload. Like InsertReq, it stays
// only for the benchmark's codec timing (ROADMAP item 7 retires it).
func DecodeInsertReq(b []byte) (InsertReq, error) {
	r := &reader{b: b}
	m := InsertReq{Txn: r.u64(), Table: r.str(), Vals: r.vals()}
	return m, r.done()
}

// WriteKind names the write a WriteOp performs.
type WriteKind uint8

// Write kinds.
const (
	WriteInsert WriteKind = 1 // Table, Vals
	WriteUpdate WriteKind = 2 // Table, Row, Vals
	WriteDelete WriteKind = 3 // Table, Row
)

// WriteOp is one write of a batch. Fields its kind does not use are
// neither encoded nor decoded.
type WriteOp struct {
	Kind  WriteKind
	Table string
	Row   uint64
	Vals  []storage.Value
}

// The flags byte of a BatchReq, after its handle.
const (
	batchCommit  = 1 << 0 // commit after the last op
	batchAbort   = 1 << 1 // abort the named transaction; no ops
	batchBeginAt = 1 << 2 // begin read-only at the 8-byte CID that follows
	batchFlags   = batchCommit | batchAbort | batchBeginAt
)

// BatchReq is the one request that begins, writes to, commits or aborts
// a transaction. Txn 0 begins a transaction for the batch — read-write,
// or read-only at AtCID if ReadOnly is set — and the reply names it. The
// ops then run in order, and then the commit if Commit is set. Abort
// instead ends the transaction Txn names; it carries no ops. The decoder
// refuses Commit with Abort, Abort with ops or without a handle, and
// ReadOnly with a handle.
type BatchReq struct {
	Txn      uint64
	Commit   bool
	Abort    bool
	ReadOnly bool
	AtCID    uint64 // the read-only snapshot; clamped to the commit horizon
	Ops      []WriteOp
}

// Encode serializes the message.
func (m BatchReq) Encode() []byte {
	b := binary.LittleEndian.AppendUint64(nil, m.Txn)
	var flags byte
	if m.Commit {
		flags |= batchCommit
	}
	if m.Abort {
		flags |= batchAbort
	}
	if m.ReadOnly {
		flags |= batchBeginAt
	}
	b = append(b, flags)
	if m.ReadOnly {
		b = binary.LittleEndian.AppendUint64(b, m.AtCID)
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(m.Ops)))
	for _, op := range m.Ops {
		b = append(b, byte(op.Kind))
		b = appendStr(b, op.Table)
		if op.Kind != WriteInsert {
			b = binary.LittleEndian.AppendUint64(b, op.Row)
		}
		if op.Kind != WriteDelete {
			b = appendVals(b, op.Vals)
		}
	}
	return b
}

// DecodeBatchReq parses a BatchReq payload. An unknown flag or write
// kind, or flags that contradict each other or the handle, are
// ErrBadPayload.
func DecodeBatchReq(b []byte) (BatchReq, error) {
	r := &reader{b: b}
	m := BatchReq{Txn: r.u64()}
	flags := r.u8()
	m.Commit, m.Abort, m.ReadOnly = flags&batchCommit != 0, flags&batchAbort != 0, flags&batchBeginAt != 0
	if m.ReadOnly {
		m.AtCID = r.u64()
	}
	n := r.u32()
	if r.bad || uint64(n) > uint64(len(r.b)) { // each op is ≥ 1 byte
		return m, ErrBadPayload
	}
	if flags&^batchFlags != 0 || m.Commit && m.Abort || m.Abort && (n != 0 || m.Txn == 0) || m.ReadOnly && m.Txn != 0 {
		return m, fmt.Errorf("%w: batch flags %#x with handle %d and %d ops", ErrBadPayload, flags, m.Txn, n)
	}
	m.Ops = make([]WriteOp, 0, n)
	for i := uint32(0); i < n && !r.bad; i++ {
		op := WriteOp{Kind: WriteKind(r.u8()), Table: r.str()}
		switch op.Kind {
		case WriteInsert:
			op.Vals = r.vals()
		case WriteUpdate:
			op.Row, op.Vals = r.u64(), r.vals()
		case WriteDelete:
			op.Row = r.u64()
		default:
			r.fail()
		}
		m.Ops = append(m.Ops, op)
	}
	return m, r.done()
}

// BatchResp answers a BatchReq with the transaction's handle and
// snapshot, and one entry in Rows per op that ran: the row ID an insert
// or update wrote, 0 for a delete. Code 0 means every op ran, and the
// commit or abort too if one was asked for. Otherwise the op at index
// len(Rows) failed with Code and Msg — the commit's or abort's index is
// len(Ops) — and nothing after it ran.
type BatchResp struct {
	Txn         uint64
	SnapshotCID uint64
	Rows        []uint64
	Code        uint16
	Msg         string
}

// Encode serializes the message.
func (m BatchResp) Encode() []byte {
	b := binary.LittleEndian.AppendUint64(make([]byte, 0, 26+8*len(m.Rows)+len(m.Msg)), m.Txn)
	b = binary.LittleEndian.AppendUint64(b, m.SnapshotCID)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(m.Rows)))
	for _, r := range m.Rows {
		b = binary.LittleEndian.AppendUint64(b, r)
	}
	b = binary.LittleEndian.AppendUint16(b, m.Code)
	return appendStr(b, m.Msg)
}

// DecodeBatchResp parses a BatchResp payload.
func DecodeBatchResp(b []byte) (BatchResp, error) {
	r := &reader{b: b}
	m := BatchResp{Txn: r.u64(), SnapshotCID: r.u64()}
	n := r.u32()
	if r.bad || uint64(n)*8 > uint64(len(r.b)) {
		return m, ErrBadPayload
	}
	m.Rows = make([]uint64, 0, n)
	for i := uint32(0); i < n; i++ {
		m.Rows = append(m.Rows, r.u64())
	}
	m.Code, m.Msg = r.u16(), r.str()
	return m, r.done()
}

// ---------------------------------------------------------------------------
// Reads. Txn 0 means "auto": the server runs the read in a fresh
// read-only snapshot at the current commit horizon, making the request
// idempotent and safe for the client to retry on reconnect.

// RowReq materializes all columns of one row.
type RowReq struct {
	Txn   uint64
	Table string
	Row   uint64
}

// Encode serializes the message.
func (m RowReq) Encode() []byte {
	b := binary.LittleEndian.AppendUint64(nil, m.Txn)
	b = appendStr(b, m.Table)
	return binary.LittleEndian.AppendUint64(b, m.Row)
}

// DecodeRowReq parses a RowReq payload.
func DecodeRowReq(b []byte) (RowReq, error) {
	r := &reader{b: b}
	m := RowReq{Txn: r.u64(), Table: r.str(), Row: r.u64()}
	return m, r.done()
}

// RowResp carries one materialized row.
type RowResp struct {
	Vals []storage.Value
}

// Encode serializes the message.
func (m RowResp) Encode() []byte { return appendVals(nil, m.Vals) }

// DecodeRowResp parses a RowResp payload.
func DecodeRowResp(b []byte) (RowResp, error) {
	r := &reader{b: b}
	m := RowResp{Vals: r.vals()}
	return m, r.done()
}

// Pred is a single-column predicate.
type Pred struct {
	Col string
	Op  uint8 // query.Op numeric value
	Val storage.Value
}

// SelectReq scans a table for rows matching all predicates (empty =
// full visible scan). Also used for TypeCount.
type SelectReq struct {
	Txn   uint64
	Table string
	Preds []Pred
}

// Encode serializes the message.
func (m SelectReq) Encode() []byte {
	b := binary.LittleEndian.AppendUint64(nil, m.Txn)
	b = appendStr(b, m.Table)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(m.Preds)))
	for _, p := range m.Preds {
		b = appendStr(b, p.Col)
		b = append(b, p.Op)
		b = p.Val.AppendBinary(b)
	}
	return b
}

// DecodeSelectReq parses a SelectReq payload.
func DecodeSelectReq(b []byte) (SelectReq, error) {
	r := &reader{b: b}
	m := SelectReq{Txn: r.u64(), Table: r.str()}
	n := r.u32()
	if r.bad || uint64(n) > uint64(len(r.b)) {
		return m, ErrBadPayload
	}
	m.Preds = make([]Pred, 0, n)
	for i := uint32(0); i < n && !r.bad; i++ {
		m.Preds = append(m.Preds, Pred{Col: r.str(), Op: r.u8(), Val: r.val()})
	}
	return m, r.done()
}

// RangeReq selects rows whose column falls in [Lo, Hi).
type RangeReq struct {
	Txn    uint64
	Table  string
	Col    string
	Lo, Hi storage.Value
}

// Encode serializes the message.
func (m RangeReq) Encode() []byte {
	b := binary.LittleEndian.AppendUint64(nil, m.Txn)
	b = appendStr(b, m.Table)
	b = appendStr(b, m.Col)
	b = m.Lo.AppendBinary(b)
	return m.Hi.AppendBinary(b)
}

// DecodeRangeReq parses a RangeReq payload.
func DecodeRangeReq(b []byte) (RangeReq, error) {
	r := &reader{b: b}
	m := RangeReq{Txn: r.u64(), Table: r.str(), Col: r.str(), Lo: r.val(), Hi: r.val()}
	return m, r.done()
}

// RowIDsResp carries a result row-ID set.
type RowIDsResp struct {
	Rows []uint64
}

// Encode serializes the message.
func (m RowIDsResp) Encode() []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(m.Rows)))
	for _, r := range m.Rows {
		b = binary.LittleEndian.AppendUint64(b, r)
	}
	return b
}

// DecodeRowIDsResp parses a RowIDsResp payload.
func DecodeRowIDsResp(b []byte) (RowIDsResp, error) {
	r := &reader{b: b}
	n := r.u32()
	if r.bad || uint64(n)*8 > uint64(len(r.b)) {
		return RowIDsResp{}, ErrBadPayload
	}
	m := RowIDsResp{Rows: make([]uint64, 0, n)}
	for i := uint32(0); i < n; i++ {
		m.Rows = append(m.Rows, r.u64())
	}
	return m, r.done()
}

// CountResp returns a row count.
type CountResp struct {
	N uint64
}

// Encode serializes the message.
func (m CountResp) Encode() []byte {
	return binary.LittleEndian.AppendUint64(nil, m.N)
}

// DecodeCountResp parses a CountResp payload.
func DecodeCountResp(b []byte) (CountResp, error) {
	r := &reader{b: b}
	m := CountResp{N: r.u64()}
	return m, r.done()
}

// ---------------------------------------------------------------------------
// DDL and introspection.

// ColumnDef mirrors storage.ColumnDef on the wire.
type ColumnDef struct {
	Name string
	Type uint8 // storage.ColType
}

// CreateTableReq creates a table.
type CreateTableReq struct {
	Name    string
	Cols    []ColumnDef
	Indexed []string
}

// Encode serializes the message.
func (m CreateTableReq) Encode() []byte {
	b := appendStr(nil, m.Name)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(m.Cols)))
	for _, c := range m.Cols {
		b = appendStr(b, c.Name)
		b = append(b, c.Type)
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(m.Indexed)))
	for _, s := range m.Indexed {
		b = appendStr(b, s)
	}
	return b
}

// DecodeCreateTableReq parses a CreateTableReq payload.
func DecodeCreateTableReq(b []byte) (CreateTableReq, error) {
	r := &reader{b: b}
	m := CreateTableReq{Name: r.str()}
	nc := r.u32()
	if r.bad || uint64(nc) > uint64(len(r.b)) {
		return m, ErrBadPayload
	}
	m.Cols = make([]ColumnDef, 0, nc)
	for i := uint32(0); i < nc && !r.bad; i++ {
		m.Cols = append(m.Cols, ColumnDef{Name: r.str(), Type: r.u8()})
	}
	ni := r.u32()
	if r.bad || uint64(ni) > uint64(len(r.b)) {
		return m, ErrBadPayload
	}
	m.Indexed = make([]string, 0, ni)
	for i := uint32(0); i < ni && !r.bad; i++ {
		m.Indexed = append(m.Indexed, r.str())
	}
	return m, r.done()
}

// TableStat describes one table in a TablesResp.
type TableStat struct {
	Name      string
	ID        uint32
	MainRows  uint64
	DeltaRows uint64
	Rows      uint64
}

// TablesResp lists the catalog.
type TablesResp struct {
	Tables []TableStat
}

// Encode serializes the message.
func (m TablesResp) Encode() []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(m.Tables)))
	for _, t := range m.Tables {
		b = appendStr(b, t.Name)
		b = binary.LittleEndian.AppendUint32(b, t.ID)
		b = binary.LittleEndian.AppendUint64(b, t.MainRows)
		b = binary.LittleEndian.AppendUint64(b, t.DeltaRows)
		b = binary.LittleEndian.AppendUint64(b, t.Rows)
	}
	return b
}

// DecodeTablesResp parses a TablesResp payload.
func DecodeTablesResp(b []byte) (TablesResp, error) {
	r := &reader{b: b}
	n := r.u32()
	if r.bad || uint64(n) > uint64(len(r.b)) {
		return TablesResp{}, ErrBadPayload
	}
	m := TablesResp{Tables: make([]TableStat, 0, n)}
	for i := uint32(0); i < n && !r.bad; i++ {
		m.Tables = append(m.Tables, TableStat{
			Name: r.str(), ID: r.u32(),
			MainRows: r.u64(), DeltaRows: r.u64(), Rows: r.u64(),
		})
	}
	return m, r.done()
}

// StatsResp reports recovery and NVM statistics of the serving engine —
// the introspection surface the restart experiments read over the wire.
type StatsResp struct {
	Mode           uint8
	Uptime         time.Duration
	Recovery       time.Duration
	TablesOpened   uint32
	CheckpointLoad time.Duration
	LogReplay      time.Duration
	IndexRebuild   time.Duration
	ReplayRecords  uint32
	RolledBack     uint32
	EntriesUndone  uint32
	NVMFlushes     uint64
	NVMFences      uint64
	NVMBytesUsed   uint64
}

// Encode serializes the message.
func (m StatsResp) Encode() []byte {
	b := []byte{m.Mode}
	b = binary.LittleEndian.AppendUint64(b, uint64(m.Uptime))
	b = binary.LittleEndian.AppendUint64(b, uint64(m.Recovery))
	b = binary.LittleEndian.AppendUint32(b, m.TablesOpened)
	b = binary.LittleEndian.AppendUint64(b, uint64(m.CheckpointLoad))
	b = binary.LittleEndian.AppendUint64(b, uint64(m.LogReplay))
	b = binary.LittleEndian.AppendUint64(b, uint64(m.IndexRebuild))
	b = binary.LittleEndian.AppendUint32(b, m.ReplayRecords)
	b = binary.LittleEndian.AppendUint32(b, m.RolledBack)
	b = binary.LittleEndian.AppendUint32(b, m.EntriesUndone)
	b = binary.LittleEndian.AppendUint64(b, m.NVMFlushes)
	b = binary.LittleEndian.AppendUint64(b, m.NVMFences)
	return binary.LittleEndian.AppendUint64(b, m.NVMBytesUsed)
}

// DecodeStatsResp parses a StatsResp payload.
func DecodeStatsResp(b []byte) (StatsResp, error) {
	r := &reader{b: b}
	m := StatsResp{
		Mode:           r.u8(),
		Uptime:         time.Duration(r.u64()),
		Recovery:       time.Duration(r.u64()),
		TablesOpened:   r.u32(),
		CheckpointLoad: time.Duration(r.u64()),
		LogReplay:      time.Duration(r.u64()),
		IndexRebuild:   time.Duration(r.u64()),
		ReplayRecords:  r.u32(),
		RolledBack:     r.u32(),
		EntriesUndone:  r.u32(),
		NVMFlushes:     r.u64(),
		NVMFences:      r.u64(),
		NVMBytesUsed:   r.u64(),
	}
	return m, r.done()
}

// ---------------------------------------------------------------------------
// Errors.

// ErrorResp is the structured per-request error reply: the connection
// stays usable, only the failed request is affected.
type ErrorResp struct {
	Code uint16
	Msg  string
}

// Encode serializes the message.
func (m ErrorResp) Encode() []byte {
	b := binary.LittleEndian.AppendUint16(nil, m.Code)
	return appendStr(b, m.Msg)
}

// DecodeErrorResp parses an ErrorResp payload.
func DecodeErrorResp(b []byte) (ErrorResp, error) {
	r := &reader{b: b}
	m := ErrorResp{Code: r.u16(), Msg: r.str()}
	return m, r.done()
}
