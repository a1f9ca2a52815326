// Package wal implements the durability substrate of the log-based
// baseline engine: redo-only write-ahead logging, CRC-protected records,
// binary checkpoints and replay-based recovery. Group commit lives one
// layer up, in the transaction manager's commit batcher.
// It deliberately reproduces the architecture whose restart the paper
// measures at ~53 s for a 92.2 GB dataset.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"hyrisenv/internal/storage"
)

// Record types.
const (
	RecInsert      = 1 // txn inserts a row (logged at commit)
	RecInvalidate  = 2 // txn invalidates a row
	RecCommit      = 3 // txn committed with a CID
	RecCreateTable = 4 // DDL: create table (auto-committed)
)

// Op is a decoded log operation.
type Op struct {
	Type      uint8
	Txn       uint64
	Table     uint32
	Row       uint64
	Vals      []storage.Value // RecInsert
	CID       uint64          // RecCommit
	Name      string          // RecCreateTable
	Sch       storage.Schema  // RecCreateTable
	IndexMask uint64          // RecCreateTable
}

// EncodeInsert serializes an insert operation record.
func EncodeInsert(txn uint64, table uint32, row uint64, vals []storage.Value) []byte {
	b := []byte{RecInsert}
	b = binary.LittleEndian.AppendUint64(b, txn)
	b = binary.LittleEndian.AppendUint32(b, table)
	b = binary.LittleEndian.AppendUint64(b, row)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(vals)))
	for _, v := range vals {
		b = v.AppendBinary(b)
	}
	return frame(b)
}

// EncodeInvalidate serializes an invalidate operation record.
func EncodeInvalidate(txn uint64, table uint32, row uint64) []byte {
	b := []byte{RecInvalidate}
	b = binary.LittleEndian.AppendUint64(b, txn)
	b = binary.LittleEndian.AppendUint32(b, table)
	b = binary.LittleEndian.AppendUint64(b, row)
	return frame(b)
}

// EncodeCommit serializes a commit record.
func EncodeCommit(txn uint64, cid uint64) []byte {
	b := []byte{RecCommit}
	b = binary.LittleEndian.AppendUint64(b, txn)
	b = binary.LittleEndian.AppendUint64(b, cid)
	return frame(b)
}

// EncodeCreateTable serializes a create-table record.
func EncodeCreateTable(table uint32, name string, sch storage.Schema, indexMask uint64) []byte {
	b := []byte{RecCreateTable}
	b = binary.LittleEndian.AppendUint32(b, table)
	b = binary.LittleEndian.AppendUint64(b, indexMask)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(name)))
	b = append(b, name...)
	sm := sch.Marshal()
	b = binary.LittleEndian.AppendUint32(b, uint32(len(sm)))
	b = append(b, sm...)
	return frame(b)
}

// frame wraps a payload as length u32 | crc u32 | payload.
func frame(payload []byte) []byte {
	out := make([]byte, 8, 8+len(payload))
	binary.LittleEndian.PutUint32(out, uint32(len(payload)))
	binary.LittleEndian.PutUint32(out[4:], crc32.ChecksumIEEE(payload))
	return append(out, payload...)
}

// decodePayload parses a verified record payload.
func decodePayload(p []byte) (Op, error) {
	if len(p) < 1 {
		return Op{}, fmt.Errorf("wal: empty record")
	}
	op := Op{Type: p[0]}
	b := p[1:]
	need := func(n int) error {
		if len(b) < n {
			return fmt.Errorf("wal: truncated record type %d", op.Type)
		}
		return nil
	}
	switch op.Type {
	case RecInsert:
		if err := need(22); err != nil {
			return Op{}, err
		}
		op.Txn = binary.LittleEndian.Uint64(b)
		op.Table = binary.LittleEndian.Uint32(b[8:])
		op.Row = binary.LittleEndian.Uint64(b[12:])
		n := binary.LittleEndian.Uint16(b[20:])
		b = b[22:]
		op.Vals = make([]storage.Value, 0, n)
		for i := 0; i < int(n); i++ {
			v, rest, err := storage.DecodeBinary(b)
			if err != nil {
				return Op{}, err
			}
			op.Vals = append(op.Vals, v)
			b = rest
		}
	case RecInvalidate:
		if err := need(20); err != nil {
			return Op{}, err
		}
		op.Txn = binary.LittleEndian.Uint64(b)
		op.Table = binary.LittleEndian.Uint32(b[8:])
		op.Row = binary.LittleEndian.Uint64(b[12:])
	case RecCommit:
		if err := need(16); err != nil {
			return Op{}, err
		}
		op.Txn = binary.LittleEndian.Uint64(b)
		op.CID = binary.LittleEndian.Uint64(b[8:])
	case RecCreateTable:
		if err := need(14); err != nil {
			return Op{}, err
		}
		op.Table = binary.LittleEndian.Uint32(b)
		op.IndexMask = binary.LittleEndian.Uint64(b[4:])
		nl := binary.LittleEndian.Uint16(b[12:])
		b = b[14:]
		if err := need(int(nl) + 4); err != nil {
			return Op{}, err
		}
		op.Name = string(b[:nl])
		b = b[nl:]
		sl := binary.LittleEndian.Uint32(b)
		b = b[4:]
		if err := need(int(sl)); err != nil {
			return Op{}, err
		}
		sch, err := storage.UnmarshalSchema(b[:sl])
		if err != nil {
			return Op{}, err
		}
		op.Sch = sch
	default:
		return Op{}, fmt.Errorf("wal: unknown record type %d", op.Type)
	}
	return op, nil
}
