package storage

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"hyrisenv/internal/mvcc"
	"hyrisenv/internal/vec"
)

// Binary checkpoints are the physical table dumps of the log-based
// baseline: the full main and delta partitions including MVCC stamps.
// They deliberately reproduce the conventional recovery architecture the
// paper compares against — restart cost is dominated by reading these
// dumps back and re-building volatile search structures.
//
// A checkpoint must be taken with row appends paused on the table (the
// engine holds the commit lock and the table's write lock); uncommitted
// rows are captured with begin = Inf and are stamped later by log replay
// if their transaction committed after the checkpoint.

const (
	ckptMagic   = 0x4859434b // "HYCK"
	ckptVersion = 1
)

// WriteCheckpoint serializes the table to w. Row appends are blocked
// for the duration so the dump is a point-in-time image.
func (t *Table) WriteCheckpoint(w io.Writer) error {
	t.writeMu.Lock()
	defer t.writeMu.Unlock()
	ps := t.parts.Load()

	bw := bufio.NewWriterSize(w, 1<<20)
	var scratch []byte
	u32 := func(v uint32) { scratch = binary.LittleEndian.AppendUint32(scratch[:0], v); bw.Write(scratch) }
	u64 := func(v uint64) { scratch = binary.LittleEndian.AppendUint64(scratch[:0], v); bw.Write(scratch) }
	blob := func(b []byte) { u32(uint32(len(b))); bw.Write(b) }

	u32(ckptMagic)
	u32(ckptVersion)
	blob([]byte(t.Name))
	u32(t.ID)
	u64(t.indexMask)
	blob(t.Schema.Marshal())

	ncols := t.Schema.NumCols()
	mr := ps.mainMVCC.Rows()
	dr := ps.deltaMVCC.Rows()
	u64(mr)
	u64(dr)

	for c := 0; c < ncols; c++ {
		m := ps.main[c]
		u64(m.DictLen())
		for id := uint64(0); id < m.DictLen(); id++ {
			blob(m.DictKey(id))
		}
		m.ScanIDs(func(_, id uint64) bool { u32(uint32(id)); return true })

		d := ps.delta[c]
		u64(d.DictLen())
		for id := uint64(0); id < d.DictLen(); id++ {
			blob(d.DictKey(id))
		}
		// Delta attribute vectors may momentarily be longer than the MVCC
		// row count; dump exactly dr entries.
		for r := uint64(0); r < dr; r++ {
			u32(uint32(d.ValueID(r)))
		}
	}

	dumpVec := func(v vec.Vec, n uint64) {
		for i := uint64(0); i < n; i++ {
			u64(v.Get(i))
		}
	}
	dumpVec(ps.mainMVCC.BeginVec(), mr)
	dumpVec(ps.mainMVCC.EndVec(), mr)
	dumpVec(ps.deltaMVCC.BeginVec(), dr)
	dumpVec(ps.deltaMVCC.EndVec(), dr)

	return bw.Flush()
}

// ReadCheckpoint reconstructs a volatile table from a checkpoint stream.
// This is the expensive part of log-based recovery: all column data is
// read, decoded and re-materialized, and the delta dictionary index (a
// hash map) is rebuilt from scratch.
//
// ReadCheckpoint consumes exactly one table's bytes from r — it must NOT
// buffer beyond them, because multiple tables are stored back to back in
// one checkpoint file. Callers provide their own buffered reader.
func ReadCheckpoint(br io.Reader) (*Table, error) {
	var scratch [8]byte
	u32 := func() (uint32, error) {
		if _, err := io.ReadFull(br, scratch[:4]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint32(scratch[:4]), nil
	}
	u64 := func() (uint64, error) {
		if _, err := io.ReadFull(br, scratch[:8]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(scratch[:8]), nil
	}
	blob := func() ([]byte, error) {
		n, err := u32()
		if err != nil {
			return nil, err
		}
		b := make([]byte, n)
		if _, err := io.ReadFull(br, b); err != nil {
			return nil, err
		}
		return b, nil
	}

	if m, err := u32(); err != nil || m != ckptMagic {
		return nil, fmt.Errorf("storage: bad checkpoint magic (err=%v)", err)
	}
	if v, err := u32(); err != nil || v != ckptVersion {
		return nil, fmt.Errorf("storage: unsupported checkpoint version (err=%v)", err)
	}
	nameB, err := blob()
	if err != nil {
		return nil, err
	}
	id, err := u32()
	if err != nil {
		return nil, err
	}
	mask, err := u64()
	if err != nil {
		return nil, err
	}
	schemaB, err := blob()
	if err != nil {
		return nil, err
	}
	schema, err := UnmarshalSchema(schemaB)
	if err != nil {
		return nil, err
	}
	mr, err := u64()
	if err != nil {
		return nil, err
	}
	dr, err := u64()
	if err != nil {
		return nil, err
	}

	t := &Table{Name: string(nameB), ID: id, Schema: schema, indexMask: mask}
	ncols := schema.NumCols()
	ps := &partitions{mainIdx: make([]mainIndex, ncols)}
	for c := 0; c < ncols; c++ {
		// Main partition.
		dictN, err := u64()
		if err != nil {
			return nil, err
		}
		dict := make([]string, dictN)
		for i := range dict {
			k, err := blob()
			if err != nil {
				return nil, err
			}
			dict[i] = string(k)
		}
		ids := make([]uint64, mr)
		for i := range ids {
			v, err := u32()
			if err != nil {
				return nil, err
			}
			ids[i] = uint64(v)
		}
		m, err := volatileMainFromParts(schema.Cols[c].Type, dict, ids)
		if err != nil {
			return nil, fmt.Errorf("storage: checkpoint main column %d: %w", c, err)
		}
		ps.main = append(ps.main, m)

		// Delta partition: rebuild the hash index while loading; the rows
		// of each value ID wait for RebuildIndexes.
		dDictN, err := u64()
		if err != nil {
			return nil, err
		}
		d := NewVolatileDelta(schema.Cols[c].Type, false)
		for i := uint64(0); i < dDictN; i++ {
			k, err := blob()
			if err != nil {
				return nil, err
			}
			if id := d.dictID(k); id != i {
				return nil, fmt.Errorf("storage: checkpoint delta dictionary of column %d repeats key %q (IDs %d and %d)", c, k, id, i)
			}
		}
		for r := uint64(0); r < dr; r++ {
			v, err := u32()
			if err != nil {
				return nil, err
			}
			if _, err := d.av.Append(uint64(v)); err != nil {
				return nil, err
			}
		}
		ps.delta = append(ps.delta, d)
	}

	loadVec := func(n uint64) (*vec.Volatile, error) {
		v := vec.NewVolatile(10)
		buf := make([]uint64, 0, 4096)
		for i := uint64(0); i < n; i++ {
			x, err := u64()
			if err != nil {
				return nil, err
			}
			buf = append(buf, x)
			if len(buf) == cap(buf) {
				if _, err := v.AppendN(buf); err != nil {
					return nil, err
				}
				buf = buf[:0]
			}
		}
		if _, err := v.AppendN(buf); err != nil {
			return nil, err
		}
		return v, nil
	}
	mb, err := loadVec(mr)
	if err != nil {
		return nil, err
	}
	me, err := loadVec(mr)
	if err != nil {
		return nil, err
	}
	db, err := loadVec(dr)
	if err != nil {
		return nil, err
	}
	de, err := loadVec(dr)
	if err != nil {
		return nil, err
	}
	ps.mainMVCC = newStoreFrom(mb, me)
	ps.deltaMVCC = newStoreFrom(db, de)
	t.parts.Store(ps)
	return t, nil
}

func newStoreFrom(begin, end *vec.Volatile) *mvcc.Store {
	return mvcc.NewStore(begin, end)
}
