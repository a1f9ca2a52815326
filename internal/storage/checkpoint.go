package storage

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"hyrisenv/internal/index"
	"hyrisenv/internal/mvcc"
	"hyrisenv/internal/nvm"
	"hyrisenv/internal/pstruct"
)

// Binary checkpoints are the physical table dumps of the log-based
// baseline: the full main and delta partitions including MVCC stamps.
// They deliberately reproduce the conventional recovery architecture the
// paper compares against — restart cost is dominated by reading these
// dumps back and re-building the structures and their search indexes on
// a heap that does not persist.
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

	for _, s := range []*mvcc.Store{ps.mainMVCC, ps.deltaMVCC} {
		for _, stamp := range []func(row uint64) uint64{s.Begin, s.End} {
			for r := range s.Rows() {
				u64(stamp(r))
			}
		}
	}

	return bw.Flush()
}

// ReadCheckpoint reconstructs a table from a checkpoint stream onto the
// heap h. This is the expensive part of log-based recovery: all column
// data is read, decoded and re-materialized, the main columns rebuilt and
// the delta dictionary index rebuilt from scratch. The secondary indexes
// are left for RebuildIndexes.
//
// ReadCheckpoint consumes exactly one table's bytes from r — it must NOT
// buffer beyond them, because multiple tables are stored back to back in
// one checkpoint file. Callers provide their own buffered reader. No
// count in the stream sizes an allocation: a count larger than what the
// stream holds ends in an error when the stream does.
func ReadCheckpoint(h *nvm.Heap, r io.Reader) (*Table, error) {
	var scratch [8]byte
	u32 := func() (uint32, error) {
		if _, err := io.ReadFull(r, scratch[:4]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint32(scratch[:4]), nil
	}
	u64 := func() (uint64, error) {
		if _, err := io.ReadFull(r, scratch[:8]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(scratch[:8]), nil
	}
	blob := func() ([]byte, error) {
		n, err := u32()
		if err != nil {
			return nil, err
		}
		return readN(r, uint64(n))
	}
	// dict reads a dictionary of keys, each above the one before it if
	// sorted; ids reads n value IDs, each of which must name one of keys.
	dict := func(sorted bool) ([][]byte, error) {
		n, err := u64()
		if err != nil {
			return nil, err
		}
		var keys [][]byte
		for i := uint64(0); i < n; i++ {
			k, err := blob()
			if err != nil {
				return nil, err
			}
			if sorted && i > 0 && bytes.Compare(keys[i-1], k) >= 0 {
				return nil, fmt.Errorf("storage: checkpoint dictionary key %d is not above key %d", i, i-1)
			}
			keys = append(keys, k)
		}
		return keys, nil
	}
	ids := func(n uint64, keys [][]byte) ([]uint64, error) {
		var out []uint64
		for i := uint64(0); i < n; i++ {
			id, err := u32()
			if err != nil {
				return nil, err
			}
			if int(id) >= len(keys) {
				return nil, fmt.Errorf("storage: checkpoint row %d has value ID %d beyond its dictionary of %d", i, id, len(keys))
			}
			out = append(out, uint64(id))
		}
		return out, nil
	}
	stamps := func(n uint64) (*pstruct.Vector, error) {
		v, err := pstruct.NewVector(h, 8, 10)
		if err != nil {
			return nil, err
		}
		buf := make([]uint64, 0, 4096)
		for i := uint64(0); i < n; i++ {
			x, err := u64()
			if err != nil {
				return nil, err
			}
			if buf = append(buf, x); len(buf) == cap(buf) || i == n-1 {
				if _, err := v.AppendN(buf); err != nil {
					return nil, err
				}
				buf = buf[:0]
			}
		}
		return v, nil
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

	t := &Table{Name: string(nameB), ID: id, Schema: schema, indexMask: mask, h: h}
	ncols := schema.NumCols()
	main := make([]*NVMMain, ncols)
	delta := make([]*NVMDelta, ncols)
	for c, col := range schema.Cols {
		keys, err := dict(true)
		if err != nil {
			return nil, fmt.Errorf("storage: checkpoint main column %d: %w", c, err)
		}
		rowIDs, err := ids(mr, keys)
		if err != nil {
			return nil, fmt.Errorf("storage: checkpoint main column %d: %w", c, err)
		}
		if main[c], err = nvmMainFromParts(h, col.Type, keys, rowIDs); err != nil {
			return nil, fmt.Errorf("storage: checkpoint main column %d: %w", c, err)
		}

		// The delta's dictionary index is rebuilt as its keys load; its
		// posting lists wait for RebuildIndexes.
		if keys, err = dict(false); err != nil {
			return nil, err
		}
		if rowIDs, err = ids(dr, keys); err != nil {
			return nil, fmt.Errorf("storage: checkpoint delta column %d: %w", c, err)
		}
		if delta[c], err = NewNVMDelta(h, col.Type, false); err != nil {
			return nil, err
		}
		if err := delta[c].load(keys, rowIDs); err != nil {
			return nil, fmt.Errorf("storage: checkpoint delta column %d: %w", c, err)
		}
	}

	var vecs [4]*pstruct.Vector
	for i, n := range []uint64{mr, mr, dr, dr} {
		if vecs[i], err = stamps(n); err != nil {
			return nil, err
		}
	}
	ps, err := t.writePartitionSet(main, delta, make([]*index.NVMGroupKey, ncols), vecs)
	if err != nil {
		return nil, err
	}
	if err := t.writeRoot(ps); err != nil {
		return nil, err
	}
	return t, nil
}

// readN reads exactly n bytes from r into a buffer that grows with what
// arrives, so that a count beyond the stream's end costs an error, not
// its allocation.
func readN(r io.Reader, n uint64) ([]byte, error) {
	var b []byte
	for uint64(len(b)) < n {
		step := int(min(n-uint64(len(b)), max(uint64(len(b)), 4096)))
		b = slices.Grow(b, step)
		if _, err := io.ReadFull(r, b[len(b):len(b)+step]); err != nil {
			return nil, err
		}
		b = b[:len(b)+step]
	}
	return b, nil
}
