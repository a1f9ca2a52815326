package wal

import (
	"bufio"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"hyrisenv/internal/disk"
	"hyrisenv/internal/nvm"
	"hyrisenv/internal/storage"
)

// Manager owns the on-disk layout of the log-based engine:
//
//	dir/CURRENT        — text file naming the live checkpoint sequence
//	dir/ckpt-%06d      — binary checkpoint (all tables + commit state)
//	dir/wal-%06d.log   — the log segment opened at that checkpoint
//
// A checkpoint atomically supersedes the previous segment pair via the
// CURRENT rename, after which older files are garbage.
type Manager struct {
	dir      string
	model    disk.Model
	compress bool
}

// NewManager creates a manager for dir (created if missing).
func NewManager(dir string, model disk.Model) (*Manager, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: mkdir %s: %w", dir, err)
	}
	return &Manager{dir: dir, model: model}, nil
}

// SetCompression enables flate-compressed checkpoints. Recovery is
// self-describing (the checkpoint magic distinguishes the formats), so
// the setting may change between restarts. Compression trades CPU for
// checkpoint bytes — a win when the disk, not the CPU, bounds recovery
// (the regime of the paper's 92.2 GB / 53 s measurement).
func (m *Manager) SetCompression(on bool) { m.compress = on }

func (m *Manager) ckptPath(seq uint64) string {
	return filepath.Join(m.dir, fmt.Sprintf("ckpt-%06d", seq))
}

func (m *Manager) logPath(seq uint64) string {
	return filepath.Join(m.dir, fmt.Sprintf("wal-%06d.log", seq))
}

func (m *Manager) currentPath() string { return filepath.Join(m.dir, "CURRENT") }

// currentSeq reads the live sequence; 0 with ok=false when none exists
// (a fresh database).
func (m *Manager) currentSeq() (uint64, bool, error) {
	b, err := os.ReadFile(m.currentPath())
	if os.IsNotExist(err) {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, err
	}
	seq, err := strconv.ParseUint(strings.TrimSpace(string(b)), 10, 64)
	if err != nil {
		return 0, false, fmt.Errorf("wal: corrupt CURRENT: %w", err)
	}
	return seq, true, nil
}

func (m *Manager) setCurrent(seq uint64) error {
	tmp := m.currentPath() + ".tmp"
	if err := os.WriteFile(tmp, []byte(strconv.FormatUint(seq, 10)+"\n"), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, m.currentPath())
}

// Checkpoint file header.
const (
	ckptAllMagic     = 0x4859434c // "HYCL": plain table streams
	ckptAllMagicFlat = 0x4859435a // "HYCZ": flate-compressed table streams
	ckptAllVersion   = 1
)

// WriteCheckpoint dumps all tables plus commit state as checkpoint
// seq+1, opens the matching fresh log segment, publishes it via CURRENT
// and returns a Writer on the new segment. The previous segment pair is
// removed. The caller must have quiesced commits and appends.
func (m *Manager) WriteCheckpoint(tables []*storage.Table, lastCID uint64, nextTableID uint32) (*Writer, uint64, error) {
	oldSeq, has, err := m.currentSeq()
	if err != nil {
		return nil, 0, err
	}
	seq := uint64(1)
	if has {
		seq = oldSeq + 1
	}

	dev, err := disk.Open(m.ckptPath(seq), m.model)
	if err != nil {
		return nil, 0, err
	}
	w := dev.SequentialWriter(0)
	magicWord := uint32(ckptAllMagic)
	if m.compress {
		magicWord = ckptAllMagicFlat
	}
	var hdr []byte
	hdr = binary.LittleEndian.AppendUint32(hdr, magicWord)
	hdr = binary.LittleEndian.AppendUint32(hdr, ckptAllVersion)
	hdr = binary.LittleEndian.AppendUint64(hdr, lastCID)
	hdr = binary.LittleEndian.AppendUint32(hdr, nextTableID)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(tables)))
	if _, err := w.Write(hdr); err != nil {
		dev.Close()
		return nil, 0, err
	}
	var body io.Writer = w
	var fw *flate.Writer
	if m.compress {
		var err error
		fw, err = flate.NewWriter(w, flate.BestSpeed)
		if err != nil {
			dev.Close()
			return nil, 0, err
		}
		body = fw
	}
	for _, t := range tables {
		if err := t.WriteCheckpoint(body); err != nil {
			dev.Close()
			return nil, 0, err
		}
	}
	if fw != nil {
		if err := fw.Close(); err != nil {
			dev.Close()
			return nil, 0, err
		}
	}
	if err := dev.Sync(); err != nil {
		dev.Close()
		return nil, 0, err
	}
	if err := dev.Close(); err != nil {
		return nil, 0, err
	}

	// Fresh log segment for the new epoch.
	logDev, err := disk.Open(m.logPath(seq), m.model)
	if err != nil {
		return nil, 0, err
	}
	if err := logDev.Truncate(0); err != nil {
		logDev.Close()
		return nil, 0, err
	}
	if err := m.setCurrent(seq); err != nil {
		logDev.Close()
		return nil, 0, err
	}
	if has {
		os.Remove(m.ckptPath(oldSeq))
		os.Remove(m.logPath(oldSeq))
	}
	return NewWriter(logDev, 0), seq, nil
}

// RecoveryResult is the rebuilt database state.
type RecoveryResult struct {
	Tables      map[uint32]*storage.Table
	LastCID     uint64
	NextTableID uint32
	// Where the restart time went — the breakdown the paper's recovery
	// figure decomposes. The bytes replayed are ValidLogBytes.
	CheckpointBytes uint64
	CheckpointTime  time.Duration
	ReplayRecords   int
	ReplayTime      time.Duration
	// LogSeq and ValidLogBytes tell the engine where to resume logging:
	// the segment must be truncated to the valid prefix.
	LogSeq        uint64
	ValidLogBytes uint64
	HasState      bool
}

// Recover loads the live checkpoint (if any) and replays the matching
// log segment, reconstructing all tables on the heap h, which does not
// persist. Cost is proportional to data size — the behaviour the paper
// contrasts with NVM restarts.
func (m *Manager) Recover(h *nvm.Heap) (*RecoveryResult, error) {
	res := &RecoveryResult{Tables: map[uint32]*storage.Table{}, NextTableID: 1}
	seq, has, err := m.currentSeq()
	if err != nil {
		return nil, err
	}
	if !has {
		return res, nil // fresh database
	}
	res.HasState = true
	res.LogSeq = seq

	// Phase 1: checkpoint load.
	start := time.Now()
	ckDev, err := disk.Open(m.ckptPath(seq), m.model)
	if err != nil {
		return nil, fmt.Errorf("wal: open checkpoint: %w", err)
	}
	cr := bufio.NewReaderSize(ckDev.SequentialReader(0), 1<<20)
	var hdr [24]byte
	if _, err := io.ReadFull(cr, hdr[:]); err != nil {
		ckDev.Close()
		return nil, fmt.Errorf("wal: checkpoint header: %w", err)
	}
	var body io.Reader = cr
	switch binary.LittleEndian.Uint32(hdr[:]) {
	case ckptAllMagic:
	case ckptAllMagicFlat:
		body = flate.NewReader(cr)
	default:
		ckDev.Close()
		return nil, fmt.Errorf("wal: bad checkpoint magic")
	}
	if binary.LittleEndian.Uint32(hdr[4:]) != ckptAllVersion {
		ckDev.Close()
		return nil, fmt.Errorf("wal: bad checkpoint version")
	}
	res.LastCID = binary.LittleEndian.Uint64(hdr[8:])
	res.NextTableID = binary.LittleEndian.Uint32(hdr[16:])
	nTables := binary.LittleEndian.Uint32(hdr[20:])
	for i := uint32(0); i < nTables; i++ {
		t, err := storage.ReadCheckpoint(h, body)
		if err != nil {
			ckDev.Close()
			return nil, fmt.Errorf("wal: checkpoint table %d: %w", i, err)
		}
		res.Tables[t.ID] = t
	}
	if sz, err := ckDev.Size(); err == nil {
		res.CheckpointBytes = uint64(sz)
	}
	ckDev.Close()
	res.CheckpointTime = time.Since(start)

	// Phase 2: log replay.
	start = time.Now()
	logDev, err := disk.Open(m.logPath(seq), m.model)
	if err != nil {
		return nil, fmt.Errorf("wal: open log: %w", err)
	}
	defer logDev.Close()
	lr := logDev.SequentialReader(0)
	replayer := newReplayer(h, res.Tables)
	n, valid, err := ReadRecords(lr, func(op Op) error {
		return replayer.apply(op, res)
	})
	if err == nil {
		err = replayer.finish()
	}
	if err != nil {
		return nil, fmt.Errorf("wal: replay: %w", err)
	}
	res.ReplayRecords = n
	res.ValidLogBytes = valid
	res.ReplayTime = time.Since(start)
	return res, nil
}

// OpenLogForAppend opens segment seq for appending after recovery,
// truncating any torn tail beyond validBytes.
func (m *Manager) OpenLogForAppend(seq uint64, validBytes uint64) (*Writer, error) {
	dev, err := disk.Open(m.logPath(seq), m.model)
	if err != nil {
		return nil, err
	}
	if err := dev.Truncate(int64(validBytes)); err != nil {
		dev.Close()
		return nil, err
	}
	return NewWriter(dev, int64(validBytes)), nil
}

// replayer buffers operations per transaction and applies them when the
// commit record arrives (redo-only logging: uncommitted tails vanish).
// Commits are logged in CID order but rows are numbered at insert, so a
// committed insert can lie past the table's end, behind rows whose
// commits come later or never. It waits in ahead until the rows before
// it are appended; finish fills the gaps nobody committed with
// permanently invisible filler rows, so physical row IDs — which
// invalidation records reference — are reproduced exactly.
type replayer struct {
	h        *nvm.Heap
	tables   map[uint32]*storage.Table
	buffered map[uint64][]Op
	ahead    map[*storage.Table]map[uint64]*aheadRow
}

// aheadRow is a row waiting to be appended, with its commit stamps (0:
// none).
type aheadRow struct {
	vals       []storage.Value
	begin, end uint64
}

func newReplayer(h *nvm.Heap, tables map[uint32]*storage.Table) *replayer {
	return &replayer{h: h, tables: tables, buffered: map[uint64][]Op{}, ahead: map[*storage.Table]map[uint64]*aheadRow{}}
}

func (r *replayer) apply(op Op, res *RecoveryResult) error {
	switch op.Type {
	case RecCreateTable:
		if _, exists := r.tables[op.Table]; !exists {
			t, err := storage.CreateNVMTable(r.h, op.Name, op.Table, op.Sch, op.IndexMask)
			if err != nil {
				return err
			}
			r.tables[op.Table] = t
		}
		if op.Table >= res.NextTableID {
			res.NextTableID = op.Table + 1
		}
	case RecInsert, RecInvalidate:
		r.buffered[op.Txn] = append(r.buffered[op.Txn], op)
	case RecCommit:
		ops := r.buffered[op.Txn]
		delete(r.buffered, op.Txn)
		for _, o := range ops {
			if err := r.applyCommitted(o, op.CID); err != nil {
				return err
			}
		}
		if op.CID > res.LastCID {
			res.LastCID = op.CID
		}
	}
	return nil
}

// applyCommitted redoes one committed operation.
func (r *replayer) applyCommitted(o Op, cid uint64) error {
	t, ok := r.tables[o.Table]
	if !ok {
		return fmt.Errorf("wal: replay references unknown table %d", o.Table)
	}
	switch o.Type {
	case RecInsert:
		if o.Row < t.Rows() {
			// Row body was captured by the checkpoint; only the commit
			// stamp was lost.
			t.StampBegin(o.Row, cid)
			return nil
		}
		if r.ahead[t] == nil {
			r.ahead[t] = map[uint64]*aheadRow{}
		}
		r.ahead[t][o.Row] = &aheadRow{vals: o.Vals, begin: cid}
		return r.appendAhead(t, false)
	case RecInvalidate:
		if o.Row < t.Rows() {
			t.StampEnd(o.Row, cid)
			return nil
		}
		a := r.ahead[t][o.Row]
		if a == nil {
			return fmt.Errorf("wal: invalidate of unknown row %d", o.Row)
		}
		a.end = cid
	}
	return nil
}

// appendAhead appends t's waiting rows that are next in row order; with
// fill it also fills the gaps before them, until none waits.
func (r *replayer) appendAhead(t *storage.Table, fill bool) error {
	for ahead := r.ahead[t]; len(ahead) > 0; {
		row := t.Rows()
		a := ahead[row]
		if a == nil {
			if !fill {
				return nil
			}
			a = &aheadRow{}
			for _, c := range t.Schema.Cols {
				a.vals = append(a.vals, storage.Zero(c.Type))
			}
		}
		delete(ahead, row)
		if _, err := t.AppendRow(a.vals, 0); err != nil {
			return err
		}
		if a.begin != 0 {
			t.StampBegin(row, a.begin)
		}
		if a.end != 0 {
			t.StampEnd(row, a.end)
		}
	}
	return nil
}

// finish appends every committed insert still waiting behind rows whose
// transactions never committed.
func (r *replayer) finish() error {
	for t := range r.ahead {
		if err := r.appendAhead(t, true); err != nil {
			return err
		}
	}
	return nil
}
