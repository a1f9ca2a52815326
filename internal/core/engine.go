// Package core implements the Hyrise-NV storage engine: a catalog of
// main/delta column-store tables with MVCC transactions and one of three
// durability modes. Every mode runs the same structures — columns,
// dictionaries, MVCC vectors and indexes — on a heap; the modes differ
// in the medium under the heap and in what makes commits durable.
//
//   - ModeNone — volatile only: the heap does not persist (an unlinked
//     file on tmpfs, see nvm.CreateVolatile); the DRAM reference point
//     for overhead measurements.
//   - ModeLog — the conventional architecture the paper compares
//     against: tables on a heap that does not persist, a write-ahead log
//     and binary checkpoints; restart re-reads the checkpoint onto a
//     fresh heap, replays the log and rebuilds all secondary index
//     structures, taking time proportional to data size.
//   - ModeNVM — the paper's contribution: the heap is (simulated)
//     non-volatile memory, and tables, MVCC vectors and index structures
//     are updated transactionally consistently, so restart re-attaches
//     the heap and fixes up only in-flight transactions: constant time,
//     independent of data size.
package core

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hyrisenv/internal/disk"
	"hyrisenv/internal/exec"
	"hyrisenv/internal/nvm"
	"hyrisenv/internal/storage"
	"hyrisenv/internal/txn"
	"hyrisenv/internal/wal"
)

// Config configures an Engine.
type Config struct {
	// Mode selects the durability mechanism.
	Mode txn.Mode
	// Dir is the data directory (heap file or checkpoint/log files).
	// Unused in ModeNone.
	Dir string
	// NVMHeapSize is the size of the simulated NVM device created on
	// first open (ModeNVM). Default 1 GiB.
	NVMHeapSize uint64
	// NVMHeapMaxSize, when non-zero, lets the heap grow online past
	// NVMHeapSize up to this bound, doubling geometrically per remap
	// (ModeNVM). Zero keeps the heap fixed-size: exhaustion surfaces as
	// out-of-space instead of growth.
	NVMHeapMaxSize uint64
	// NVMLatency injects emulated NVM latencies (ModeNVM).
	NVMLatency nvm.LatencyModel
	// NVMShadow enables the pessimistic crash model on the heap
	// (ModeNVM): stores survive a simulated crash only if a persist
	// barrier covered them. Crash testing only — the optimistic model
	// remains the benchmark default. See nvm.WithShadow.
	NVMShadow bool
	// DiskModel shapes the log/checkpoint device (ModeLog).
	DiskModel disk.Model
	// MergeThresholdRows, when non-zero, lets Maintain auto-merge tables
	// whose delta has grown past this many rows.
	MergeThresholdRows uint64
	// CheckpointLogBytes, when non-zero, lets Maintain rotate the log
	// with a fresh checkpoint once the segment exceeds this size
	// (ModeLog).
	CheckpointLogBytes uint64
	// CompressCheckpoints flate-compresses binary checkpoints (ModeLog);
	// worthwhile when the disk, not the CPU, bounds recovery.
	CompressCheckpoints bool
	// Parallelism sets the degree of morsel parallelism of the shared
	// query executor: 0 = one worker per schedulable core (GOMAXPROCS),
	// 1 = strictly serial scans.
	Parallelism int
	// Decide2PC, when non-nil, resolves prepared two-phase-commit
	// contexts found during NVM recovery against the shard coordinator's
	// durable decision records. Nil presumes abort.
	Decide2PC txn.TwoPCDecider
}

// Engine is an open database instance.
type Engine struct {
	cfg Config
	mgr *txn.Manager
	ex  *exec.Executor

	h  *nvm.Heap    // NVM in ModeNVM, a heap that does not persist otherwise
	lm *wal.Manager // ModeLog

	mu          sync.RWMutex
	tables      map[string]*storage.Table
	byID        map[uint32]*storage.Table
	nextTableID uint32

	recovery txn.RecoveryStats

	closed    atomic.Bool
	closeOnce sync.Once
	closeErr  error
}

// Errors returned by the engine.
var (
	ErrTableExists  = errors.New("core: table already exists")
	ErrNoSuchTable  = errors.New("core: no such table")
	ErrClosed       = errors.New("core: engine is closed")
	ErrWrongMode    = errors.New("core: operation not supported in this durability mode")
	ErrBadTableName = errors.New("core: invalid table name")
	maxTableNameLen = 36 // heap root names are bounded
)

// Open creates or re-opens an engine according to cfg, running the
// mode-specific recovery path and recording its cost.
func Open(cfg Config) (*Engine, error) {
	if cfg.NVMHeapSize == 0 {
		cfg.NVMHeapSize = 1 << 30
	}
	e := &Engine{
		cfg:         cfg,
		ex:          exec.New(cfg.Parallelism),
		tables:      map[string]*storage.Table{},
		byID:        map[uint32]*storage.Table{},
		nextTableID: 1,
	}
	start := time.Now()
	var err error
	switch cfg.Mode {
	case txn.ModeNone:
		e.mgr = txn.NewManager(txn.ModeNone, 0)
		e.h, err = nvm.CreateVolatile()
	case txn.ModeLog:
		err = e.openLog()
	case txn.ModeNVM:
		err = e.openNVM()
	default:
		err = fmt.Errorf("core: unknown mode %d", cfg.Mode)
	}
	if err != nil {
		return nil, err
	}
	e.recovery.Mode = cfg.Mode
	e.recovery.Shards = 1
	e.recovery.Total = time.Since(start)
	e.recovery.TablesOpened = len(e.tables)
	return e, nil
}

func (e *Engine) openLog() (err error) {
	if e.cfg.Dir == "" {
		return errors.New("core: ModeLog requires Config.Dir")
	}
	// The tables are rebuilt onto a heap that does not persist.
	if e.h, err = nvm.CreateVolatile(); err != nil {
		return err
	}
	defer func() {
		if err != nil {
			e.h.Close()
		}
	}()
	lm, err := wal.NewManager(e.cfg.Dir, e.cfg.DiskModel)
	if err != nil {
		return err
	}
	lm.SetCompression(e.cfg.CompressCheckpoints)
	e.lm = lm
	res, err := lm.Recover(e.h)
	if err != nil {
		return err
	}
	e.recovery.CheckpointLoad = res.CheckpointTime
	e.recovery.CheckpointBytes = res.CheckpointBytes
	e.recovery.LogReplay = res.ReplayTime
	e.recovery.ReplayRecords = res.ReplayRecords
	e.recovery.ReplayBytes = res.ValidLogBytes
	e.nextTableID = res.NextTableID

	// Rebuild all index structures — with the replay, the
	// data-size-proportional part of a conventional restart.
	idxStart := time.Now()
	for id, t := range res.Tables {
		if err := t.RebuildIndexes(); err != nil {
			return err
		}
		e.byID[id] = t
		e.tables[t.Name] = t
	}
	e.recovery.IndexRebuild = time.Since(idxStart)

	e.mgr = txn.NewManager(txn.ModeLog, res.LastCID)
	var w *wal.Writer
	if res.HasState {
		w, err = lm.OpenLogForAppend(res.LogSeq, res.ValidLogBytes)
	} else {
		w, _, err = lm.WriteCheckpoint(nil, 0, e.nextTableID)
	}
	if err != nil {
		return err
	}
	e.mgr.SetLogWriter(w)
	return nil
}

func (e *Engine) openNVM() error {
	if e.cfg.Dir == "" {
		return errors.New("core: ModeNVM requires Config.Dir")
	}
	if err := os.MkdirAll(e.cfg.Dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(e.cfg.Dir, "heap.nvm")
	opts := []nvm.Option{nvm.WithLatency(e.cfg.NVMLatency)}
	if e.cfg.NVMShadow {
		opts = append(opts, nvm.WithShadow())
	}
	if e.cfg.NVMHeapMaxSize > e.cfg.NVMHeapSize {
		opts = append(opts, nvm.WithGrowLimit(e.cfg.NVMHeapMaxSize))
	}
	h, err := nvm.Open(path, opts...)
	if errors.Is(err, fs.ErrNotExist) {
		h, err = nvm.Create(path, e.cfg.NVMHeapSize, opts...)
	}
	if err != nil {
		return err
	}
	e.h = h

	// Attach every table — O(columns) each, independent of row count.
	for _, rootName := range h.Roots() {
		if !strings.HasPrefix(rootName, "tbl:") {
			continue
		}
		root, _, _ := h.Root(rootName)
		t, err := storage.OpenNVMTable(h, strings.TrimPrefix(rootName, "tbl:"), root)
		if err != nil {
			h.Close()
			return err
		}
		e.tables[t.Name] = t
		e.byID[t.ID] = t
		if t.ID >= e.nextTableID {
			e.nextTableID = t.ID + 1
		}
	}

	// In-flight transaction fixup — O(in-flight writes). Prepared 2PC
	// contexts resolve against the shard coordinator's decision records
	// when this engine is a shard (presumed abort otherwise).
	mgr, fixup, err := txn.OpenNVMManagerDecider(h, func(id uint32) *storage.Table {
		e.mu.RLock()
		defer e.mu.RUnlock()
		return e.byID[id]
	}, e.cfg.Decide2PC)
	if err != nil {
		h.Close()
		return err
	}
	e.mgr = mgr
	e.recovery = fixup
	return nil
}

// Mode returns the engine's durability mode.
func (e *Engine) Mode() txn.Mode { return e.cfg.Mode }

// RecoveryStats returns what the last Open had to do.
func (e *Engine) RecoveryStats() txn.RecoveryStats { return e.recovery }

// Heap exposes the engine's heap for statistics: NVM in ModeNVM, a heap
// that does not persist otherwise.
func (e *Engine) Heap() *nvm.Heap { return e.h }

// Manager exposes the transaction manager.
func (e *Engine) Manager() *txn.Manager { return e.mgr }

// Exec returns the engine's shared query executor; every read path —
// the embedded Tx API and the network server alike — runs through it.
func (e *Engine) Exec() *exec.Executor { return e.ex }

// Begin starts a transaction.
func (e *Engine) Begin() *txn.Txn { return e.mgr.Begin() }

// CreateTable creates a table with the given schema; indexedCols names
// the columns to maintain secondary indexes on.
func (e *Engine) CreateTable(name string, schema storage.Schema, indexedCols ...string) (*storage.Table, error) {
	if name == "" || len(name) > maxTableNameLen || strings.ContainsAny(name, ": ") {
		return nil, fmt.Errorf("%w: %q", ErrBadTableName, name)
	}
	var mask uint64
	for _, cn := range indexedCols {
		i := schema.ColIndex(cn)
		if i < 0 {
			return nil, fmt.Errorf("core: indexed column %q not in schema", cn)
		}
		mask |= 1 << uint(i)
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed.Load() {
		return nil, ErrClosed
	}
	if _, exists := e.tables[name]; exists {
		return nil, fmt.Errorf("%w: %q", ErrTableExists, name)
	}
	id := e.nextTableID
	t, err := storage.CreateNVMTable(e.h, name, id, schema, mask)
	if err != nil {
		return nil, err
	}
	if e.cfg.Mode == txn.ModeNVM {
		err = e.h.SetRoot("tbl:"+name, t.Root(), 0)
	} else {
		err = e.mgr.LogDDL(id, name, schema, mask)
	}
	if err != nil {
		return nil, err
	}
	e.nextTableID = id + 1
	e.tables[name] = t
	e.byID[id] = t
	return t, nil
}

// Table returns the named table.
func (e *Engine) Table(name string) (*storage.Table, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	t, ok := e.tables[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchTable, name)
	}
	return t, nil
}

// Tables lists all tables sorted by name.
func (e *Engine) Tables() []*storage.Table {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]*storage.Table, 0, len(e.tables))
	for _, t := range e.tables {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Checkpoint quiesces commits and writes a binary checkpoint, rotating
// the log segment (ModeLog only; no-op in ModeNVM where the data is
// always durable, error in ModeNone).
func (e *Engine) Checkpoint() error {
	switch e.cfg.Mode {
	case txn.ModeNVM:
		return nil
	case txn.ModeNone:
		return ErrWrongMode
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	tables := make([]*storage.Table, 0, len(e.tables))
	for _, t := range e.tables {
		tables = append(tables, t)
	}
	sort.Slice(tables, func(i, j int) bool { return tables[i].Name < tables[j].Name })
	var err error
	e.mgr.BlockCommits(func() {
		var w *wal.Writer
		w, _, err = e.lm.WriteCheckpoint(tables, e.mgr.LastCID(), e.nextTableID)
		if err != nil {
			return
		}
		// The checkpoint holds every published stamp, so the old log's
		// closing sync can come after it and its error changes nothing; a
		// group that appended to the log and has yet to sync it finds it
		// closed, its records durable.
		_ = e.mgr.LogWriter().Close()
		e.mgr.SetLogWriter(w)
	})
	return err
}

// Merge compacts the named table's delta into a new main partition. The
// table must be quiescent (no transaction owning rows).
func (e *Engine) Merge(name string) (storage.MergeStats, error) {
	t, err := e.Table(name)
	if err != nil {
		return storage.MergeStats{}, err
	}
	var stats storage.MergeStats
	var mergeErr error
	e.mgr.BlockCommits(func() {
		stats, mergeErr = t.Merge(e.mgr.LastCID())
	})
	if mergeErr != nil {
		return stats, mergeErr
	}
	// The log-based engine must checkpoint after a merge: the merge
	// rewrote physical row IDs, invalidating log-replay addressing.
	if e.cfg.Mode == txn.ModeLog {
		return stats, e.Checkpoint()
	}
	return stats, nil
}

// Close shuts the engine down. In every mode all committed data is
// already durable; Close only releases resources.
//
// Close is idempotent and safe under concurrent callers: the release
// runs exactly once and every caller observes the same result, so a
// server's graceful shutdown racing a signal handler (both paths ending
// in Close) cannot double-unmap the heap or double-close the WAL.
func (e *Engine) Close() error {
	e.closeOnce.Do(func() {
		// Drain the group-commit batcher before tearing anything down:
		// in-flight groups finish against a live heap or log. Must happen
		// outside e.mu — group leaders may be in commit paths.
		e.mgr.Close()
		e.mu.Lock()
		defer e.mu.Unlock()
		e.closed.Store(true)
		if w := e.mgr.LogWriter(); w != nil {
			e.closeErr = w.Close()
		}
		if err := e.h.Close(); err != nil && e.closeErr == nil {
			e.closeErr = err
		}
	})
	return e.closeErr
}

// Closed reports whether Close has begun.
func (e *Engine) Closed() bool { return e.closed.Load() }

// Scavenge reclaims heap blocks that are no longer reachable from any
// table or transaction context: storage superseded by merges and, on
// NVM, blocks reserved by transactions that crashed between allocation
// and linking. It is an offline maintenance operation (O(heap size)); the
// caller must ensure no transactions are active.
func (e *Engine) Scavenge() (reclaimed int, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.mgr.BlockCommits(func() {
		reclaimed = e.h.Scavenge(e.reachableLocked)
	})
	return reclaimed, nil
}

// reachableLocked yields every heap block durably reachable from the
// engine's roots (tables and transaction contexts). Caller holds e.mu
// and has quiesced commits.
func (e *Engine) reachableLocked(yield func(nvm.PPtr)) {
	for _, t := range e.tables {
		t.Blocks(yield)
	}
	e.mgr.Blocks(yield)
}

// CheckReport aggregates per-table consistency results.
type CheckReport struct {
	Tables map[string]storage.CheckReport
}

// Check runs the structural consistency checker over every table.
func (e *Engine) Check() (CheckReport, error) {
	rep := CheckReport{Tables: map[string]storage.CheckReport{}}
	for _, t := range e.Tables() {
		tr, err := t.Check()
		if err != nil {
			return rep, fmt.Errorf("table %s: %w", t.Name, err)
		}
		rep.Tables[t.Name] = tr
	}
	return rep, nil
}

// FsckReport is the result of a full database fsck.
type FsckReport struct {
	Heap   *nvm.FsckReport
	Tables CheckReport
}

// Fsck runs the full consistency suite over the NVM database: the heap
// allocator walk (with reachability from every table and transaction
// context), the deep structural walk of every table's persistent
// representation (vectors, blobs, hash dictionaries, posting lists, MVCC
// stamps), and the logical Table.Check. It is the everything-must-hold
// predicate the crash matrix asserts after every enumerated crash
// point. ModeNVM only; offline (no concurrent transactions).
func (e *Engine) Fsck() (*FsckReport, error) {
	if e.cfg.Mode != txn.ModeNVM {
		return nil, ErrWrongMode
	}
	rep := &FsckReport{Tables: CheckReport{Tables: map[string]storage.CheckReport{}}}
	var errs []error
	e.mu.Lock()
	defer e.mu.Unlock()
	e.mgr.BlockCommits(func() {
		rep.Heap = e.h.Fsck(e.reachableLocked)
		if err := rep.Heap.Err(); err != nil {
			errs = append(errs, err)
		}
		lastCID := e.mgr.LastCID()
		for _, t := range e.tables {
			if err := t.FsckNVM(lastCID); err != nil {
				errs = append(errs, err)
			}
			tr, err := t.Check()
			if err != nil {
				errs = append(errs, fmt.Errorf("table %s: %w", t.Name, err))
			}
			rep.Tables.Tables[t.Name] = tr
		}
	})
	return rep, errors.Join(errs...)
}

// Maintain runs due background maintenance synchronously:
//
//   - tables whose delta row count exceeds Config.MergeThresholdRows are
//     merged (skipping tables that are currently busy);
//   - in ModeLog, a checkpoint is taken when the log segment exceeds
//     Config.CheckpointLogBytes.
//
// Both knobs default to "never" (zero).
func (e *Engine) Maintain() error {
	if e.cfg.MergeThresholdRows > 0 {
		for _, t := range e.Tables() {
			if t.DeltaRows() >= e.cfg.MergeThresholdRows {
				if _, err := e.Merge(t.Name); err != nil && !errors.Is(err, storage.ErrMergeBusy) {
					return err
				}
			}
		}
	}
	if e.cfg.Mode == txn.ModeLog && e.cfg.CheckpointLogBytes > 0 {
		if w := e.mgr.LogWriter(); w != nil && w.LSN() >= e.cfg.CheckpointLogBytes {
			return e.Checkpoint()
		}
	}
	return nil
}
