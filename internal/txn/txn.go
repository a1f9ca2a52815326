// Package txn implements transactions over the main/delta column store
// with three durability modes:
//
//   - ModeNone: MVCC only, no durability (the DRAM-only reference point).
//   - ModeLog:  redo-only write-ahead logging plus binary checkpoints —
//     the conventional engine whose ~53 s restart the paper measures. A
//     commit group's redo records reach the log in one append and become
//     durable under one sync.
//   - ModeNVM:  the Hyrise-NV protocol. All table state already lives on
//     NVM; a commit becomes durable by (1) having persisted the dirty-row
//     list in a persistent transaction context during execution,
//     (2) stamping and persisting the begin/end CIDs of the dirty rows,
//     and (3) persisting the advanced global last-committed CID. Restart
//     undoes stamps of contexts whose CID never made it behind the
//     persisted last CID — work proportional to in-flight writes, never
//     to data size.
package txn

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"hyrisenv/internal/group"
	"hyrisenv/internal/mvcc"
	"hyrisenv/internal/nvm"
	"hyrisenv/internal/storage"
	"hyrisenv/internal/wal"
)

// Mode selects the durability mechanism.
type Mode int

// Durability modes.
const (
	ModeNone Mode = iota
	ModeLog
	ModeNVM
)

// String names the mode as the public API, the daemon and the CLI
// print it.
func (m Mode) String() string {
	switch m {
	case ModeNone:
		return "volatile"
	case ModeLog:
		return "log-based"
	case ModeNVM:
		return "nvm"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// RecoveryStats records what (re)opening a database had to do to reach
// a queryable state — the quantity the paper's headline experiment
// compares across architectures. Each layer fills its own fields: the
// NVM fixup its counters, the log engine its phases, a fleet the sum
// over its shards.
type RecoveryStats struct {
	Mode         Mode
	Shards       int
	Total        time.Duration // wall clock of the whole open
	TablesOpened int

	// ModeLog: load the checkpoint, redo the log, rebuild the indexes.
	CheckpointLoad  time.Duration
	CheckpointBytes uint64
	LogReplay       time.Duration
	ReplayRecords   int
	ReplayBytes     uint64
	IndexRebuild    time.Duration

	// ModeNVM: the in-flight transaction fixup, the only data-dependent
	// restart work.
	LiveContexts       int // contexts of transactions the crash cut: undone, or decided by 2PC
	CommittedDone      int // contexts a committed transaction left for its slot's next holder to retire
	InFlightRolledBack int // in-flight transactions undone
	EntriesUndone      int // row stamps reset
	Committed2PC       int // prepared contexts redone from a commit decision
	Aborted2PC         int // prepared contexts undone by presumed abort
	EntriesRedone      int // row stamps re-applied from decided contexts

	// Decisions2PC counts durable cross-shard commit decisions found at
	// the coordinator (transactions that crashed between their commit
	// point and their finish, redone during shard recovery).
	Decisions2PC int
}

// Add adds every field of o but Mode, a label, to s. A fleet sums its
// shards' reports with it and then sets what does not add: Total is
// the fleet's wall clock, since shards recover concurrently, and a
// table spans every shard.
func (s *RecoveryStats) Add(o RecoveryStats) {
	s.Shards += o.Shards
	s.Total += o.Total
	s.TablesOpened += o.TablesOpened
	s.CheckpointLoad += o.CheckpointLoad
	s.CheckpointBytes += o.CheckpointBytes
	s.LogReplay += o.LogReplay
	s.ReplayRecords += o.ReplayRecords
	s.ReplayBytes += o.ReplayBytes
	s.IndexRebuild += o.IndexRebuild
	s.LiveContexts += o.LiveContexts
	s.CommittedDone += o.CommittedDone
	s.InFlightRolledBack += o.InFlightRolledBack
	s.EntriesUndone += o.EntriesUndone
	s.Committed2PC += o.Committed2PC
	s.Aborted2PC += o.Aborted2PC
	s.EntriesRedone += o.EntriesRedone
	s.Decisions2PC += o.Decisions2PC
}

// Errors returned by the transaction layer.
var (
	ErrConflict    = errors.New("txn: write-write conflict")
	ErrNotActive   = errors.New("txn: transaction is not active")
	ErrRowNotFound = errors.New("txn: row not visible or already dead")
	ErrReadOnly    = errors.New("txn: transaction is read-only")
	// ErrEpochChanged means a merge rewrote the table's physical row IDs
	// between this transaction's read and its write; the transaction
	// must restart (its row IDs are stale).
	ErrEpochChanged = errors.New("txn: table merged since this transaction read it")
	// ErrClosed means the manager was closed (engine shutdown) before the
	// commit could be submitted; nothing of the transaction was committed.
	ErrClosed = errors.New("txn: manager is closed")
)

// Manager allocates transaction IDs and commit IDs and runs the commit
// protocol for its durability mode.
type Manager struct {
	mode Mode

	lastCID atomic.Uint64
	nextTID atomic.Uint64

	// clock hands out CIDs and governs snapshot visibility by its
	// watermark: private from construction, shared once the manager is
	// one of a shard fleet. See clock.go.
	clock *Clock

	// commitMu serializes CID assignment, stamp publication and the
	// advance of lastCID, giving commits a total order.
	commitMu sync.Mutex

	// logw is the WAL writer (ModeLog); a checkpoint swaps it under
	// commitMu.
	logw atomic.Pointer[wal.Writer]

	// ModeNVM.
	h        *nvm.Heap
	pRoot    nvm.PPtr // persistent commit root (lastCID + context directory)
	slots    *slotPool
	numSlots int // context directory size (concurrent writer cap)

	// gc coalesces the Commit calls of writing transactions into
	// CommitGroup batches in ModeLog and ModeNVM; it lives exactly as
	// long as the manager. See groupcommit.go.
	gc *group.Batcher[*Txn]
}

// NewManager creates a manager in ModeNone or ModeLog; for ModeNVM use
// OpenNVMManager. In ModeLog the WAL writer may be attached later with
// SetLogWriter (the engine rotates writers at checkpoints).
func NewManager(mode Mode, lastCID uint64) *Manager {
	m := &Manager{mode: mode, clock: NewClock(lastCID)}
	m.lastCID.Store(lastCID)
	m.nextTID.Store(1)
	if mode == ModeLog {
		m.gc = group.New[*Txn](maxGroup, m.CommitGroup)
	}
	return m
}

// Mode returns the durability mode.
func (m *Manager) Mode() Mode { return m.mode }

// LastCID returns the latest CID this manager committed; the snapshot
// horizon is Clock().Visible().
func (m *Manager) LastCID() uint64 { return m.lastCID.Load() }

// BlockCommits runs fn with the commit protocol blocked: no transaction
// can assign a CID or publish stamps while fn runs. The engine uses this
// to quiesce commits around checkpoints and merges.
func (m *Manager) BlockCommits(fn func()) {
	m.commitMu.Lock()
	defer m.commitMu.Unlock()
	fn()
}

// SetLogWriter attaches or replaces the WAL writer (ModeLog).
func (m *Manager) SetLogWriter(w *wal.Writer) { m.logw.Store(w) }

// LogWriter returns the current WAL writer (ModeLog).
func (m *Manager) LogWriter() *wal.Writer { return m.logw.Load() }

// LogDDL durably logs a create-table record (ModeLog; no-op otherwise).
func (m *Manager) LogDDL(tableID uint32, name string, sch storage.Schema, indexMask uint64) error {
	if m.mode != ModeLog {
		return nil
	}
	w := m.LogWriter()
	if err := w.Append(wal.EncodeCreateTable(tableID, name, sch, indexMask)); err != nil {
		return err
	}
	return w.Sync()
}

// writeKind discriminates write-set entries.
type writeKind uint8

const (
	writeInsert writeKind = iota + 1
	writeInvalidate
)

type writeOp struct {
	kind  writeKind
	table *storage.Table
	row   uint64 // table row ID
	vals  []storage.Value
}

// Status of a transaction.
type Status int

// Transaction states.
const (
	StatusActive Status = iota
	StatusCommitted
	StatusAborted
	// StatusPrepared is the 2PC window: the transaction's write intent is
	// durably marked with its global transaction ID and only the
	// coordinator's decision can finish it (CommitPrepared or
	// AbortPrepared). See twopc.go.
	StatusPrepared
)

// Txn is a single transaction. A Txn is not safe for concurrent use.
type Txn struct {
	m        *Manager
	tid      uint64
	snapCID  uint64
	status   Status
	readOnly bool

	writes      []writeOp
	invalidated map[rowRef]bool
	epochs      map[*storage.Table]uint64

	// ModeNVM: persistent context.
	pctx pctxHandle
}

type rowRef struct {
	t   *storage.Table
	row uint64
}

// Begin starts a transaction with a snapshot at the current commit
// horizon.
func (m *Manager) Begin() *Txn { return m.BeginSnapshot(m.clock.Visible(), false) }

// BeginAt starts a read-only transaction at a historical snapshot —
// time travel, which the insert-only MVCC supports for free as long as
// the versions have not been merged away. cid is clamped to the current
// commit horizon.
func (m *Manager) BeginAt(cid uint64) *Txn {
	return m.BeginSnapshot(min(cid, m.clock.Visible()), true)
}

// TID returns the transient transaction ID.
func (t *Txn) TID() uint64 { return t.tid }

// SnapshotCID returns the CID this transaction reads at.
func (t *Txn) SnapshotCID() uint64 { return t.snapCID }

// Status returns the transaction state.
func (t *Txn) Status() Status { return t.status }

// Writes returns the number of buffered write operations. The shard
// router uses it to pick between the single-shard commit fast path and
// two-phase commit.
func (t *Txn) Writes() int { return len(t.writes) }

// Sees reports whether the transaction sees the given row, combining
// MVCC visibility with the transaction's own pending invalidations.
func (t *Txn) Sees(tbl *storage.Table, row uint64) bool {
	if t.invalidated[rowRef{tbl, row}] {
		return false
	}
	return tbl.Visible(row, t.snapCID, t.tid)
}

// PinEpoch records the table's merge epoch the first time this
// transaction touches it; later writes verify the epoch so that row IDs
// obtained before a merge can never address the wrong row after it.
// The query layer pins automatically.
func (t *Txn) PinEpoch(tbl *storage.Table) {
	if t.epochs == nil {
		t.epochs = make(map[*storage.Table]uint64)
	}
	if _, ok := t.epochs[tbl]; !ok {
		t.epochs[tbl] = tbl.Epoch()
	}
}

// checkEpoch verifies that tbl has not been merged since this
// transaction first touched it.
func (t *Txn) checkEpoch(tbl *storage.Table) error {
	t.PinEpoch(tbl)
	if t.epochs[tbl] != tbl.Epoch() {
		return ErrEpochChanged
	}
	return nil
}

// SeesIn is Sees evaluated against an explicit partition View, letting
// multi-step readers (the query layer) stay on one generation while a
// merge publishes a new one.
func (t *Txn) SeesIn(v storage.View, tbl *storage.Table, row uint64) bool {
	if t.invalidated[rowRef{tbl, row}] {
		return false
	}
	return v.Visible(row, t.snapCID, t.tid)
}

// InvalidatedIn returns, in ascending order, the rows of tbl this
// transaction has invalidated and not yet committed: what a block scan
// clears from a visibility bitmap, where SeesIn asks row by row.
func (t *Txn) InvalidatedIn(tbl *storage.Table) []uint64 {
	var rows []uint64
	for ref := range t.invalidated {
		if ref.t == tbl {
			rows = append(rows, ref.row)
		}
	}
	slices.Sort(rows)
	return rows
}

// Insert appends a new row. The row is invisible to other transactions
// until commit.
func (t *Txn) Insert(tbl *storage.Table, vals []storage.Value) (uint64, error) {
	if t.status != StatusActive {
		return 0, ErrNotActive
	}
	if t.readOnly {
		return 0, ErrReadOnly
	}
	if err := t.checkEpoch(tbl); err != nil {
		return 0, err
	}
	// In ModeNVM the undo record rides the row append's two fences.
	var log storage.RowLog
	if t.m.mode == ModeNVM {
		log = rowLog{t}
	}
	row, err := tbl.AppendRowLogged(vals, t.tid, log)
	if err != nil {
		return 0, err
	}
	t.writes = append(t.writes, writeOp{kind: writeInsert, table: tbl, row: row, vals: vals})
	return row, nil
}

// Delete invalidates a visible row. It fails with ErrConflict when
// another live transaction owns the row, and ErrRowNotFound when the row
// is not visible to this transaction. In ModeNVM the count of its undo
// record is flushed, not fenced: it rides the fence of the transaction's
// next write or of its commit, which precedes the stamp the record undoes.
func (t *Txn) Delete(tbl *storage.Table, row uint64) error {
	if t.status != StatusActive {
		return ErrNotActive
	}
	if t.readOnly {
		return ErrReadOnly
	}
	if err := t.checkEpoch(tbl); err != nil {
		return err
	}
	if !t.Sees(tbl, row) {
		return ErrRowNotFound
	}
	s, local := tbl.MVCCFor(row)
	ownInsert := s.TID(local) == t.tid && s.Begin(local) == mvcc.Inf
	if !ownInsert {
		if !s.ClaimRow(local, t.tid) {
			return ErrConflict
		}
		// Re-check under the row lock: someone may have committed an
		// invalidation between our visibility check and the claim.
		if s.End(local) != mvcc.Inf {
			s.ReleaseRow(local, t.tid)
			return ErrConflict
		}
	}
	if t.invalidated == nil {
		t.invalidated = make(map[rowRef]bool)
	}
	t.invalidated[rowRef{tbl, row}] = true
	t.writes = append(t.writes, writeOp{kind: writeInvalidate, table: tbl, row: row})
	if t.m.mode == ModeNVM {
		return t.m.pctxInvalidate(t, tbl, row)
	}
	return nil
}

// Update replaces a visible row with new values: it invalidates the old
// version and inserts the new one (insert-only MVCC).
func (t *Txn) Update(tbl *storage.Table, row uint64, vals []storage.Value) (uint64, error) {
	if err := t.Delete(tbl, row); err != nil {
		return 0, err
	}
	return t.Insert(tbl, vals)
}

// Commit makes the transaction's effects visible and durable (per mode).
// After Commit returns nil the transaction is durably committed under
// the mode's guarantees.
func (t *Txn) Commit() error {
	if t.status != StatusActive {
		return ErrNotActive
	}
	if len(t.writes) == 0 {
		t.status = StatusCommitted
		t.m.releasePctx(t)
		return nil
	}
	if t.m.gc == nil {
		// ModeNone has no barrier to share: commit as a group of one
		// without the batcher's hand-off.
		return t.m.commit([]*Txn{t}, 0)
	}
	// A lone commit is a group of one: the leader of an uncontended
	// batcher runs CommitGroup at once on this goroutine.
	err := t.m.gc.Do(t)
	if errors.Is(err, group.ErrClosed) {
		return ErrClosed
	}
	return err
}

// stampLocked writes the begin/end CIDs of the write set and flushes
// their lines without fencing — the caller issues the one fence that
// orders all of them (on a heap that does not persist, a flush costs an
// atomic add) — then releases the row locks.
func (t *Txn) stampLocked(cid uint64) {
	for _, op := range t.writes {
		s, local := op.table.MVCCFor(op.row)
		switch op.kind {
		case writeInsert:
			s.SetBegin(local, cid)
			s.FlushBegin(local)
		case writeInvalidate:
			s.SetEnd(local, cid)
			s.FlushEnd(local)
		}
	}
	for _, op := range t.writes {
		s, local := op.table.MVCCFor(op.row)
		s.ReleaseRow(local, t.tid)
	}
}

// Abort rolls the transaction back: inserted rows stay permanently
// invisible (begin = Inf), claimed rows are released, and in ModeNVM the
// persistent context is discarded.
func (t *Txn) Abort() error {
	if t.status != StatusActive {
		return ErrNotActive
	}
	t.rollback()
	return nil
}

// rollback releases the write set's rows and the persistent context.
func (t *Txn) rollback() {
	for _, op := range t.writes {
		s, local := op.table.MVCCFor(op.row)
		s.ReleaseRow(local, t.tid)
	}
	t.m.releasePctx(t)
	t.status = StatusAborted
}
