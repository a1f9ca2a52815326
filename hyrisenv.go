// Package hyrisenv is a Go reproduction of Hyrise-NV, the NVM-resident
// in-memory database storage engine of Schwalb et al., "Leveraging
// non-volatile memory for instant restarts of in-memory database
// systems" (ICDE 2016).
//
// The engine is a dictionary-compressed main/delta column store with
// insert-only MVCC transactions and three durability modes, all three
// running the same table, MVCC and index structures — on NVM, or on a
// DRAM heap that does not persist:
//
//   - Volatile — no durability; the DRAM reference point.
//   - LogBased — write-ahead logging + binary checkpoints on a modelled
//     disk; restart replays the log and rebuilds indexes (time grows
//     with data size — the paper measures ~53 s for 92.2 GB).
//   - NVM — the paper's contribution: all table, MVCC and index
//     structures live on (simulated) byte-addressable non-volatile
//     memory and are updated transactionally consistently, so restart
//     is near-instant and independent of data size.
//
// A database may be hash-partitioned into shards (Config.Shards): each
// shard owns its own NVM heap, MVCC store and commit path, restart
// recovery fans out across shards in parallel, and transactions whose
// writes span shards commit with two-phase commit through a persistent
// coordinator. Shards: 1 (the default) is a fleet of one — same
// commit-ID clock, same Open, same Begin as any other shard count; only
// the directory layout is special-cased. A transaction writing one
// shard, in any fleet, commits on that shard's ordinary group-commit
// path without 2PC.
//
// Quickstart:
//
//	db, err := hyrisenv.Open(hyrisenv.Config{Mode: hyrisenv.NVM, Dir: "data"})
//	...
//	tbl, err := db.CreateTable("orders",
//		[]hyrisenv.Column{
//			{Name: "id", Type: hyrisenv.Int64},
//			{Name: "customer", Type: hyrisenv.String},
//		}, "id")
//	tx := db.Begin()
//	tx.Insert(tbl, hyrisenv.Int(1), hyrisenv.Str("alice"))
//	err = tx.Commit()
package hyrisenv

import (
	"hyrisenv/internal/core"
	"hyrisenv/internal/disk"
	"hyrisenv/internal/nvm"
	"hyrisenv/internal/shard"
	"hyrisenv/internal/storage"
	"hyrisenv/internal/txn"
)

// Mode selects the durability architecture.
type Mode = txn.Mode

// Durability modes.
const (
	// Volatile keeps everything in DRAM with no durability.
	Volatile = txn.ModeNone
	// LogBased uses write-ahead logging and binary checkpoints — the
	// conventional recovery architecture.
	LogBased = txn.ModeLog
	// NVM keeps all data structures on simulated non-volatile memory —
	// the Hyrise-NV architecture with instant restarts.
	NVM = txn.ModeNVM
)

// Type is a column type.
type Type = storage.ColType

// Column types.
const (
	Int64   = storage.TypeInt64
	Float64 = storage.TypeFloat64
	String  = storage.TypeString
)

// Value is a cell value; construct with Int, Float and Str.
type Value = storage.Value

// Int returns an int64 value.
func Int(v int64) Value { return storage.Int(v) }

// Float returns a float64 value.
func Float(v float64) Value { return storage.Float(v) }

// Str returns a string value.
func Str(v string) Value { return storage.Str(v) }

// Column defines one table column.
type Column struct {
	Name string
	Type Type
}

// DiskModel shapes the simulated log/checkpoint device (LogBased mode).
type DiskModel = disk.Model

// NVMLatency configures the emulated NVM latencies (NVM mode).
type NVMLatency = nvm.LatencyModel

// Config configures Open. It is the single configuration surface of the
// module. The daemon (cmd/hyrise-nvd) sets five of its fields from flags
// and leaves the rest at their defaults; the README's configuration
// table is the mapping.
type Config struct {
	// Mode selects the durability architecture.
	Mode Mode
	// Dir is the data directory (required except in Volatile mode).
	Dir string
	// Shards hash-partitions the database N ways (default 1: a fleet of
	// one, running the same code with its single shard rooted at Dir
	// itself). Each shard owns its own NVM heap, MVCC store and commit
	// path; restart recovery runs across shards in parallel, and
	// cross-shard transactions commit with two-phase commit. The shard
	// count is fixed at creation and recorded in the data directory.
	Shards int
	// NVMHeapSize sizes the simulated NVM device on first creation —
	// per shard, when partitioned (NVM mode; default 1 GiB). A heap
	// keeps its size for life; its file is sparse, so it costs disk and
	// memory only for the pages written.
	NVMHeapSize uint64
	// NVMLatency injects emulated NVM write/fence/read latencies.
	NVMLatency NVMLatency
	// DiskModel shapes the log device; disk.SSD2016 approximates the
	// paper's hardware era. Zero = raw file speed.
	DiskModel DiskModel
	// MergeThresholdRows, when non-zero, lets Maintain auto-merge tables
	// whose delta has grown past this many rows.
	MergeThresholdRows uint64
	// CheckpointLogBytes, when non-zero, lets Maintain rotate the log
	// once the segment exceeds this size (LogBased mode).
	CheckpointLogBytes uint64
	// CompressCheckpoints flate-compresses binary checkpoints (LogBased
	// mode) — smaller checkpoint I/O at some CPU cost.
	CompressCheckpoints bool
	// Parallelism sets the degree of morsel parallelism for query
	// execution (scans, counts, GROUP BY, join build): 0 = one worker
	// per schedulable core (GOMAXPROCS), 1 = serial execution (the
	// historical behavior). Every read path — embedded Tx methods and
	// the network server's handlers — shares this executor.
	Parallelism int
}

func (cfg Config) shardConfig() shard.Config {
	return shard.Config{
		Config: core.Config{
			Mode:                cfg.Mode,
			Dir:                 cfg.Dir,
			NVMHeapSize:         cfg.NVMHeapSize,
			NVMLatency:          cfg.NVMLatency,
			DiskModel:           cfg.DiskModel,
			MergeThresholdRows:  cfg.MergeThresholdRows,
			CheckpointLogBytes:  cfg.CheckpointLogBytes,
			CompressCheckpoints: cfg.CompressCheckpoints,
			Parallelism:         cfg.Parallelism,
		},
		Shards: cfg.Shards,
	}
}

// RecoveryStats describes what the last Open had to do to reach a
// queryable state — the quantity the paper's headline experiment
// compares across architectures. LogBased fills the checkpoint, replay
// and index-rebuild fields; NVM the in-flight fixup counters
// (InFlightRolledBack, EntriesUndone, ...) and, in a fleet of shards,
// the 2PC ones.
type RecoveryStats = txn.RecoveryStats

// DB is an open database.
type DB struct {
	eng *shard.Engine
}

// Table is a handle to a table. When the database is partitioned the
// handle spans every shard's part and row IDs are global (they encode
// the owning shard).
type Table struct {
	t *shard.Table
}

// Name returns the table name.
func (t *Table) Name() string { return t.t.Name }

// Rows returns the total physical row count (including dead versions).
func (t *Table) Rows() uint64 { return t.t.Rows() }

// MainRows returns the number of rows in the read-optimized main
// partition(s).
func (t *Table) MainRows() uint64 { return t.t.MainRows() }

// DeltaRows returns the number of rows in the write-optimized delta(s).
func (t *Table) DeltaRows() uint64 { return t.t.DeltaRows() }

// Value reads column col of physical row ID row (no visibility check —
// use Tx query methods for transactional reads).
func (t *Table) Value(col int, row uint64) Value { return t.t.Value(col, row) }

// Internal exposes the storage-layer table — shard 0's part when
// partitioned — to the sibling benchmark and example code inside this
// module.
func (t *Table) Internal() *storage.Table { return t.t.Part(0) }

// Sharded exposes the shard-spanning table handle.
func (t *Table) Sharded() *shard.Table { return t.t }

// Open creates or re-opens a database.
func Open(cfg Config) (*DB, error) {
	eng, err := shard.Open(cfg.shardConfig())
	if err != nil {
		return nil, err
	}
	return &DB{eng: eng}, nil
}

// Close releases resources. Committed data is already durable in every
// mode; Close never writes.
func (db *DB) Close() error { return db.eng.Close() }

// Mode returns the durability mode.
func (db *DB) Mode() Mode { return db.eng.Mode() }

// Shards returns the partition count.
func (db *DB) Shards() int { return db.eng.Shards() }

// CreateTable creates a table. indexed names columns to maintain
// secondary indexes on.
func (db *DB) CreateTable(name string, cols []Column, indexed ...string) (*Table, error) {
	defs := make([]storage.ColumnDef, len(cols))
	for i, c := range cols {
		defs[i] = storage.ColumnDef{Name: c.Name, Type: c.Type}
	}
	sch, err := storage.NewSchema(defs...)
	if err != nil {
		return nil, err
	}
	t, err := db.eng.CreateTable(name, sch, indexed...)
	if err != nil {
		return nil, err
	}
	return &Table{t: t}, nil
}

// Table returns the named table.
func (db *DB) Table(name string) (*Table, error) {
	t, err := db.eng.Table(name)
	if err != nil {
		return nil, err
	}
	return &Table{t: t}, nil
}

// Tables lists all tables.
func (db *DB) Tables() []*Table {
	ts := db.eng.Tables()
	out := make([]*Table, len(ts))
	for i, t := range ts {
		out[i] = &Table{t: t}
	}
	return out
}

// Merge compacts the named table's delta partition into a new main
// partition (dropping dead row versions) on every shard. The table must
// be quiescent.
func (db *DB) Merge(name string) error {
	_, err := db.eng.Merge(name)
	return err
}

// Checkpoint writes a binary checkpoint and rotates the log (LogBased
// mode; a no-op under NVM where data is always durable).
func (db *DB) Checkpoint() error { return db.eng.Checkpoint() }

// RecoveryStats reports the cost of the last Open, summed over the
// shards. Per-shard restart work ran in parallel; Total is wall clock
// for the whole fleet, and TablesOpened counts each table once.
func (db *DB) RecoveryStats() RecoveryStats { return db.eng.RecoveryStats() }

// NVMStats reports persistence-primitive counters of the simulated NVM
// device — summed across shards (NVM mode; zero value otherwise).
type NVMStats = nvm.Stats

// NVMStats returns the NVM device counters.
func (db *DB) NVMStats() NVMStats { return db.eng.NVMStats() }

// ResetNVMStats zeroes the NVM counters (for measurement windows).
func (db *DB) ResetNVMStats() { db.eng.ResetNVMStats() }

// Maintain runs due background maintenance synchronously: auto-merges
// (Config.MergeThresholdRows) and log-rotation checkpoints
// (Config.CheckpointLogBytes).
func (db *DB) Maintain() error { return db.eng.Maintain() }

// Check validates structural invariants of every table on every shard
// (vector alignment, dictionary order, MVCC stamp sanity, index
// agreement) and returns an error describing the first violation found.
func (db *DB) Check() error { return db.eng.Check() }

// Scavenge reclaims unreachable heap blocks (superseded merge
// partitions, allocations orphaned by crashes) on every shard, in every
// mode; the caller must ensure no transactions are active.
func (db *DB) Scavenge() (reclaimed int, err error) { return db.eng.Scavenge() }

// Engine exposes the internal core engine — shard 0 when partitioned —
// to the sibling benchmark code.
func (db *DB) Engine() *core.Engine { return db.eng.Shard(0) }

// Sharded exposes the shard-routing engine to sibling code that needs
// per-shard access or coordinator statistics.
func (db *DB) Sharded() *shard.Engine { return db.eng }

// SyncToDisk forces the simulated NVM mappings (every shard heap and
// the 2PC coordinator heap) down to their backing files via msync. The
// simulation is durable across process restarts without it (the page
// cache persists); call this for durability against OS crashes too.
// No-op outside NVM mode.
func (db *DB) SyncToDisk() error {
	for _, h := range db.eng.Heaps() {
		if err := h.Sync(); err != nil {
			return err
		}
	}
	if c := db.eng.Coordinator(); c != nil {
		return c.Heap().Sync()
	}
	return nil
}
