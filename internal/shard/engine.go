package shard

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"hyrisenv/internal/core"
	"hyrisenv/internal/exec"
	"hyrisenv/internal/nvm"
	"hyrisenv/internal/storage"
	"hyrisenv/internal/txn"
)

// Config configures a sharded engine. The embedded core.Config applies
// to every shard (each gets its own data directory under Dir).
type Config struct {
	core.Config

	// Shards is the number of hash partitions. 0 or 1 is a fleet of one —
	// same clock, same Open, same Begin; only the directory layout is
	// special-cased: the one core engine is rooted directly at Dir with no
	// SHARDS marker and no coordinator heap, byte-compatible with
	// databases created before sharding existed. At most MaxShards.
	Shards int
}

// MaxShards bounds the shard count: shard indexes must fit the row-ID
// tag bits.
const MaxShards = 1 << shardIDBits

// Row IDs crossing the public API carry the owning shard in their top
// bits. Shard 0 tags as zero, so single-shard row IDs are identical to
// the underlying engine's physical row IDs.
const (
	shardIDBits  = 6
	localRowBits = 64 - shardIDBits
	localRowMask = 1<<localRowBits - 1
)

// globalRow tags a shard-local physical row ID with its shard.
func globalRow(shard int, local uint64) uint64 {
	return uint64(shard)<<localRowBits | local
}

// splitRow recovers (shard, local) from a tagged row ID.
func splitRow(row uint64) (int, uint64) {
	return int(row >> localRowBits), row & localRowMask
}

// Engine is a sharded database: a router over N core engines.
type Engine struct {
	cfg      Config
	shards   []*core.Engine
	clock    *txn.Clock        // shared by every shard's Manager
	coord    *Coordinator      // ModeNVM multi-shard only
	recovery txn.RecoveryStats // the fleet's: see Open

	mu     sync.RWMutex
	tables map[string]*Table
}

// Table is a handle to one logical table: one physical part per shard.
type Table struct {
	Name   string
	Schema storage.Schema
	parts  []*storage.Table
}

// Part exposes the physical part on one shard.
func (t *Table) Part(i int) *storage.Table { return t.parts[i] }

// Rows sums the physical row counts (including dead versions) across
// parts.
func (t *Table) Rows() uint64 { return t.sum((*storage.Table).Rows) }

// MainRows sums the main-partition row counts across parts.
func (t *Table) MainRows() uint64 { return t.sum((*storage.Table).MainRows) }

// DeltaRows sums the delta row counts across parts.
func (t *Table) DeltaRows() uint64 { return t.sum((*storage.Table).DeltaRows) }

func (t *Table) sum(f func(*storage.Table) uint64) uint64 {
	var n uint64
	for _, p := range t.parts {
		n += f(p)
	}
	return n
}

// ID returns the table's catalog ID (identical on every shard: DDL is
// applied to shards in lockstep).
func (t *Table) ID() uint32 { return t.parts[0].ID }

// Value reads column col of global row ID row, with no visibility
// check — use Tx query methods for transactional reads.
func (t *Table) Value(col int, row uint64) storage.Value {
	s, local := splitRow(row)
	return t.parts[s].Value(col, local)
}

// shardMetaFile records the partition count in the data directory, so a
// database can never be re-opened with the wrong shard count (the hash
// routing and row-ID tags would address the wrong shards).
const shardMetaFile = "SHARDS"

// Open creates or re-opens a sharded engine, by one path for every shard
// count. Recovery fans out across a worker pool: the coordinator region
// is scanned first (constant size), then every shard recovers
// concurrently, resolving prepared 2PC contexts against the
// coordinator's decision records; then the shards' managers are put on
// one CID clock seeded at the fleet's highest recovered lastCID.
func Open(cfg Config) (*Engine, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.Shards > MaxShards {
		return nil, fmt.Errorf("shard: %d shards exceeds the maximum %d", cfg.Shards, MaxShards)
	}
	start := time.Now()
	e := &Engine{cfg: cfg, tables: map[string]*Table{}}

	if cfg.Dir != "" && cfg.Mode != txn.ModeNone {
		if err := checkShardMeta(cfg.Dir, cfg.Shards); err != nil {
			return nil, err
		}
	}

	// The coordinator opens before any shard: its decision records are
	// what shard recovery resolves prepared contexts against. A fleet of
	// one never runs two-phase commit and has none.
	var decide txn.TwoPCDecider
	if cfg.Mode == txn.ModeNVM && cfg.Shards > 1 {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, err
		}
		var copts []nvm.Option
		if cfg.NVMShadow {
			copts = append(copts, nvm.WithShadow())
		}
		coord, err := openCoordinator(filepath.Join(cfg.Dir, coordHeapName), cfg.Shards, copts...)
		if err != nil {
			return nil, err
		}
		e.coord = coord
		e.recovery.Decisions2PC = coord.Decisions()
		decide = coord.Lookup
	}

	// Shards recover concurrently, one per core at a time.
	e.shards = make([]*core.Engine, cfg.Shards)
	errs := make([]error, cfg.Shards)
	sem := make(chan struct{}, min(cfg.Shards, runtime.GOMAXPROCS(0)))
	var wg sync.WaitGroup
	for i := range e.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			scfg := cfg.Config
			if scfg.Dir != "" {
				scfg.Dir = ShardDir(cfg.Dir, cfg.Shards, i)
			}
			scfg.Decide2PC = decide
			e.shards[i], errs[i] = core.Open(scfg)
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		e.Close() //nolint:errcheck — already failing
		return nil, err
	}

	// One global CID space: seed above every CID any shard has durably
	// stamped (including cross-shard commits redone just now).
	var seed uint64
	for _, s := range e.shards {
		e.recovery.Add(s.RecoveryStats())
		if cid := s.Manager().LastCID(); cid > seed {
			seed = cid
		}
	}
	e.clock = txn.NewClock(seed)
	for _, s := range e.shards {
		s.Manager().SetClock(e.clock)
	}

	// Every prepared context has now been resolved and released, so no
	// future restart can ask about the surviving decisions.
	if e.coord != nil {
		e.coord.Clear()
	}

	if cfg.Dir != "" && cfg.Mode != txn.ModeNone {
		if err := writeShardMeta(cfg.Dir, cfg.Shards); err != nil {
			e.Close() //nolint:errcheck — already failing
			return nil, err
		}
	}
	if err := e.loadTables(); err != nil {
		e.Close() //nolint:errcheck — already failing
		return nil, err
	}
	// Shards recover concurrently, so the fleet's Total is its wall
	// clock — the slowest shard plus the (constant) coordinator scan,
	// not the sum — which keeps restart-to-serve flat as shards are
	// added. A table spans every shard and counts once.
	e.recovery.Mode = cfg.Mode
	e.recovery.Total = time.Since(start)
	e.recovery.TablesOpened = len(e.tables)
	return e, nil
}

// ShardDir returns the directory that holds shard i's files in a
// fleet of shards rooted at dir: dir itself for a fleet of one,
// dir/shard-<i> otherwise.
func ShardDir(dir string, shards, i int) string {
	if shards == 1 {
		return dir
	}
	return filepath.Join(dir, "shard-"+strconv.Itoa(i))
}

// RecordedShards returns the partition count of the database in dir:
// the count its SHARDS file records, or 1 when there is no such file (a
// fleet of one, or no database yet). Tools that open an existing
// database open it at this count. Only a fleet of two or more writes
// the file, so one recording fewer than 2 shards is corrupt.
func RecordedShards(dir string) (int, error) {
	b, err := os.ReadFile(filepath.Join(dir, shardMetaFile))
	if os.IsNotExist(err) {
		return 1, nil
	}
	if err != nil {
		return 0, err
	}
	n, err := strconv.Atoi(strings.TrimSpace(string(b)))
	if err == nil && n < 2 {
		err = fmt.Errorf("records %d shards", n)
	}
	if err != nil {
		return 0, fmt.Errorf("shard: corrupt %s file: %w", shardMetaFile, err)
	}
	return n, nil
}

// checkShardMeta verifies Dir's recorded partition count against the
// configured one. A directory holding a fleet of one (heap or log
// files at the top level) cannot be re-opened sharded.
func checkShardMeta(dir string, shards int) error {
	n, err := RecordedShards(dir)
	switch {
	case err != nil || n == shards:
		return err
	case n > 1: // a SHARDS file is present
		return fmt.Errorf("shard: database is partitioned %d ways, not %d", n, shards)
	}
	if _, err := os.Stat(filepath.Join(dir, "heap.nvm")); err == nil {
		return fmt.Errorf("shard: %s holds an unsharded database; cannot open with %d shards", dir, shards)
	}
	return nil
}

func writeShardMeta(dir string, shards int) error {
	path := filepath.Join(dir, shardMetaFile)
	if _, err := os.Stat(path); err == nil {
		return nil
	}
	if shards == 1 {
		return nil // a fleet of one needs no marker (its layout predates it)
	}
	return os.WriteFile(path, []byte(strconv.Itoa(shards)+"\n"), 0o644)
}

// loadTables builds the logical catalog from the shards' own catalogs.
// DDL runs in lockstep, but a crash can cut it mid-fleet, leaving the
// table on some shards only; Table's adoption redoes the creation
// forward on the shards that lack it (safe because CreateTable returns
// to the caller only after every shard has the table — a partially
// created table can hold no committed rows on the missing shards).
func (e *Engine) loadTables() error {
	for _, s := range e.shards {
		for _, t := range s.Tables() {
			if _, err := e.Table(t.Name); err != nil {
				return err
			}
		}
	}
	return nil
}

// Shards returns the partition count.
func (e *Engine) Shards() int { return len(e.shards) }

// Shard exposes one underlying engine (benchmarks, tests, stats).
func (e *Engine) Shard(i int) *core.Engine { return e.shards[i] }

// Coordinator exposes the 2PC coordinator (nil unless ModeNVM with more
// than one shard).
func (e *Engine) Coordinator() *Coordinator { return e.coord }

// Clock exposes the CID clock every shard's Manager shares.
func (e *Engine) Clock() *txn.Clock { return e.clock }

// Mode returns the durability mode.
func (e *Engine) Mode() txn.Mode { return e.cfg.Mode }

// RecoveryStats reports what the last Open had to do, summed over the
// shards; Shard(i).RecoveryStats() is one shard's own.
func (e *Engine) RecoveryStats() txn.RecoveryStats { return e.recovery }

// Exec returns the executor queries of shard.Tx fan out through (the
// shards share one parallelism configuration).
func (e *Engine) Exec() *exec.Executor { return e.shards[0].Exec() }

// LastCID returns the snapshot horizon: the newest commit ID a fresh
// transaction will read — the clock's visibility watermark, the largest
// CID at or below which every shard has published.
func (e *Engine) LastCID() uint64 { return e.clock.Visible() }

// CreateTable creates the table on every shard in lockstep.
func (e *Engine) CreateTable(name string, schema storage.Schema, indexedCols ...string) (*Table, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, exists := e.tables[name]; exists {
		return nil, fmt.Errorf("%w: %q", core.ErrTableExists, name)
	}
	t := &Table{Name: name, Schema: schema, parts: make([]*storage.Table, len(e.shards))}
	for i, s := range e.shards {
		p, err := s.CreateTable(name, schema, indexedCols...)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		t.parts[i] = p
	}
	e.tables[name] = t
	return t, nil
}

// Table returns the named table. A table some shard has that the
// catalog does not — left by a restart, or created directly on an
// underlying core engine (single-shard embedding through Shard, bulk
// loaders) — is adopted on first lookup, and created on the shards that
// lack it.
func (e *Engine) Table(name string) (*Table, error) {
	e.mu.RLock()
	t, ok := e.tables[name]
	e.mu.RUnlock()
	if ok {
		return t, nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if t, ok := e.tables[name]; ok {
		return t, nil
	}
	var proto *storage.Table
	for _, s := range e.shards {
		if p, err := s.Table(name); err == nil {
			proto = p
			break
		}
	}
	if proto == nil {
		return nil, fmt.Errorf("%w: %q", core.ErrNoSuchTable, name)
	}
	var indexed []string
	for i, c := range proto.Schema.Cols {
		if proto.Indexed(i) {
			indexed = append(indexed, c.Name)
		}
	}
	t = &Table{Name: name, Schema: proto.Schema, parts: make([]*storage.Table, len(e.shards))}
	for i, s := range e.shards {
		p, err := s.Table(name)
		if err != nil {
			if p, err = s.CreateTable(name, proto.Schema, indexed...); err != nil {
				return nil, fmt.Errorf("shard %d: adopt %s: %w", i, name, err)
			}
		}
		t.parts[i] = p
	}
	e.tables[name] = t
	return t, nil
}

// Tables lists all tables sorted by name.
func (e *Engine) Tables() []*Table {
	names := e.shards[0].Tables()
	out := make([]*Table, 0, len(names))
	for _, p := range names {
		if t, err := e.Table(p.Name); err == nil {
			out = append(out, t)
		}
	}
	return out
}

// Merge compacts the named table's delta on every shard.
func (e *Engine) Merge(name string) (storage.MergeStats, error) {
	var total storage.MergeStats
	for _, s := range e.shards {
		st, err := s.Merge(name)
		if err != nil {
			return total, err
		}
		total.RowsBefore += st.RowsBefore
		total.RowsAfter += st.RowsAfter
		total.DeadDropped += st.DeadDropped
		total.DictEntries += st.DictEntries
	}
	return total, nil
}

// Checkpoint checkpoints every shard (ModeLog).
func (e *Engine) Checkpoint() error {
	for _, s := range e.shards {
		if err := s.Checkpoint(); err != nil {
			return err
		}
	}
	return nil
}

// Maintain runs due background maintenance on every shard.
func (e *Engine) Maintain() error {
	for _, s := range e.shards {
		if err := s.Maintain(); err != nil {
			return err
		}
	}
	return nil
}

// Check runs the structural consistency checker on every shard.
func (e *Engine) Check() error {
	for _, s := range e.shards {
		if _, err := s.Check(); err != nil {
			return err
		}
	}
	return nil
}

// Fsck runs the full NVM consistency suite on every shard.
func (e *Engine) Fsck() error {
	var errs []error
	for i, s := range e.shards {
		if _, err := s.Fsck(); err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", i, err))
		}
	}
	return errors.Join(errs...)
}

// Scavenge reclaims unreachable heap blocks on every shard.
func (e *Engine) Scavenge() (reclaimed int, err error) {
	for _, s := range e.shards {
		n, serr := s.Scavenge()
		if serr != nil {
			return reclaimed, serr
		}
		reclaimed += n
	}
	return reclaimed, nil
}

// Heaps returns every shard's NVM heap (ModeNVM; empty otherwise). The
// coordinator heap is separate — see Coordinator.
func (e *Engine) Heaps() []*nvm.Heap {
	var out []*nvm.Heap
	for _, s := range e.shards {
		if s.Mode() == txn.ModeNVM {
			out = append(out, s.Heap())
		}
	}
	return out
}

// NVMStats sums the persistence-primitive counters across shard heaps.
func (e *Engine) NVMStats() nvm.Stats {
	var total nvm.Stats
	for _, h := range e.Heaps() {
		s := h.Stats()
		total.Flushes += s.Flushes
		total.Fences += s.Fences
		total.Drains += s.Drains
		total.Allocs += s.Allocs
		total.Frees += s.Frees
		total.BytesUsed += s.BytesUsed
		total.ReadLines += s.ReadLines
	}
	return total
}

// ResetNVMStats zeroes every shard heap's counters.
func (e *Engine) ResetNVMStats() {
	for _, h := range e.Heaps() {
		h.ResetStats()
	}
}

// Closed reports whether Close has run (shard 0 is authoritative — the
// shards close together).
func (e *Engine) Closed() bool { return e.shards[0].Closed() }

// Close shuts every shard and the coordinator down — every shard that
// opened, when Open itself is failing. Idempotent per underlying engine.
func (e *Engine) Close() error {
	var errs []error
	for _, s := range e.shards {
		if s == nil {
			continue
		}
		if err := s.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	if e.coord != nil {
		if err := e.coord.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}
