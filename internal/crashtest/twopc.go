package crashtest

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"hyrisenv/internal/core"
	"hyrisenv/internal/exec"
	"hyrisenv/internal/nvm"
	"hyrisenv/internal/shard"
	"hyrisenv/internal/storage"
	"hyrisenv/internal/txn"
)

// Sharded 2PC crash matrix. The single-engine matrix (matrix.go) sweeps
// every persist barrier of one heap; a sharded database has several —
// one per shard plus the coordinator — and the two-phase commit protocol
// spans all of them. This sweep enumerates the barriers of EVERY heap:
// for each (heap, barrier, seed) point it runs a cross-shard workload,
// cuts power at exactly that barrier of that heap — and, because a power
// failure takes the whole machine, crashes every other heap at the same
// instant — then reopens, fscks every shard and verifies that each
// acknowledged cross-shard commit is atomically visible and the
// transaction in flight applied all-or-nothing across shards. Sweeping
// the coordinator heap covers the decide/forget barriers; sweeping the
// shard heaps covers prepare, commit-prepared and the single-shard fast
// path.

// Config2PC parameterizes a sharded 2PC sweep.
type Config2PC struct {
	// Dir is the parent directory; every crash point gets its own
	// subdirectory under it.
	Dir string
	// Shards is the partition count (default 2; must be >= 2 so the
	// workload actually crosses shards).
	Shards int
	// HeapSize is the NVM heap size per shard (default 16 MiB).
	HeapSize uint64
	// MaxBarriers bounds how many barriers are exercised per target heap,
	// sampled at a uniform stride with the final barrier always included.
	// 0 means every barrier.
	MaxBarriers int
	// TearSeeds lists the crash behaviors tried at each barrier (see
	// Config.TearSeeds). Default {0}.
	TearSeeds []int64
	// Heaps optionally restricts the sweep to the named target heaps
	// ("shard-0", "shard-1", ..., "coord"); empty means all of them. CI
	// uses it to slice the matrix across jobs.
	Heaps []string
	// Keep leaves each point's directory on disk.
	Keep bool
	// FailFast stops the sweep at the first failing point.
	FailFast bool
}

func (c *Config2PC) defaults() {
	if c.Shards < 2 {
		c.Shards = 2
	}
	if c.HeapSize == 0 {
		c.HeapSize = 16 << 20
	}
	if len(c.TearSeeds) == 0 {
		c.TearSeeds = []int64{0}
	}
}

// Result2PC summarizes a sharded sweep.
type Result2PC struct {
	// Barriers holds the per-heap barrier count of one full workload run:
	// one entry per shard, then one for the coordinator.
	Barriers []int
	Points   int      // crash points exercised
	Failures []string // one entry per failing point
	Dirs     []string // kept point directories (Config2PC.Keep)
}

func (r *Result2PC) failf(format string, args ...any) {
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

func open2PC(dir string, cfg Config2PC, shadow bool) (*shard.Engine, error) {
	return shard.Open(shard.Config{
		Config: core.Config{
			Mode:        txn.ModeNVM,
			Dir:         dir,
			NVMHeapSize: cfg.HeapSize,
			NVMShadow:   shadow,
		},
		Shards: cfg.Shards,
	})
}

// heaps2PC lists every heap of the sharded engine: the shard heaps in
// order, then the coordinator heap.
func heaps2PC(e *shard.Engine) []*nvm.Heap {
	hs := e.Heaps()
	if c := e.Coordinator(); c != nil {
		hs = append(hs, c.Heap())
	}
	return hs
}

func heapName2PC(i, shards int) string {
	if i < shards {
		return fmt.Sprintf("shard-%d", i)
	}
	return "coord"
}

// Workload2PC is the standard sharded crash workload: single-shard
// committed transactions (fast path), cross-shard committed transactions
// (two-phase commit), an aborted cross-shard transaction, a cross-shard
// mixed insert+delete and a final cross-shard batch. Deterministic for a
// fixed shard count: keys are chosen by scanning the integers for ids
// that hash to each shard, so the same points recur on every run.
func Workload2PC(e *shard.Engine, rec *Recorder) error {
	sch, err := ordersSchema()
	if err != nil {
		return err
	}
	tbl, err := e.CreateTable("orders", sch, "customer")
	if err != nil {
		return err
	}

	// Six deterministic ids per shard.
	const perShard = 6
	byShard := make([][]int64, e.Shards())
	for id, filled := int64(0), 0; filled < e.Shards()*perShard; id++ {
		s := e.ShardOf(storage.Int(id))
		if len(byShard[s]) < perShard {
			byShard[s] = append(byShard[s], id)
			filled++
		}
	}

	commit := func(ins, del []int64) error {
		tx := e.Begin()
		rec.begin(ins, del)
		for _, id := range ins {
			if _, err := tx.Insert(tbl, orderRow(id)); err != nil {
				return err
			}
		}
		for _, id := range del {
			rows, err := tx.Select(context.Background(), tbl,
				exec.Pred{Col: 0, Op: exec.Eq, Val: storage.Int(id)})
			if err != nil {
				return err
			}
			if len(rows) != 1 {
				return fmt.Errorf("crashtest: id %d matches %d rows, want 1", id, len(rows))
			}
			if err := tx.Delete(tbl, rows[0]); err != nil {
				return err
			}
		}
		if err := tx.Commit(); err != nil {
			return err
		}
		rec.committed()
		return nil
	}

	// Single-shard commits: one per shard, exercising each shard's
	// unmodified fast path under the sharded engine.
	for s := 0; s < e.Shards(); s++ {
		if err := commit(byShard[s][:2], nil); err != nil {
			return err
		}
	}
	// Cross-shard commits: 2PC across shard pairs (0,1), (1,2), ...
	for s := 0; s < e.Shards(); s++ {
		n := (s + 1) % e.Shards()
		if err := commit([]int64{byShard[s][2], byShard[n][3]}, nil); err != nil {
			return err
		}
	}
	// Aborted cross-shard transaction: nothing of it may ever surface.
	{
		tx := e.Begin()
		ids := []int64{byShard[0][4], byShard[1][4]}
		rec.begin(ids, nil)
		for _, id := range ids {
			if _, err := tx.Insert(tbl, orderRow(id)); err != nil {
				return err
			}
		}
		if err := tx.Abort(); err != nil {
			return err
		}
		rec.abortedTxn()
	}
	// Cross-shard mixed transaction: inserts on every shard plus a
	// delete of a row committed by the fast path above.
	var mixed []int64
	for s := 0; s < e.Shards(); s++ {
		mixed = append(mixed, byShard[s][5])
	}
	if err := commit(mixed, []int64{byShard[0][0]}); err != nil {
		return err
	}
	// Final cross-shard batch, so the last barriers of the run sit
	// inside the 2PC window.
	return commit([]int64{byShard[0][1] + 1000000, byShard[1][1] + 1000000}, nil)
}

// VerifyRecovered2PC checks a recovered sharded engine against the
// recorder, with the same contract as VerifyRecovered plus cross-shard
// atomicity: the in-flight transaction's all-or-nothing check spans
// every shard it touched.
func VerifyRecovered2PC(e *shard.Engine, rec *Recorder) error {
	tbl, err := e.Table("orders")
	if err != nil {
		return rec.tableLost()
	}
	tx := e.Begin()
	rows, err := tx.Select(context.Background(), tbl)
	if err != nil {
		return err
	}
	got := make(map[int64]bool, len(rows))
	for _, r := range rows {
		vals, err := tx.Row(context.Background(), tbl, r)
		if err != nil {
			return err
		}
		id := vals[0].I
		if got[id] {
			return fmt.Errorf("crashtest: id %d visible twice", id)
		}
		got[id] = true
	}
	return rec.verify(got)
}

// CountBarriers2PC runs the workload once, without crashing, and returns
// the per-heap persist-barrier counts (shards in order, then the
// coordinator).
func CountBarriers2PC(dir string, cfg Config2PC) ([]int64, error) {
	e, err := open2PC(dir, cfg, false)
	if err != nil {
		return nil, err
	}
	defer e.Close()
	hs := heaps2PC(e)
	before := make([]uint64, len(hs))
	for i, h := range hs {
		before[i] = h.Stats().Fences
	}
	if err := Workload2PC(e, NewRecorder()); err != nil {
		return nil, err
	}
	counts := make([]int64, len(hs))
	for i, h := range hs {
		counts[i] = int64(h.Stats().Fences - before[i])
	}
	return counts, nil
}

// Run2PC executes the sharded crash matrix: one counting pass, then one
// fresh database per (heap, barrier, seed) point, crashed at exactly
// that barrier of that heap, reopened, fscked and verified. It returns
// an error only when the sweep itself could not run; protocol violations
// are reported in Result2PC.Failures.
func Run2PC(cfg Config2PC) (*Result2PC, error) {
	cfg.defaults()
	if cfg.Dir == "" {
		return nil, errors.New("crashtest: Config2PC.Dir is required")
	}
	counts, err := CountBarriers2PC(filepath.Join(cfg.Dir, "count"), cfg)
	if err != nil {
		return nil, fmt.Errorf("crashtest: 2pc counting pass: %w", err)
	}
	if !cfg.Keep {
		os.RemoveAll(filepath.Join(cfg.Dir, "count"))
	}
	res := &Result2PC{}
	for _, n := range counts {
		res.Barriers = append(res.Barriers, int(n))
	}

	want := map[string]bool{}
	for _, h := range cfg.Heaps {
		want[h] = true
	}
	for hi, n := range counts {
		if len(want) > 0 && !want[heapName2PC(hi, cfg.Shards)] {
			continue
		}
		stride := int64(1)
		if cfg.MaxBarriers > 0 && n > int64(cfg.MaxBarriers) {
			stride = (n + int64(cfg.MaxBarriers) - 1) / int64(cfg.MaxBarriers)
		}
		var barriers []int64
		for b := int64(1); b <= n; b += stride {
			barriers = append(barriers, b)
		}
		if len(barriers) == 0 || barriers[len(barriers)-1] != n {
			barriers = append(barriers, n)
		}
		name := heapName2PC(hi, cfg.Shards)
		for _, b := range barriers {
			for _, seed := range cfg.TearSeeds {
				dir := filepath.Join(cfg.Dir, fmt.Sprintf("%s_b%05d_s%d", name, b, seed))
				fail := runPoint2PC(cfg, dir, hi, b, seed)
				res.Points++
				if fail != "" {
					res.failf("heap %s barrier %d/%d seed %d: %s", name, b, n, seed, fail)
				}
				if cfg.Keep {
					res.Dirs = append(res.Dirs, dir)
				} else {
					os.RemoveAll(dir)
				}
				if fail != "" && cfg.FailFast {
					return res, nil
				}
			}
		}
	}
	return res, nil
}

// runPoint2PC runs the sharded workload on a fresh database, crashes the
// whole machine when the target heap reaches the given barrier, then
// reopens, fscks and verifies. Returns "" on success.
func runPoint2PC(cfg Config2PC, dir string, heapIdx int, barrier, seed int64) (fail string) {
	e, err := open2PC(dir, cfg, true)
	if err != nil {
		return fmt.Sprintf("open: %v", err)
	}
	hs := heaps2PC(e)
	target := hs[heapIdx]
	target.SetTearSeed(seed)
	target.SetTearFlushed(true)
	rec := NewRecorder()
	crashed := false
	func() {
		defer func() {
			if r := recover(); r != nil {
				if rerr, ok := r.(error); ok && errors.Is(rerr, nvm.ErrSimulatedCrash) {
					crashed = true
					return
				}
				panic(r)
			}
		}()
		target.FailAfter(barrier)
		if werr := Workload2PC(e, rec); werr != nil {
			fail = fmt.Sprintf("workload: %v", werr)
		}
	}()
	// A power failure takes the whole machine: the instant the target's
	// fail-point fired, every other heap loses its un-persisted lines
	// too. As in the single-engine matrix, the engine is in an arbitrary
	// mid-protocol state, so drop it and close the mappings directly.
	for _, h := range hs {
		if crashed {
			h.Crash()
		}
		h.Close()
	}
	if fail != "" {
		return fail
	}
	if !crashed {
		return fmt.Sprintf("workload finished before barrier %d fired", barrier)
	}

	re, err := open2PC(dir, cfg, false)
	if err != nil {
		return fmt.Sprintf("reopen after crash: %v", err)
	}
	defer re.Close()
	if err := re.Fsck(); err != nil {
		return fmt.Sprintf("fsck: %v", err)
	}
	if err := VerifyRecovered2PC(re, rec); err != nil {
		return fmt.Sprintf("verify: %v", err)
	}
	return ""
}
