package crashtest

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"hyrisenv/internal/core"
	"hyrisenv/internal/nvm"
	"hyrisenv/internal/shard"
	"hyrisenv/internal/txn"
)

// Config parameterizes a crash-matrix sweep. The sweep enumerates the
// persist barriers of every heap of the database: a fleet of one has
// one heap and no coordinator; a fleet of more has one heap per shard
// plus the coordinator's, and two-phase commit spans all of them.
// Sweeping the coordinator heap covers the decide/forget barriers;
// sweeping the shard heaps covers every single-heap protocol plus
// prepare and commit-prepared.
type Config struct {
	// Dir is the parent directory of the kept points (Keep): every crash
	// point gets its own subdirectory (and database) under it. Without
	// Keep the sweep runs in a directory of its own on tmpfs
	// (nvm.VolatileDir), where creating, mapping and removing a heap per
	// point costs no disk I/O, and removes it when done.
	Dir string
	// Shards is the partition count of every point's database
	// (default 1).
	Shards int
	// HeapSize is the NVM heap size per shard (default 64 MiB for a
	// fleet of one, 16 MiB per shard for a fleet of more).
	HeapSize uint64
	// Shadow selects the pessimistic crash model. With it off the sweep
	// runs under the optimistic model — useful only as a baseline to
	// demonstrate what optimism cannot catch.
	Shadow bool
	// MaxBarriers bounds how many barriers are exercised per heap; when
	// the workload has more, they are sampled at a uniform stride (the
	// final barrier is always included). 0 means every barrier.
	MaxBarriers int
	// TearSeeds lists the crash behaviors tried at each barrier: seed 0 is
	// pure loss (every dirty line reverts whole), non-zero seeds tear
	// dirty lines — those flushed for the barrier the cut falls on
	// included — at 8-byte granularity deterministically. Default {0}.
	TearSeeds []int64
	// Keep leaves each point's directory (with its post-crash, recovered
	// database) under Dir instead of deleting it, so external tools —
	// e.g. `hyrise-nv fsck` — can be pointed at the survivors.
	Keep bool
	// FailFast stops the sweep at the first failing point.
	FailFast bool
	// Workload overrides the standard workload: Workload for a fleet of
	// one, Workload2PC for a fleet of more. It must be deterministic for
	// a fixed configuration, so that the same barriers recur on every
	// run.
	Workload func(*shard.Engine, *Recorder) error
}

func (c *Config) defaults() {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.HeapSize == 0 {
		c.HeapSize = 64 << 20
		if c.Shards > 1 {
			c.HeapSize = 16 << 20
		}
	}
	if len(c.TearSeeds) == 0 {
		c.TearSeeds = []int64{0}
	}
	if c.Workload == nil {
		c.Workload = Workload
		if c.Shards > 1 {
			c.Workload = Workload2PC
		}
	}
}

// Result summarizes a sweep.
type Result struct {
	// Barriers holds the persist-barrier count of one full workload run
	// per heap: one entry per shard, then one for the coordinator.
	Barriers []int
	Points   int      // crash points exercised (barriers x seeds)
	Failures []string // one entry per failing point
	Dirs     []string // kept point directories (Config.Keep)
}

func (r *Result) failf(format string, args ...any) {
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// open opens (or reopens) one point's database.
func (c Config) open(dir string, shadow bool) (*shard.Engine, error) {
	return shard.Open(shard.Config{
		Config: core.Config{
			Mode:        txn.ModeNVM,
			Dir:         dir,
			NVMHeapSize: c.HeapSize,
			NVMShadow:   shadow,
		},
		Shards: c.Shards,
	})
}

// heaps lists every heap of the engine: the shard heaps in order, then
// the coordinator heap if there is one.
func heaps(e *shard.Engine) []*nvm.Heap {
	hs := e.Heaps()
	if c := e.Coordinator(); c != nil {
		hs = append(hs, c.Heap())
	}
	return hs
}

func heapName(i, shards int) string {
	if i < shards {
		return fmt.Sprintf("shard-%d", i)
	}
	return "coord"
}

// countBarriers runs the workload once, without crashing, and returns
// the number of persist barriers it issues on each heap between engine
// open and the end of the workload.
func (c Config) countBarriers(dir string) ([]int64, error) {
	e, err := c.open(dir, false)
	if err != nil {
		return nil, err
	}
	defer e.Close()
	hs := heaps(e)
	before := make([]uint64, len(hs))
	for i, h := range hs {
		before[i] = h.Stats().Fences
	}
	if err := c.Workload(e, NewRecorder()); err != nil {
		return nil, err
	}
	counts := make([]int64, len(hs))
	for i, h := range hs {
		counts[i] = int64(h.Stats().Fences - before[i])
	}
	return counts, nil
}

// Run executes the crash matrix: one full counting pass, then one fresh
// database per (heap, barrier, seed) point, crashed at exactly that
// barrier of that heap with that tear behavior, reopened, fscked and
// verified. It returns an error only when the sweep itself could not
// run; protocol violations are reported in Result.Failures.
func Run(cfg Config) (*Result, error) {
	cfg.defaults()
	root := cfg.Dir
	if !cfg.Keep {
		tmp, err := os.MkdirTemp(nvm.VolatileDir(), "crashtest-*")
		if err != nil {
			return nil, fmt.Errorf("crashtest: %w", err)
		}
		defer os.RemoveAll(tmp)
		root = tmp
	} else if root == "" {
		return nil, errors.New("crashtest: Config.Keep requires Config.Dir")
	}
	counts, err := cfg.countBarriers(filepath.Join(root, "count"))
	if err != nil {
		return nil, fmt.Errorf("crashtest: counting pass: %w", err)
	}
	if !cfg.Keep {
		os.RemoveAll(filepath.Join(root, "count"))
	}
	res := &Result{}
	for _, n := range counts {
		res.Barriers = append(res.Barriers, int(n))
	}

	for hi, n := range counts {
		name := heapName(hi, cfg.Shards)
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
		for _, b := range barriers {
			for _, seed := range cfg.TearSeeds {
				dir := filepath.Join(root, fmt.Sprintf("%s_b%05d_s%d", name, b, seed))
				fail := runPoint(cfg, dir, hi, b, seed)
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

// runPoint runs the workload on a fresh database, cuts power to the
// whole machine when the target heap reaches the given barrier, then
// reopens, fscks and verifies. Returns "" on success, a description on
// failure.
func runPoint(cfg Config, dir string, heapIdx int, barrier, seed int64) (fail string) {
	e, err := cfg.open(dir, cfg.Shadow)
	if err != nil {
		return fmt.Sprintf("open: %v", err)
	}
	hs := heaps(e)
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
		if werr := cfg.Workload(e, rec); werr != nil {
			fail = fmt.Sprintf("workload: %v", werr)
		}
	}()
	// A power failure takes the whole machine: the instant the target's
	// fail-point fired, every other heap loses its un-persisted lines
	// too. The engine is in an arbitrary mid-protocol state (a commit
	// panic can leave internal locks held), so Close is not safe; drop
	// it and close the mappings directly — each already holds exactly
	// its post-power-loss image.
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

	// Recovery + verification run under the optimistic model: the crash
	// already happened, the on-disk image is the truth being examined.
	re, err := cfg.open(dir, false)
	if err != nil {
		return fmt.Sprintf("reopen after crash: %v", err)
	}
	defer re.Close()
	if err := re.Fsck(); err != nil {
		return fmt.Sprintf("fsck: %v", err)
	}
	if err := VerifyRecovered(re, rec); err != nil {
		return fmt.Sprintf("verify: %v", err)
	}
	return ""
}
