package crashtest

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"hyrisenv/internal/core"
	"hyrisenv/internal/nvm"
	"hyrisenv/internal/txn"
)

// Config parameterizes a crash-matrix sweep.
type Config struct {
	// Dir is the parent directory; every crash point gets its own
	// subdirectory (and heap file) under it.
	Dir string
	// HeapSize is the NVM heap size per point (default 64 MiB).
	HeapSize uint64
	// HeapMaxSize, when non-zero, lets each point's heap grow online from
	// HeapSize up to this bound, so that a workload that outgrows a small
	// HeapSize sweeps the growth barriers too.
	HeapMaxSize uint64
	// Shadow selects the pessimistic crash model. With it off the sweep
	// runs under the optimistic model — useful only as a baseline to
	// demonstrate what optimism cannot catch.
	Shadow bool
	// MaxBarriers bounds how many barriers are exercised; when the
	// workload has more, they are sampled at a uniform stride (the final
	// barrier is always included). 0 means every barrier.
	MaxBarriers int
	// TearSeeds lists the crash behaviors tried at each barrier: seed 0 is
	// pure loss (every dirty line reverts whole), non-zero seeds tear
	// dirty lines — those flushed for the barrier the cut falls on
	// included — at 8-byte granularity deterministically. Default {0}.
	TearSeeds []int64
	// Keep leaves each point's directory (with its post-crash, recovered
	// heap) on disk instead of deleting it, so external tools — e.g.
	// `hyrise-nv fsck` — can be pointed at the survivors.
	Keep bool
	// FailFast stops the sweep at the first failing point.
	FailFast bool
	// Workload overrides the standard workload.
	Workload func(*core.Engine, *Recorder) error
}

func (c *Config) defaults() {
	if c.HeapSize == 0 {
		c.HeapSize = 64 << 20
	}
	if len(c.TearSeeds) == 0 {
		c.TearSeeds = []int64{0}
	}
	if c.Workload == nil {
		c.Workload = Workload
	}
}

// Result summarizes a sweep.
type Result struct {
	Barriers int      // persist barriers in one full workload run
	Points   int      // crash points exercised (barriers x seeds)
	Failures []string // one entry per failing point
	Dirs     []string // kept point directories (Config.Keep)
}

func (r *Result) failf(format string, args ...any) {
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// open opens (or reopens) one point's engine.
func (c Config) open(dir string, shadow bool) (*core.Engine, error) {
	return core.Open(core.Config{
		Mode:           txn.ModeNVM,
		Dir:            dir,
		NVMHeapSize:    c.HeapSize,
		NVMHeapMaxSize: c.HeapMaxSize,
		NVMShadow:      shadow,
	})
}

// countBarriers runs the workload once, without crashing, and returns the
// number of persist barriers it issues between engine open and the end of
// the workload. The workload must be deterministic for the count to be
// meaningful.
func (c Config) countBarriers(dir string) (int64, error) {
	e, err := c.open(dir, false)
	if err != nil {
		return 0, err
	}
	defer e.Close()
	before := e.Heap().Stats().Fences
	if err := c.Workload(e, NewRecorder()); err != nil {
		return 0, err
	}
	return int64(e.Heap().Stats().Fences - before), nil
}

// Run executes the crash matrix: one full counting pass, then one fresh
// database per (barrier, seed) pair, crashed at exactly that barrier with
// that tear behavior, reopened, fscked and verified. It returns an error
// only when the sweep itself could not run; protocol violations are
// reported in Result.Failures.
func Run(cfg Config) (*Result, error) {
	cfg.defaults()
	if cfg.Dir == "" {
		return nil, errors.New("crashtest: Config.Dir is required")
	}
	n, err := cfg.countBarriers(filepath.Join(cfg.Dir, "count"))
	if err != nil {
		return nil, fmt.Errorf("crashtest: counting pass: %w", err)
	}
	if !cfg.Keep {
		os.RemoveAll(filepath.Join(cfg.Dir, "count"))
	}
	res := &Result{Barriers: int(n)}

	stride := int64(1)
	if cfg.MaxBarriers > 0 && n > int64(cfg.MaxBarriers) {
		stride = (n + int64(cfg.MaxBarriers) - 1) / int64(cfg.MaxBarriers)
	}
	var barriers []int64
	for i := int64(1); i <= n; i += stride {
		barriers = append(barriers, i)
	}
	if len(barriers) == 0 || barriers[len(barriers)-1] != n {
		barriers = append(barriers, n)
	}

	for _, b := range barriers {
		for _, seed := range cfg.TearSeeds {
			dir := filepath.Join(cfg.Dir, fmt.Sprintf("b%05d_s%d", b, seed))
			fail := runPoint(cfg, dir, b, seed)
			res.Points++
			if fail != "" {
				res.failf("barrier %d/%d seed %d: %s", b, n, seed, fail)
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
	return res, nil
}

// runPoint runs the workload on a fresh database, crashes it at the given
// barrier with the given tear seed, then reopens, fscks and verifies.
// Returns "" on success, a description on failure.
func runPoint(cfg Config, dir string, barrier int64, seed int64) (fail string) {
	e, err := cfg.open(dir, cfg.Shadow)
	if err != nil {
		return fmt.Sprintf("open: %v", err)
	}
	h := e.Heap()
	h.SetTearSeed(seed)
	h.SetTearFlushed(true)
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
		h.FailAfter(barrier)
		if werr := cfg.Workload(e, rec); werr != nil {
			fail = fmt.Sprintf("workload: %v", werr)
		}
	}()
	// After a simulated crash the engine is in an arbitrary mid-protocol
	// state (a commit panic can leave internal locks held), so Close is
	// not safe; drop the engine and close the heap mapping directly — the
	// mapping already holds exactly the post-power-loss image.
	h.Close()
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
	if _, err := re.Fsck(); err != nil {
		return fmt.Sprintf("fsck: %v", err)
	}
	if err := VerifyRecovered(re, rec); err != nil {
		return fmt.Sprintf("verify: %v", err)
	}
	return ""
}
