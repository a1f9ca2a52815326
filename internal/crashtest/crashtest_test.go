package crashtest

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hyrisenv/internal/pstruct"
	"hyrisenv/internal/shard"
)

// sweepConfig builds the matrix configuration for a fleet of the given
// size: every barrier under four tear behaviors. When CRASHMATRIX_KEEP
// names a parent directory, it keeps the per-point databases under a
// subdirectory named after the test instead, for an external fsck, and
// bounds the sweep to keepBarriers per heap under two behaviors, so
// that it leaves dozens of databases on disk rather than thousands.
func sweepConfig(t *testing.T, shards, keepBarriers int) Config {
	t.Helper()
	cfg := Config{Shards: shards, Shadow: true, TearSeeds: []int64{0, 1, 2, 3}}
	if keep := os.Getenv("CRASHMATRIX_KEEP"); keep != "" {
		cfg.Dir = filepath.Join(keep, t.Name())
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			t.Fatal(err)
		}
		cfg.Keep, cfg.MaxBarriers, cfg.TearSeeds = true, keepBarriers, []int64{0, 0x5eed}
	}
	return cfg
}

func reportFailures(t *testing.T, res *Result) {
	t.Helper()
	for _, f := range res.Failures {
		t.Errorf("crash point failed: %s", f)
	}
	t.Logf("crash matrix: per-heap barriers %v, %d points exercised, %d failures",
		res.Barriers, res.Points, len(res.Failures))
}

// TestCrashMatrix is the headline robustness test: the standard workload
// is crashed at every one of its persist barriers under the pessimistic
// shadow model, with pure-loss and three tearing crash behaviors, and
// every resulting heap must recover, pass the full fsck and agree with
// the application's crash-time knowledge.
func TestCrashMatrix(t *testing.T) {
	res, err := Run(sweepConfig(t, 1, 24))
	if err != nil {
		t.Fatal(err)
	}
	reportFailures(t, res)
}

// TestCrashMatrixGenerative sweeps seeded random workloads (see
// Generative) the way TestCrashMatrix sweeps the fixed one: three seeds
// at 48 sampled barriers under pure loss and one tear by default, eight
// longer seeds at every barrier under four tear behaviors with
// CRASHMATRIX_FULL=1.
func TestCrashMatrixGenerative(t *testing.T) {
	seeds, steps := []int64{1, 2, 3}, 60
	full := os.Getenv("CRASHMATRIX_FULL") != ""
	if full {
		seeds, steps = []int64{1, 2, 3, 4, 5, 6, 7, 8}, 90
	}
	for _, seed := range seeds {
		cfg := Config{Shadow: true, TearSeeds: []int64{0, 1, 2, 3}, Workload: Generative(seed, steps)}
		if !full {
			cfg.MaxBarriers, cfg.TearSeeds = 48, []int64{0, 0x5eed}
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		t.Logf("seed %d:", seed)
		reportFailures(t, res)
	}
}

// TestCrashMatrix2PC sweeps every persist barrier of every heap of a
// 2-shard database — both shards and the coordinator — through the
// cross-shard workload: each point cuts power machine-wide at one
// barrier of one heap, and after recovery every acknowledged cross-shard
// commit must be atomically visible, the in-flight transaction applied
// all-or-nothing across shards, and every shard's fsck clean.
func TestCrashMatrix2PC(t *testing.T) {
	res, err := Run(sweepConfig(t, 2, 12))
	if err != nil {
		t.Fatal(err)
	}
	reportFailures(t, res)
}

// TestGroupCommitNeedsFleetOfOne pins that the workloads that run a
// single-heap persist group refuse a sharded fleet instead of sweeping
// a group whose members wrote to other shards.
func TestGroupCommitNeedsFleetOfOne(t *testing.T) {
	for name, w := range map[string]func(*shard.Engine, *Recorder) error{
		"standard": Workload, "generative": Generative(1, 60),
	} {
		if _, err := Run(Config{Shards: 2, Workload: w}); err == nil || !strings.Contains(err.Error(), "fleet of one") {
			t.Errorf("%s workload in a fleet of two: err = %v, want a refused group commit", name, err)
		}
	}
}

// smallWorkload is a minimal workload for the detection-power test:
// enough transactions to exercise the append protocol, small enough that
// an exhaustive barrier sweep stays cheap.
func smallWorkload(e *shard.Engine, rec *Recorder) error {
	sch, err := ordersSchema()
	if err != nil {
		return err
	}
	tbl, err := e.CreateTable("orders", sch, "customer")
	if err != nil {
		return err
	}
	for id := int64(0); id < 4; id++ {
		if err := insertTxn(e, tbl, rec, id); err != nil {
			return err
		}
	}
	return nil
}

// TestBrokenProtocolCaughtOnlyByShadow demonstrates the detection power
// the pessimistic model adds: with the element persist deliberately
// removed from Vector.Append (a classic missing-barrier bug), the
// optimistic model — where every store survives a crash — reports every
// crash point clean, while the shadow model loses the unpersisted
// element and the fsck/verification pass catches the corruption.
func TestBrokenProtocolCaughtOnlyByShadow(t *testing.T) {
	pstruct.SetBrokenSkipElemPersist(true)
	defer pstruct.SetBrokenSkipElemPersist(false)

	optimistic, err := Run(Config{
		Shadow:   false,
		Workload: smallWorkload,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(optimistic.Failures) != 0 {
		t.Fatalf("optimistic model caught the broken protocol, which it should be unable to: %v",
			optimistic.Failures)
	}

	shadow, err := Run(Config{
		Shadow:   true,
		Workload: smallWorkload,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(shadow.Failures) == 0 {
		t.Fatalf("shadow model missed the broken protocol across all %d points", shadow.Points)
	}
	t.Logf("broken protocol: optimistic 0/%d points flagged, shadow %d/%d points flagged",
		optimistic.Points, len(shadow.Failures), shadow.Points)
}
