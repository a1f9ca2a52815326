package bench

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"hyrisenv/internal/core"
	"hyrisenv/internal/disk"
	"hyrisenv/internal/exec"
	"hyrisenv/internal/nvm"
	"hyrisenv/internal/shard"
	"hyrisenv/internal/storage"
	"hyrisenv/internal/txn"
	"hyrisenv/internal/workload"
)

// Scale bounds an experiment run. Quick keeps the full suite near a
// minute; Full stretches the sweeps for clearer asymptotics.
type Scale struct {
	// E1Sizes are the restart sweep's sizes, which E1 and M1 share. M1
	// calibrates at the first and A6 runs at the second.
	E1Sizes []int
	E3Rows  int
	E3Ops   int
	Threads int
}

// QuickScale is the fast default.
var QuickScale = Scale{
	E1Sizes: []int{5000, 20000, 50000, 100000},
	E3Rows:  10000, E3Ops: 8000, Threads: 4,
}

// FullScale stretches the sweeps.
var FullScale = Scale{
	E1Sizes: []int{10000, 50000, 100000, 200000, 400000},
	E3Rows:  20000, E3Ops: 20000, Threads: 8,
}

// Env is one run of the suite: where the engines keep their files, the
// scale, the log device's model, and the restart sweep E1 and M1 share,
// taken the first time either asks for it.
type Env struct {
	Dir   string
	Scale Scale
	Disk  disk.Model
	sweep []sample
}

// Experiment is one table of the suite.
type Experiment struct {
	ID  string
	Run func(*Env) (*Report, error)
}

// Experiments lists the suite in the order it prints.
var Experiments = []Experiment{
	{"e1", E1Recovery},
	{"e3", E3LatencySweep},
	{"m1", M1RecoveryModel},
	{"a6", A6CheckpointCompression},
}

// Select returns the experiments a comma-separated id list names, in
// suite order; "all" names every one. An id the suite does not have is
// an error that lists the ones it does.
func Select(ids string) ([]Experiment, error) {
	want := map[string]bool{}
	for _, id := range strings.Split(ids, ",") {
		want[strings.ToLower(strings.TrimSpace(id))] = true
	}
	var out []Experiment
	valid := make([]string, len(Experiments))
	for i, ex := range Experiments {
		valid[i] = ex.ID
		if want["all"] || want[ex.ID] {
			out = append(out, ex)
			delete(want, ex.ID)
		}
	}
	delete(want, "all")
	for id := range want {
		return nil, fmt.Errorf("unknown experiment %q; valid ids: %s or all", id, strings.Join(valid, ", "))
	}
	return out, nil
}

// heapFor sizes the simulated NVM device for n rows of the orders
// dataset (generous, including index and MVCC overheads).
func heapFor(n int) uint64 { return 64<<20 + uint64(n)*1500 }

// openFleet opens a fleet of one, the database the workload package
// loads.
func openFleet(cfg core.Config) (*shard.Engine, error) {
	return shard.Open(shard.Config{Config: cfg})
}

// --- E1: recovery time vs dataset size (the headline experiment) -------------

// sample is one size of the restart sweep: n rows loaded, n/10 more
// committed after the log engine's checkpoint, then both engines
// restarted once.
type sample struct {
	Rows     int
	Log, NVM txn.RecoveryStats
	// NVMPages is the heap pages present in the process after the NVM
	// reopen and its first query, a point read: what the restart read.
	NVMPages uint64
}

// restarts returns the restart sweep at the run's sizes, taking it on
// the first call.
func (env *Env) restarts() ([]sample, error) {
	if env.sweep == nil {
		sweep, err := restartSweep(env.Dir, env.Scale.E1Sizes, env.Disk)
		if err != nil {
			return nil, err
		}
		env.sweep = sweep
	}
	return env.sweep, nil
}

// restartSweep loads identical datasets into the log-based and the NVM
// engine at each size, restarts each once and checks that the first
// answers after the restart are right.
func restartSweep(workDir string, sizes []int, model disk.Model) ([]sample, error) {
	out := make([]sample, len(sizes))
	for i, n := range sizes {
		r := &out[i]
		r.Rows = n
		logCfg := core.Config{Mode: txn.ModeLog, Dir: filepath.Join(workDir, fmt.Sprintf("e1-log-%d", n)), DiskModel: model}
		nvmCfg := core.Config{Mode: txn.ModeNVM, Dir: filepath.Join(workDir, fmt.Sprintf("e1-nvm-%d", n)), NVMHeapSize: heapFor(n + n/10)}
		if err := restartOnce(logCfg, n, &r.Log, nil); err != nil {
			return nil, fmt.Errorf("E1 log n=%d: %w", n, err)
		}
		if err := restartOnce(nvmCfg, n, &r.NVM, &r.NVMPages); err != nil {
			return nil, fmt.Errorf("E1 nvm n=%d: %w", n, err)
		}
	}
	return out, nil
}

// restartOnce loads n rows into a fresh engine, checkpoints it (log
// mode), commits n/10 more, closes it and reopens it. It records the
// reopen's recovery stats and, when pages is set, the heap pages present
// after the first query.
func restartOnce(cfg core.Config, n int, stats *txn.RecoveryStats, pages *uint64) error {
	defer os.RemoveAll(cfg.Dir)
	e, err := openFleet(cfg)
	if err != nil {
		return err
	}
	spec := workload.DefaultSpec(n)
	tbl, err := workload.Load(e, "orders", spec)
	if err == nil && cfg.Mode == txn.ModeLog {
		err = e.Checkpoint()
	}
	var tail workload.RunStats
	if err == nil {
		tail = workload.RunMixed(e, tbl, spec, workload.Mix{InsertPct: 100}, n/10, 1)
	}
	if cerr := e.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if e, err = openFleet(cfg); err != nil {
		return err
	}
	defer e.Close()
	*stats = e.RecoveryStats()
	if tbl, err = e.Table("orders"); err != nil {
		return err
	}
	ctx := context.Background()
	got, err := e.Begin().Select(ctx, tbl, exec.Pred{Col: workload.ColID, Op: exec.Eq, Val: storage.Int(0)})
	if err != nil {
		return err
	}
	if len(got) != 1 {
		return fmt.Errorf("first query found %d rows with id 0, want 1", len(got))
	}
	if pages != nil {
		for _, h := range e.Heaps() {
			p, err := h.ResidentPages()
			if err != nil {
				return err
			}
			*pages += p
		}
	}
	count, err := e.Begin().Count(ctx, tbl)
	if err != nil {
		return err
	}
	if want := n + tail.Commits; count != want {
		return fmt.Errorf("recovered %d rows, want %d", count, want)
	}
	return nil
}

// E1Recovery prints the restart sweep: time to first query of the
// log-based and the NVM engine, the log restart's checkpoint load, log
// replay and index rebuild, and two counts of the work each restart
// did. The paper's numbers: 92.2 GB → ~53 s log-based vs < 1 s
// Hyrise-NV; the shapes to reproduce are "linear in size" vs "flat".
func E1Recovery(env *Env) (*Report, error) {
	sweep, err := env.restarts()
	if err != nil {
		return nil, err
	}
	r := &Report{
		ID:    "E1",
		Title: "recovery time vs dataset size (log-based vs Hyrise-NV)",
		Headers: []string{"rows", "ckpt size", "log total", "ckpt load", "replay", "idx rebuild",
			"nvm total", "speedup", "replayed", "nvm pages"},
	}
	for _, s := range sweep {
		r.AddRow(
			fmt.Sprintf("%d", s.Rows),
			fmtBytes(s.Log.CheckpointBytes),
			fmtDur(s.Log.Total),
			fmtDur(s.Log.CheckpointLoad),
			fmtDur(s.Log.LogReplay),
			fmtDur(s.Log.IndexRebuild),
			fmtDur(s.NVM.Total),
			fmt.Sprintf("%.0fx", float64(s.Log.Total)/float64(s.NVM.Total)),
			fmt.Sprintf("%d", s.Log.ReplayRecords),
			fmt.Sprintf("%d", s.NVMPages),
		)
	}
	r.AddNote("paper: 92.2GB dataset recovers in ~53s log-based vs <1s on NVM (>=53x); " +
		"expected shape: log total linear in rows, nvm total flat")
	r.AddNote("a tenth more rows is committed after the log engine's checkpoint; " +
		"ckpt load, replay and idx rebuild are the log restart's parts")
	r.AddNote("replayed: log records the log restart replayed; nvm pages: heap pages " +
		"present after the NVM reopen and a point read — counts, not timings")
	return r, nil
}

// --- E3: sensitivity to NVM write latency ------------------------------------

// E3LatencySweep reruns the write-heavy mix with increasing emulated NVM
// write latencies (the paper's emulation platform sweeps the same knob).
// Expected shape: monotonically decreasing throughput.
func E3LatencySweep(env *Env) (*Report, error) {
	r := &Report{
		ID:      "E3",
		Title:   "write-heavy throughput vs emulated NVM write latency",
		Headers: []string{"write latency", "fence latency", "ops/s", "relative"},
	}
	s := env.Scale
	var base float64
	for _, lat := range []int64{0, 90, 200, 500, 900} {
		dir := filepath.Join(env.Dir, fmt.Sprintf("e3-%d", lat))
		e, err := openFleet(core.Config{Mode: txn.ModeNVM, Dir: dir, NVMHeapSize: heapFor(s.E3Rows * 3),
			NVMLatency: nvm.LatencyModel{WriteNS: lat, FenceNS: lat / 3}})
		if err != nil {
			return nil, err
		}
		spec := workload.DefaultSpec(s.E3Rows)
		tbl, err := workload.Load(e, "orders", spec)
		if err != nil {
			return nil, err
		}
		stats := workload.RunMixed(e, tbl, spec, workload.WriteHeavy, s.E3Ops, s.Threads)
		e.Close()
		os.RemoveAll(dir)
		ops := stats.OpsPerSec()
		if base == 0 {
			base = ops
		}
		r.AddRow(fmt.Sprintf("%dns", lat), fmt.Sprintf("%dns", lat/3),
			fmtF(ops), fmt.Sprintf("%.2f", ops/base))
	}
	r.AddNote("expected shape: throughput decreases monotonically with injected latency")
	return r, nil
}
