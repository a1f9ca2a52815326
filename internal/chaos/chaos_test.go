package chaos

import (
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"testing"
	"time"

	"hyrisenv/internal/core"
	"hyrisenv/internal/fault"
	"hyrisenv/internal/server"
	"hyrisenv/internal/shard"
	"hyrisenv/internal/txn"
)

// childHeapSize is shared by the re-exec'd daemon and the harness's
// offline fsck reopen — they must agree on the device size.
const childHeapSize = 256 << 20

// TestMain doubles as the daemon under chaos when re-exec'd: a child
// with HYRISENV_CHAOS_DIR set runs server.RunDaemon (fault plane armed
// from the spec in the environment) instead of the test suite, so the
// harness's Kill is a real SIGKILL against a real process.
func TestMain(m *testing.M) {
	if os.Getenv("HYRISENV_CHAOS_DIR") != "" {
		runDaemonChild()
		return
	}
	os.Exit(m.Run())
}

func runDaemonChild() {
	shards, _ := strconv.Atoi(os.Getenv("HYRISENV_CHAOS_SHARDS"))
	err := server.RunDaemon(server.DaemonConfig{
		Addr: os.Getenv("HYRISENV_CHAOS_ADDR"),
		Engine: shard.Config{
			Config: core.Config{Mode: txn.ModeNVM, Dir: os.Getenv("HYRISENV_CHAOS_DIR"), NVMHeapSize: childHeapSize},
			Shards: shards,
		},
		FaultSpec: os.Getenv("HYRISENV_CHAOS_FAULT"),
		Ready:     os.Stdout,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(0)
}

// TestChaosKillRestart is the acceptance scenario in miniature (the CI
// chaos-smoke job): kill/restart cycles under mixed pipelined load with
// the fault plane firing on both ends of the wire, zero lost acked
// commits, zero fsck failures, no client-pool deadlock. Fixed seeds
// keep the fault schedule reproducible; CHAOS_CYCLES scales the cycle
// count (default 3 — `make chaos` runs the full 10 via hyrise-nv).
func TestChaosKillRestart(t *testing.T) {
	runChaosKillRestart(t, 1)
}

// TestChaosKillRestartSharded runs the same scenario against a 4-shard
// daemon: writers commit two keys per transaction so kills land inside
// 2PC windows, and verification additionally checks that no pair was
// torn (one half committed without the other).
func TestChaosKillRestartSharded(t *testing.T) {
	runChaosKillRestart(t, 4)
}

func runChaosKillRestart(t *testing.T, shards int) {
	if testing.Short() {
		t.Skip("chaos kill/restart skipped in -short")
	}
	cycles := 3
	if v := os.Getenv("CHAOS_CYCLES"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			t.Fatalf("CHAOS_CYCLES=%q: %v", v, err)
		}
		cycles = n
	}

	dir := t.TempDir()
	// The daemon-side plane: occasional allocation faults (exercising the
	// out-of-space degradation path), persist-latency spikes, drain
	// stalls, and wire faults on every accepted conn.
	const serverFaults = "seed=11,oom=0.0002,spike=0.005:50us,drain=0.002:200us,reset=0.002,partial=0.001,stall=0.001:200us"
	d := &ProcDaemon{NewCmd: func(addr string) *exec.Cmd {
		cmd := exec.Command(os.Args[0], "-test.run=^$")
		cmd.Env = append(os.Environ(),
			"HYRISENV_CHAOS_DIR="+dir,
			"HYRISENV_CHAOS_ADDR="+addr,
			"HYRISENV_CHAOS_SHARDS="+strconv.Itoa(shards),
			"HYRISENV_CHAOS_FAULT="+serverFaults,
		)
		return cmd
	}}

	rep, err := Run(Config{
		Dir:         dir,
		Cycles:      cycles,
		CycleLoad:   300 * time.Millisecond,
		NVMHeapSize: childHeapSize,
		Shards:      shards,
		// The client-side plane: resets and partial writes from the other
		// end of the wire too.
		ClientFaults: fault.Config{Seed: 13, ResetProb: 0.002, PartialWriteProb: 0.001},
		Logf:         t.Logf,
	}, d)
	if err != nil {
		t.Fatalf("chaos run: %v\n%v", err, rep)
	}
	t.Logf("\n%v", rep)
	if !rep.Clean() {
		t.Fatalf("acked-durability contract violated:\n%v", rep)
	}
	if shards > 1 && rep.PairsAcked == 0 {
		t.Fatal("sharded chaos run acked no two-row commits — 2PC path not exercised")
	}
}
