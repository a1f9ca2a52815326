package server_test

import (
	"math/rand"
	"testing"
	"time"

	"hyrisenv/client"
	"hyrisenv/internal/core"
	"hyrisenv/internal/disk"
	"hyrisenv/internal/server"
	"hyrisenv/internal/shard"
	"hyrisenv/internal/txn"
	"hyrisenv/internal/workload"
)

// restartModel slows only reads, so loading stays fast while log replay
// at recovery pays a deterministic, size-proportional cost — the modeled
// stand-in for the paper's checkpoint+log recovery bottleneck.
var restartModel = disk.Model{ReadBandwidth: 4 << 20}

// measureRestart loads size rows, serves them, crashes the server with
// an uncommitted transaction in flight (no engine close — the simulated
// power failure), reopens on the same address, and returns the
// client-observed downtime: crash-to-first-successful-query, as seen by
// a pooled client that keeps retrying.
func measureRestart(t *testing.T, mode txn.Mode, size int) time.Duration {
	t.Helper()
	dir := t.TempDir()
	cfg := shard.Config{Config: core.Config{Mode: mode, Dir: dir, NVMHeapSize: 256 << 20, DiskModel: restartModel}}
	eng, err := shard.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := workload.Load(eng, "orders", workload.DefaultSpec(size)); err != nil {
		t.Fatal(err)
	}
	srv, err := server.Listen(eng, "127.0.0.1:0", server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()

	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if n, err := c.Count("orders"); err != nil || n != size {
		t.Fatalf("pre-crash count = %d, %v; want %d", n, err, size)
	}

	// Leave a transaction open across the crash. (The in-process Close
	// aborts it server-side; the daemon tests cover the SIGKILL case
	// where recovery itself must roll it back.)
	tx, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	spec := workload.DefaultSpec(size)
	rng := rand.New(rand.NewSource(spec.Seed))
	if _, err := tx.Insert("orders", spec.Row(rng, size+1)...); err != nil {
		t.Fatal(err)
	}

	// Crash: the server dies mid-transaction and the engine is abandoned
	// without Close — no checkpoint, no clean shutdown.
	srv.Close()

	crash := time.Now()
	eng2, err := shard.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv2, err := server.Listen(eng2, addr, server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv2.Close()
		eng2.Close()
	})

	// The client retries through its pool until the server answers again.
	deadline := time.Now().Add(30 * time.Second)
	for {
		n, err := c.Count("orders")
		if err == nil {
			if n != size {
				t.Fatalf("post-restart count = %d, want %d (in-flight txn must be rolled back)", n, size)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never came back: %v", err)
		}
	}
	return time.Since(crash)
}

// TestRestartClientObservedDowntime is the wire-level instant-restart
// experiment: after a crash, NVM-mode downtime is independent of the
// dataset size while log-mode downtime grows with it (checkpoint load +
// log replay + index rebuild).
func TestRestartClientObservedDowntime(t *testing.T) {
	if testing.Short() {
		t.Skip("restart measurement skipped in -short")
	}
	const small, large = 2000, 8000 // ≥4× apart

	nvmSmall := measureRestart(t, txn.ModeNVM, small)
	nvmLarge := measureRestart(t, txn.ModeNVM, large)
	logSmall := measureRestart(t, txn.ModeLog, small)
	logLarge := measureRestart(t, txn.ModeLog, large)
	t.Logf("client-observed downtime: nvm %v -> %v, log %v -> %v (rows %d -> %d)",
		nvmSmall, nvmLarge, logSmall, logLarge, small, large)

	// NVM: size-independent. Clamp to a noise floor so sub-millisecond
	// scheduler jitter cannot fake a ratio.
	const floor = 25 * time.Millisecond
	clamp := func(d time.Duration) time.Duration {
		if d < floor {
			return floor
		}
		return d
	}
	if ratio := float64(clamp(nvmLarge)) / float64(clamp(nvmSmall)); ratio > 2 {
		t.Errorf("NVM downtime grew with dataset size: %v -> %v (ratio %.2f, want <= 2)",
			nvmSmall, nvmLarge, ratio)
	}
	// Log: replay is size-proportional on the modeled device.
	if logLarge < logSmall*3/2 {
		t.Errorf("log downtime did not grow with dataset size: %v -> %v", logSmall, logLarge)
	}
	if logLarge < 2*clamp(nvmLarge) {
		t.Errorf("log recovery (%v) not slower than NVM (%v) at %d rows", logLarge, nvmLarge, large)
	}
}
