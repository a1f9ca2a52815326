package server_test

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"hyrisenv"
	"hyrisenv/client"
	"hyrisenv/internal/backoff"
	"hyrisenv/internal/core"
	"hyrisenv/internal/disk"
	"hyrisenv/internal/server"
	"hyrisenv/internal/shard"
	"hyrisenv/internal/txn"
	"hyrisenv/internal/workload"
)

// TestMain doubles as the hyrise-nvd daemon when re-exec'd by the
// process-level tests below: a child with HYRISENV_DAEMON_DIR set runs
// server.RunDaemon instead of the test suite, so killing it is a real
// process crash, not a simulated one.
func TestMain(m *testing.M) {
	if os.Getenv("HYRISENV_DAEMON_DIR") != "" {
		runDaemonChild()
		return
	}
	os.Exit(m.Run())
}

func runDaemonChild() {
	mode := txn.ModeNVM
	if os.Getenv("HYRISENV_DAEMON_MODE") == "log" {
		mode = txn.ModeLog
	}
	var model disk.Model
	if bw := os.Getenv("HYRISENV_DAEMON_READBW"); bw != "" {
		n, err := strconv.ParseInt(bw, 10, 64)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		model.ReadBandwidth = n
	}
	addr := os.Getenv("HYRISENV_DAEMON_ADDR")
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	err := server.RunDaemon(server.DaemonConfig{
		Addr: addr,
		Engine: shard.Config{Config: core.Config{
			Mode:        mode,
			Dir:         os.Getenv("HYRISENV_DAEMON_DIR"),
			NVMHeapSize: 256 << 20,
			DiskModel:   model,
		}},
		DrainTimeout: 2 * time.Second,
		Ready:        os.Stdout,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(0)
}

type daemon struct {
	cmd  *exec.Cmd
	addr string
}

// startDaemon re-execs the test binary as a hyrise-nvd child and waits
// for its readiness line. addr "" picks a free port.
func startDaemon(t *testing.T, dir, mode, addr string, readBW int64) *daemon {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(),
		"HYRISENV_DAEMON_DIR="+dir,
		"HYRISENV_DAEMON_MODE="+mode,
		"HYRISENV_DAEMON_ADDR="+addr,
		fmt.Sprintf("HYRISENV_DAEMON_READBW=%d", readBW),
	)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill() //nolint:errcheck — may already be dead
		cmd.Wait()         //nolint:errcheck
	})
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		if a, ok := strings.CutPrefix(sc.Text(), "LISTENING "); ok {
			go io.Copy(io.Discard, stdout) //nolint:errcheck — keep the pipe drained
			return &daemon{cmd: cmd, addr: a}
		}
	}
	t.Fatalf("daemon never reported LISTENING (scanner err: %v)", sc.Err())
	return nil
}

// kill sends SIGKILL — a crash the daemon cannot intercept — and reaps
// the child.
func (d *daemon) kill(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	d.cmd.Wait() //nolint:errcheck — killed on purpose
}

// loadOrders creates and fills the orders table over the wire through
// concurrent pooled connections.
func loadOrders(t *testing.T, c *client.Client, size, workers int) {
	t.Helper()
	sch := workload.Schema()
	cols := make([]hyrisenv.Column, sch.NumCols())
	for i, cd := range sch.Cols {
		cols[i] = hyrisenv.Column{Name: cd.Name, Type: cd.Type}
	}
	if err := c.CreateTable("orders", cols, "id", "customer"); err != nil {
		t.Fatal(err)
	}
	spec := workload.DefaultSpec(size)
	const batch = 250
	var next atomic.Int64
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				lo := int(next.Add(batch)) - batch
				if lo >= size {
					return
				}
				hi := min(lo+batch, size)
				tx, err := c.Begin()
				if err != nil {
					errCh <- err
					return
				}
				for i := lo; i < hi; i++ {
					if _, err := tx.Insert("orders", spec.Row(rng, i)...); err != nil {
						tx.Abort() //nolint:errcheck
						errCh <- err
						return
					}
				}
				if err := tx.Commit(); err != nil {
					errCh <- err
					return
				}
			}
		}(spec.Seed + int64(w))
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
}

// measureDaemonKill is the flagship scenario: ≥32 concurrent client
// connections drive a mixed workload through the pool against a
// re-exec'd hyrise-nvd, the daemon is SIGKILLed mid-workload and
// restarted on the same address, and the workers themselves report when
// service resumed. Returns the client-observed downtime.
func measureDaemonKill(t *testing.T, mode string, size int, readBW int64) time.Duration {
	t.Helper()
	const workers = 32 // concurrent client goroutines, one conn each
	const writers = 4  // of which run insert transactions

	dir := t.TempDir()
	d := startDaemon(t, dir, mode, "", readBW)
	c, err := client.Dial(d.addr, client.Options{
		PoolSize:       workers + 8,
		RequestTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	loadOrders(t, c, size, 8)
	if n, err := c.Count("orders"); err != nil || n != size {
		t.Fatalf("loaded count = %d, %v; want %d", n, err, size)
	}

	spec := workload.DefaultSpec(size)
	var killedAt atomic.Int64    // unix nanos; 0 = still up
	var recoveredAt atomic.Int64 // first post-kill success
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 100))
			fresh := size + w*100000 // disjoint id space per writer
			for {
				select {
				case <-stop:
					return
				default:
				}
				var err error
				if w < writers {
					var tx *client.Tx
					if tx, err = c.Begin(); err == nil {
						fresh++
						if _, err = tx.Insert("orders", spec.Row(rng, fresh)...); err == nil {
							err = tx.Commit()
						} else {
							tx.Abort() //nolint:errcheck
						}
					}
				} else {
					pred := hyrisenv.Pred{Col: "customer", Op: hyrisenv.Eq,
						Val: hyrisenv.Int(int64(rng.Intn(spec.Customers)))}
					_, err = c.Count("orders", pred)
				}
				if err == nil {
					if k := killedAt.Load(); k != 0 {
						recoveredAt.CompareAndSwap(0, time.Now().UnixNano())
						return
					}
				}
			}
		}(w)
	}

	// Let the mixed workload run against the daemon, then pull the plug.
	time.Sleep(250 * time.Millisecond)
	d.kill(t)
	killedAt.Store(time.Now().UnixNano())

	// Restart on the same address; the pooled client re-dials on retry.
	startDaemon(t, dir, mode, d.addr, readBW)

	deadline := time.Now().Add(60 * time.Second)
	pol := backoff.Policy{Base: 2 * time.Millisecond, Max: 25 * time.Millisecond}
	for i := 0; recoveredAt.Load() == 0; i++ {
		if time.Now().After(deadline) {
			close(stop)
			wg.Wait()
			t.Fatal("no worker observed recovery")
		}
		time.Sleep(pol.Delay(i))
	}
	close(stop)
	wg.Wait()
	downtime := time.Duration(recoveredAt.Load() - killedAt.Load())

	// All pre-kill committed rows survived; in-flight writers at the kill
	// were rolled back, so the count is at least the loaded size.
	n, err := c.Count("orders")
	if err != nil {
		t.Fatal(err)
	}
	if n < size {
		t.Fatalf("post-restart count = %d, want >= %d", n, size)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%s/%d rows: downtime %v, recovery %v (replayed %d records, rolled back %d)",
		mode, size, downtime.Round(time.Millisecond), st.Recovery.Round(time.Millisecond),
		st.ReplayRecords, st.RolledBack)
	return downtime
}

// TestDaemonKillRestartUnderLoad reproduces the paper's headline claim
// at the system boundary: with a real daemon process SIGKILLed under a
// 32-connection workload, the client-observed downtime in NVM mode does
// not grow with the dataset, while log-mode downtime does.
func TestDaemonKillRestartUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("daemon kill/restart matrix skipped in -short")
	}
	const small, large = 1500, 6000 // ≥4× apart
	const readBW = 2 << 20          // modeled log-read bandwidth: replay dominates

	nvmSmall := measureDaemonKill(t, "nvm", small, readBW)
	nvmLarge := measureDaemonKill(t, "nvm", large, readBW)
	logSmall := measureDaemonKill(t, "log", small, readBW)
	logLarge := measureDaemonKill(t, "log", large, readBW)

	t.Logf("client-observed downtime: nvm %v -> %v, log %v -> %v (rows %d -> %d)",
		nvmSmall.Round(time.Millisecond), nvmLarge.Round(time.Millisecond),
		logSmall.Round(time.Millisecond), logLarge.Round(time.Millisecond), small, large)

	// NVM is size-independent: both measurements carry the same constant
	// process-respawn cost, so clamp to a floor and bound the ratio.
	const floor = 50 * time.Millisecond
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
	// Log-mode replay is size-proportional on the modeled device: the 4×
	// dataset must cost visibly more than the respawn constant.
	if logLarge < logSmall+100*time.Millisecond {
		t.Errorf("log downtime did not grow with dataset size: %v -> %v", logSmall, logLarge)
	}
	if logLarge < 2*clamp(nvmLarge) {
		t.Errorf("log recovery (%v) not slower than NVM (%v) at %d rows", logLarge, nvmLarge, large)
	}
}

// TestDaemonGracefulShutdown checks the SIGTERM drain path: the daemon
// exits 0, and a restart serves the committed data.
func TestDaemonGracefulShutdown(t *testing.T) {
	dir := t.TempDir()
	d := startDaemon(t, dir, "nvm", "", 0)
	c, err := client.Dial(d.addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	loadOrders(t, c, 200, 2)

	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := d.cmd.Wait(); err != nil {
		t.Fatalf("daemon exit after SIGTERM: %v", err)
	}

	d2 := startDaemon(t, dir, "nvm", "", 0)
	c2, err := client.Dial(d2.addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if n, err := c2.Count("orders"); err != nil || n != 200 {
		t.Fatalf("count after graceful restart = %d, %v; want 200", n, err)
	}
}

// TestDaemonPowerFailureSignal checks the SIGUSR1 "pull the plug" path:
// the daemon exits 2 without closing, and recovery still serves every
// committed row.
func TestDaemonPowerFailureSignal(t *testing.T) {
	dir := t.TempDir()
	d := startDaemon(t, dir, "nvm", "", 0)
	c, err := client.Dial(d.addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	loadOrders(t, c, 200, 2)
	// Leave a transaction in flight across the "power failure".
	tx, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	spec := workload.DefaultSpec(200)
	rng := rand.New(rand.NewSource(7))
	if _, err := tx.Insert("orders", spec.Row(rng, 10001)...); err != nil {
		t.Fatal(err)
	}

	if err := d.cmd.Process.Signal(syscall.SIGUSR1); err != nil {
		t.Fatal(err)
	}
	err = d.cmd.Wait()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 2 {
		t.Fatalf("daemon exit after SIGUSR1: %v, want exit code 2", err)
	}

	d2 := startDaemon(t, dir, "nvm", "", 0)
	c2, err := client.Dial(d2.addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	// The in-flight insert was rolled back by recovery.
	if n, err := c2.Count("orders"); err != nil || n != 200 {
		t.Fatalf("count after power failure = %d, %v; want 200", n, err)
	}
	st, err := c2.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Mode != hyrisenv.NVM {
		t.Fatalf("mode = %v", st.Mode)
	}
}
