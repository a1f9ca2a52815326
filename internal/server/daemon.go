package server

import (
	"context"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"hyrisenv/internal/fault"
	"hyrisenv/internal/shard"
)

// DaemonConfig configures RunDaemon — the shared body of the
// hyrise-nvd command, also driven directly by the integration tests
// (which re-exec the test binary as a daemon child).
type DaemonConfig struct {
	Addr   string       // listen address, e.g. "127.0.0.1:0"
	Engine shard.Config // the engine served: mode, directory, shards, devices
	Server Config

	// DrainTimeout bounds the graceful drain on SIGTERM/SIGINT before
	// stragglers are force-closed. Default 5 s.
	DrainTimeout time.Duration

	// FaultSpec, when non-empty, arms the deterministic fault-injection
	// plane (internal/fault) on the daemon: NVM allocation failures,
	// persist-latency spikes and drain stalls on the engine heap, plus
	// resets, partial-frame writes and read stalls on every accepted
	// connection. Grammar: see fault.ParseSpec. Chaos testing only.
	FaultSpec string

	// Ready, when non-nil, receives one "LISTENING <addr>" line once the
	// server accepts connections — how tests and scripts learn the bound
	// port when Addr uses port 0.
	Ready io.Writer

	// Logf receives daemon lifecycle messages (nil = silent).
	Logf func(format string, args ...any)
}

// RunDaemon opens the engine, serves it on cfg.Addr and blocks until a
// shutdown signal arrives:
//
//   - SIGTERM / SIGINT: graceful drain — stop accepting, finish
//     in-flight requests (bounded by DrainTimeout), abort open
//     transactions, then close the engine. This is the path whose safety
//     depends on Engine.Close being idempotent: a second signal during
//     the drain force-exits through the same Close.
//   - SIGUSR1: simulated power failure — the process exits immediately
//     with no drain and no Close, exactly like `hyrise-nv crash`. Under
//     ModeNVM the next start recovers instantly; under ModeLog it
//     replays the log.
func RunDaemon(cfg DaemonConfig) error {
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if cfg.DrainTimeout == 0 {
		cfg.DrainTimeout = 5 * time.Second
	}

	start := time.Now()
	eng, err := shard.Open(cfg.Engine)
	if err != nil {
		return fmt.Errorf("open engine: %w", err)
	}
	rs := eng.RecoveryStats()
	logf("engine open in %s (mode=%s, shards=%d, %d tables, replay=%d records, rolled back=%d in-flight, 2pc decisions=%d)",
		time.Since(start).Round(time.Microsecond), rs.Mode, rs.Shards, rs.TablesOpened,
		rs.ReplayRecords, rs.InFlightRolledBack, rs.Decisions2PC)

	if cfg.FaultSpec != "" {
		fcfg, err := fault.ParseSpec(cfg.FaultSpec)
		if err != nil {
			eng.Close() //nolint:errcheck — already failing
			return fmt.Errorf("fault spec: %w", err)
		}
		plane := fault.New(fcfg)
		plane.Enable()
		for _, h := range eng.Heaps() {
			if h != nil {
				h.SetFaultInjector(plane)
			}
		}
		if co := eng.Coordinator(); co != nil {
			co.Heap().SetFaultInjector(plane)
		}
		cfg.Server.ConnWrapper = plane.WrapConn
		logf("fault plane armed: %s", cfg.FaultSpec)
	}

	srv, err := Listen(eng, cfg.Addr, cfg.Server)
	if err != nil {
		eng.Close() //nolint:errcheck — already failing
		return fmt.Errorf("listen: %w", err)
	}
	logf("serving on %s", srv.Addr())
	if cfg.Ready != nil {
		fmt.Fprintf(cfg.Ready, "LISTENING %s\n", srv.Addr())
	}

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT, syscall.SIGUSR1)
	defer signal.Stop(sigc)

	sig := <-sigc
	if sig == syscall.SIGUSR1 {
		logf("SIGUSR1: simulating power failure (no drain, no close)")
		os.Exit(2)
	}

	logf("%s: draining connections (timeout %s)", sig, cfg.DrainTimeout)
	ctx, cancel := context.WithTimeout(context.Background(), cfg.DrainTimeout)
	defer cancel()
	go func() {
		// A second SIGTERM/SIGINT cuts the drain short; Engine.Close
		// being idempotent makes this race harmless.
		if s := <-sigc; s != syscall.SIGUSR1 {
			cancel()
		} else {
			os.Exit(2)
		}
	}()
	if err := srv.Shutdown(ctx); err != nil {
		logf("drain incomplete: %v", err)
	}
	if err := eng.Close(); err != nil {
		return fmt.Errorf("close engine: %w", err)
	}
	logf("shut down cleanly")
	return nil
}
