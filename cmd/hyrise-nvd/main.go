// Command hyrise-nvd serves a hyrisenv database over TCP — the daemon
// that turns the paper's instant-restart property into near-zero
// downtime as observed by network clients.
//
// Start serving:
//
//	hyrise-nvd -dir /var/lib/hyrise -mode nvm -addr :4466
//
// Signals:
//
//   - SIGTERM / SIGINT: graceful drain — stop accepting, finish
//     in-flight requests, abort open transactions, close the engine.
//   - SIGUSR1: simulated power failure — exit immediately with no
//     drain and no close (the restart-demo switch: under -mode nvm the
//     next start is instant; under -mode log it replays the log).
//
// Restart demo against a running daemon (see also `hyrise-nv connect`):
//
//	hyrise-nvd -dir /tmp/db -mode nvm &
//	hyrise-nv connect load -addr 127.0.0.1:4466 -rows 200000
//	kill -USR1 %1                      # power failure mid-traffic
//	hyrise-nvd -dir /tmp/db -mode nvm  # clients reconnect in milliseconds
package main

import (
	"flag"
	"log"
	"os"
	"time"

	"hyrisenv/internal/core"
	"hyrisenv/internal/disk"
	"hyrisenv/internal/server"
	"hyrisenv/internal/shard"
	"hyrisenv/internal/txn"
)

func main() {
	log.SetFlags(0)
	addr := flag.String("addr", "127.0.0.1:4466", "listen address (host:port; port 0 picks a free port)")
	dir := flag.String("dir", "", "database directory (required)")
	modeName := flag.String("mode", "nvm", "durability mode: nvm, log or volatile")
	heap := flag.Uint64("nvm-heap", 1<<30, "simulated NVM device size in bytes on first creation, per shard (nvm mode)")
	shards := flag.Int("shards", 1, "hash partitions; fixed at creation (cross-shard transactions use 2PC)")
	ssd := flag.Bool("ssd", false, "model a 2016-era SSD for the log device (log mode)")
	maxConns := flag.Int("max-conns", 1024, "maximum concurrent client connections")
	maxFrame := flag.Uint("max-frame", 16<<20, "maximum frame payload in bytes")
	idle := flag.Duration("idle-timeout", 5*time.Minute, "disconnect clients idle this long")
	drain := flag.Duration("drain-timeout", 5*time.Second, "graceful-shutdown drain budget")
	faultSpec := flag.String("fault", "", `arm the fault-injection plane (chaos testing), e.g. "seed=7,oom=0.001,reset=0.002"`)
	quiet := flag.Bool("quiet", false, "suppress lifecycle logging")
	flag.Parse()

	if *dir == "" {
		log.Fatal("hyrise-nvd: -dir is required")
	}
	var mode txn.Mode
	switch *modeName {
	case "nvm":
		mode = txn.ModeNVM
	case "log":
		mode = txn.ModeLog
	case "volatile":
		mode = txn.ModeNone
	default:
		log.Fatalf("hyrise-nvd: unknown mode %q (want nvm, log or volatile)", *modeName)
	}
	model := disk.Model{}
	if *ssd {
		model = disk.SSD2016
	}
	logf := log.Printf
	if *quiet {
		logf = nil
	}

	err := server.RunDaemon(server.DaemonConfig{
		Addr: *addr,
		Engine: shard.Config{
			Config: core.Config{Mode: mode, Dir: *dir, NVMHeapSize: *heap, DiskModel: model},
			Shards: *shards,
		},
		Server: server.Config{
			MaxConns:    *maxConns,
			MaxFrame:    uint32(*maxFrame),
			IdleTimeout: *idle,
			Logf:        logf,
		},
		DrainTimeout: *drain,
		FaultSpec:    *faultSpec,
		Ready:        os.Stdout,
		Logf:         logf,
	})
	if err != nil {
		log.Fatalf("hyrise-nvd: %v", err)
	}
}
