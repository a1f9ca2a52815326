package load

import (
	"context"
	"fmt"
	"testing"
	"time"

	"hyrisenv/internal/core"
	"hyrisenv/internal/nvm"
	"hyrisenv/internal/server"
	"hyrisenv/internal/shard"
	"hyrisenv/internal/txn"
)

// serveLatency is the emulated NVM cost model the serving benchmarks
// run under: a flash-backed NVDIMM. Stores and ordering fences are
// near-DRAM cheap (WriteNS per flushed line, FenceNS per sfence, both
// busy-waits — the core is stalled), but the durability drain each
// commit must await — flushing the DIMM's write queue down to flash —
// takes device-level time, during which the core is free and concurrent
// drains coalesce (nvm.LatencyModel.DrainNS). That asymmetry is the
// regime the paper's persist-group commit targets: the drain is the
// barrier worth amortizing across a whole commit group.
var serveLatency = nvm.LatencyModel{WriteNS: 200, FenceNS: 500, DrainNS: 400_000}

// benchConns is the connection count for the serving benchmarks: the
// acceptance target is 1000+ concurrent load-driver connections.
const benchConns = 1024

func startBenchServer(b *testing.B, shards int, srvCfg server.Config) (*server.Server, func()) {
	b.Helper()
	eng, err := shard.Open(shard.Config{
		Config: core.Config{
			Mode:        txn.ModeNVM,
			Dir:         b.TempDir(),
			NVMHeapSize: 512 << 20,
			NVMLatency:  serveLatency,
		},
		Shards: shards,
	})
	if err != nil {
		b.Fatal(err)
	}
	srv, err := server.Listen(eng, "127.0.0.1:0", srvCfg)
	if err != nil {
		eng.Close()
		b.Fatal(err)
	}
	return srv, func() {
		srv.Close()
		eng.Close()
	}
}

func runWriteBench(b *testing.B, shards int) {
	srv, stop := startBenchServer(b, shards, server.Config{
		MaxConns:      benchConns + 8,
		MaxConcurrent: -1, // measure batching, not admission
	})
	defer stop()

	cfg := Config{
		Mix:     MixWrite,
		Workers: benchConns,
		Keys:    uint64(benchConns) * 4,
		Ops:     b.N,
	}
	ctx := context.Background()
	tgt, err := DialTarget(ctx, srv.Addr(), "w", benchConns, cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer tgt.Close()

	b.ResetTimer()
	res, err := Run(ctx, tgt, cfg)
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}
	if res.Errors != 0 || res.Conflicts != 0 {
		b.Fatalf("bench run saw failures (first: %v):\n%s", res.FirstError, res)
	}
	b.ReportMetric(res.Throughput, "txn/s")
	b.ReportMetric(float64(res.P50.Microseconds()), "p50_us")
	b.ReportMetric(float64(res.P99.Microseconds()), "p99_us")
	b.ReportMetric(float64(tgt.Conns()), "conns")
}

// BenchmarkServeWriteGrouped is the 1024-connection write workload:
// concurrent commits coalesce into persist groups sharing one barrier
// set (internal/group via txn.CommitGroup).
func BenchmarkServeWriteGrouped(b *testing.B) { runWriteBench(b, 1) }

// BenchmarkServeWriteSharded runs the same write workload against a
// sharded daemon, one result per shard count (shards=1 is
// ServeWriteGrouped's configuration exactly). The
// load driver's single-key transactions take the single-shard fast
// path, so sharding mostly spreads the per-shard group-commit batchers
// and drain queues; throughput should hold or improve with shard count.
func BenchmarkServeWriteSharded(b *testing.B) {
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			runWriteBench(b, shards)
		})
	}
}

// BenchmarkServeOverload2x measures overload behaviour: offered load is
// pushed to 2× the measured saturation throughput with admission
// control on. Fast-rejected requests are the mechanism; the reported
// p99 staying bounded (not collapsing with queue depth) is the result.
func BenchmarkServeOverload2x(b *testing.B) {
	srv, stop := startBenchServer(b, 1, server.Config{
		MaxConns: benchConns + 8,
		// Admission is transaction-scoped (the frame that begins a
		// transaction takes the slot it holds to commit), so
		// MaxConcurrent bounds in-flight transactions. 16 slots sustain
		// roughly the engine's CPU-bound capacity at the ~1.5 ms
		// per-transaction latency of this configuration; at 2× offered
		// load the slot demand doubles, the short queue fills, and the
		// surplus fast-rejects at its first frame within ~1 ms instead
		// of queueing invisibly inside the engine. That shedding is what
		// keeps the client-side p99 — measured from intended start, so
		// schedule slip counts — flat.
		MaxConcurrent:  16,
		AdmissionQueue: 64,
		AdmissionWait:  time.Millisecond,
	})
	defer stop()

	ctx := context.Background()
	cfg := Config{
		Mix:     MixWrite,
		Workers: benchConns,
		Keys:    uint64(benchConns) * 4,
	}
	tgt, err := DialTarget(ctx, srv.Addr(), "ov", benchConns, cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer tgt.Close()

	// Calibrate saturation with a short closed-loop burst at exactly the
	// admission width: every calibration transaction is admitted and
	// runs at full speed, so the served throughput is the capacity of
	// the admitted path — the load level the admission config is meant
	// to protect. The overload run then offers 2× of it from the full
	// connection fleet.
	calib := cfg
	calib.Workers = 16
	calib.Ops = 8192
	cres, err := Run(ctx, tgt, calib)
	if err != nil {
		b.Fatal(err)
	}
	sat := cres.Throughput
	if sat <= 0 {
		b.Fatal("calibration measured zero throughput")
	}

	over := cfg
	over.Ops = b.N
	over.Rate = 2 * sat
	b.ResetTimer()
	res, err := Run(ctx, tgt, over)
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}
	if res.Errors != 0 {
		b.Fatalf("overload run saw hard failures (first: %v):\n%s", res.FirstError, res)
	}
	b.ReportMetric(sat, "saturation_txn/s")
	b.ReportMetric(res.Throughput, "txn/s")
	b.ReportMetric(float64(res.P99.Microseconds()), "p99_us")
	b.ReportMetric(float64(res.Rejected)/float64(res.Ops)*100, "rejected_pct")
	b.ReportMetric(float64(tgt.Conns()), "conns")
}
