package load

import (
	"context"
	"math/rand"
	"os"
	"strconv"
	"testing"
	"time"

	"hyrisenv/internal/core"
	"hyrisenv/internal/server"
	"hyrisenv/internal/shard"
	"hyrisenv/internal/txn"
)

func TestHistBuckets(t *testing.T) {
	// bucket must be monotone and bucketFloor must invert to the bucket's
	// lower bound.
	prev := -1
	for _, us := range []uint64{0, 1, 31, 32, 33, 63, 64, 100, 1000, 1e6, 1e9, 1 << 62} {
		b := bucket(us)
		if b < prev {
			t.Fatalf("bucket(%d) = %d < previous %d", us, b, prev)
		}
		prev = b
		if f := bucketFloor(b); f > us {
			t.Fatalf("bucketFloor(bucket(%d)) = %d > %d", us, f, us)
		}
		if b >= histBuckets {
			t.Fatalf("bucket(%d) = %d out of range", us, b)
		}
	}

	var h hist
	for i := 1; i <= 1000; i++ {
		h.record(time.Duration(i) * time.Microsecond)
	}
	p50 := h.quantile(0.50)
	if p50 < 400*time.Microsecond || p50 > 520*time.Microsecond {
		t.Fatalf("p50 of 1..1000µs = %v", p50)
	}
	p99 := h.quantile(0.99)
	if p99 < 900*time.Microsecond || p99 > 1000*time.Microsecond {
		t.Fatalf("p99 of 1..1000µs = %v", p99)
	}
	if h.max() != 1000*time.Microsecond {
		t.Fatalf("max = %v", h.max())
	}
}

func TestKeyChooser(t *testing.T) {
	mk := func(seed int64) []uint64 {
		rng := rand.New(rand.NewSource(seed))
		kc := newKeyChooser(rng, 1.1, 1000)
		out := make([]uint64, 10000)
		for i := range out {
			out[i] = kc.next()
		}
		return out
	}
	a, b := mk(7), mk(7)
	counts := map[uint64]int{}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must give the same key sequence")
		}
		if a[i] >= 1000 {
			t.Fatalf("key %d out of range", a[i])
		}
		counts[a[i]]++
	}
	// Zipfian skew: the hottest key must be far above the uniform share
	// (10 hits per key here).
	hottest := 0
	for _, n := range counts {
		if n > hottest {
			hottest = n
		}
	}
	if hottest < 100 {
		t.Fatalf("hottest key drew %d/10000, want clear zipfian skew", hottest)
	}
}

func TestMixValidate(t *testing.T) {
	if err := (Mix{ReadPct: 50, UpdatePct: 50}).validate(); err != nil {
		t.Fatal(err)
	}
	for _, m := range []Mix{{ReadPct: 50}, {ReadPct: -10, UpdatePct: 110}, {ReadPct: 200}} {
		if err := m.validate(); err == nil {
			t.Fatalf("mix %+v validated", m)
		}
	}
}

// TestLoadSmoke is the CI load-smoke workload: a scaled-down mixed
// YCSB-style run over the full network stack — NVM engine with group
// commit, admission control, pipelined connections — checking that
// sustained mixed traffic completes without errors. LOAD_SMOKE_SECONDS
// stretches it (CI runs 30 s under -race); the default is a quick
// op-bounded pass for ordinary test runs.
func TestLoadSmoke(t *testing.T) {
	eng, err := shard.Open(shard.Config{Config: core.Config{
		Mode:        txn.ModeNVM,
		Dir:         t.TempDir(),
		NVMHeapSize: 256 << 20,
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	srv, err := server.Listen(eng, "127.0.0.1:0", server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cfg := Config{
		Mix:     Mix{ReadPct: 60, UpdatePct: 30, InsertPct: 10},
		Workers: 8,
		Keys:    2000,
		Ops:     2000,
	}
	if s := os.Getenv("LOAD_SMOKE_SECONDS"); s != "" {
		secs, err := strconv.Atoi(s)
		if err != nil {
			t.Fatalf("LOAD_SMOKE_SECONDS=%q: %v", s, err)
		}
		cfg.Ops = 0
		cfg.Duration = time.Duration(secs) * time.Second
	}

	ctx, cancel := context.WithTimeout(context.Background(), cfg.Duration+2*time.Minute)
	defer cancel()
	tgt, err := DialTarget(ctx, srv.Addr(), "smoke", 8, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer tgt.Close()

	res, err := Run(ctx, tgt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", res)
	if res.Ops == 0 {
		t.Fatal("no operations ran")
	}
	if res.Errors != 0 || res.Conflicts != 0 {
		t.Fatalf("smoke run saw %d errors, %d conflicts:\n%s", res.Errors, res.Conflicts, res)
	}
	if res.Throughput == 0 {
		t.Fatal("zero throughput")
	}
}

// TestOpenLoopPacing checks the open-loop scheduler: at a modest target
// rate the run takes about Ops/Rate seconds, and ops are not front-
// loaded by worker availability.
func TestOpenLoopPacing(t *testing.T) {
	tgt := nopTarget{}
	start := time.Now()
	res, err := Run(context.Background(), tgt, Config{
		Mix:     MixA,
		Workers: 4,
		Ops:     200,
		Rate:    1000, // 200 ops at 1000/s ≈ 200 ms
		Keys:    100,
	})
	if err != nil {
		t.Fatal(err)
	}
	el := time.Since(start)
	if el < 150*time.Millisecond {
		t.Fatalf("open loop finished in %v, want ≈200ms of pacing", el)
	}
	if res.Ops != 200 {
		t.Fatalf("ops = %d, want 200", res.Ops)
	}
}

type nopTarget struct{}

func (nopTarget) Read(context.Context, uint64) error        { return nil }
func (nopTarget) Update(context.Context, int, uint64) error { return nil }
func (nopTarget) Insert(context.Context, int, uint64) error { return nil }
