package hyrisenv_test

// Network-layer counterparts of the embedded benchmarks in
// bench_test.go: the same engine paths measured through the wire
// protocol, the TCP server and the pooled client. This file is in
// package hyrisenv_test because the client package imports hyrisenv.

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"hyrisenv"
	"hyrisenv/client"
	"hyrisenv/internal/workload"
)

// serveLoaded opens a DB, loads rows and serves it on a loopback port.
func serveLoaded(b *testing.B, mode hyrisenv.Mode, rows int) (*hyrisenv.DB, *hyrisenv.Server, string) {
	b.Helper()
	dir := b.TempDir()
	db, err := hyrisenv.Open(hyrisenv.Config{
		Mode: mode, Dir: dir, NVMHeapSize: 64<<20 + uint64(rows)*2000,
	})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := workload.Load(db.Sharded(), "orders", workload.DefaultSpec(rows)); err != nil {
		b.Fatal(err)
	}
	srv, err := db.Serve("127.0.0.1:0", hyrisenv.ServerConfig{})
	if err != nil {
		b.Fatal(err)
	}
	return db, srv, dir
}

// BenchmarkServerThroughput measures request throughput over the wire:
// point counts on an indexed column through a pooled client, with
// parallelism supplied by b.RunParallel.
func BenchmarkServerThroughput(b *testing.B) {
	if testing.Short() {
		b.Skip("network benchmark skipped in -short")
	}
	const rows = 20000
	db, srv, _ := serveLoaded(b, hyrisenv.Volatile, rows)
	defer db.Close()
	defer srv.Close()

	for _, conns := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("conns=%d", conns), func(b *testing.B) {
			c, err := client.Dial(srv.Addr(), client.Options{PoolSize: conns})
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			b.SetParallelism(conns)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				rng := rand.New(rand.NewSource(time.Now().UnixNano()))
				spec := workload.DefaultSpec(rows)
				for pb.Next() {
					pred := hyrisenv.Pred{Col: "customer", Op: hyrisenv.Eq,
						Val: hyrisenv.Int(int64(rng.Intn(spec.Customers)))}
					if _, err := c.Count("orders", pred); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// BenchmarkServerRestartDowntime measures the client-observed gap when
// the server (and engine) behind an address is torn down and reopened —
// the network-visible version of the E1 recovery benchmark. One
// iteration = one full kill/reopen/first-successful-query cycle.
func BenchmarkServerRestartDowntime(b *testing.B) {
	if testing.Short() {
		b.Skip("network benchmark skipped in -short")
	}
	const rows = 20000
	for _, mode := range []hyrisenv.Mode{hyrisenv.NVM, hyrisenv.LogBased} {
		b.Run(mode.String(), func(b *testing.B) {
			db, srv, dir := serveLoaded(b, mode, rows)
			addr := srv.Addr()
			c, err := client.Dial(addr, client.Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			if _, err := c.Count("orders"); err != nil {
				b.Fatal(err)
			}

			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				srv.Close()
				// Abandon the engine without Close: simulated crash. (The
				// leaked mapping is reclaimed when the benchmark exits.)
				b.StartTimer()

				db2, err := hyrisenv.Open(hyrisenv.Config{
					Mode: mode, Dir: dir, NVMHeapSize: 64<<20 + uint64(rows)*2000,
				})
				if err != nil {
					b.Fatal(err)
				}
				srv2, err := db2.Serve(addr, hyrisenv.ServerConfig{})
				if err != nil {
					b.Fatal(err)
				}
				for {
					if _, err := c.Count("orders"); err == nil {
						break
					}
				}
				db, srv = db2, srv2
			}
			b.StopTimer()
			srv.Close()
			db.Close()
		})
	}
}
