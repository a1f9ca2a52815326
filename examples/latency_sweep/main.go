// Latency sweep: a mini-study of how emulated NVM write latency affects
// transaction throughput — the knob the paper's DRAM-based NVM emulation
// platform exposes. Run with:
//
//	go run ./examples/latency_sweep [-rows 10000] [-ops 10000]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"hyrisenv/internal/core"
	"hyrisenv/internal/nvm"
	"hyrisenv/internal/shard"
	"hyrisenv/internal/txn"
	"hyrisenv/internal/workload"
)

func main() {
	log.SetFlags(0)
	rows := flag.Int("rows", 10000, "dataset rows")
	ops := flag.Int("ops", 10000, "operations per latency point")
	threads := flag.Int("threads", 4, "worker goroutines")
	flag.Parse()

	fmt.Println("write-heavy throughput vs emulated NVM write latency")
	fmt.Printf("%-14s %-14s %12s %10s\n", "write latency", "fence latency", "ops/s", "relative")

	var base float64
	for _, lat := range []int64{0, 90, 200, 500, 900} {
		dir, err := os.MkdirTemp("", "hyrisenv-lat-*")
		if err != nil {
			log.Fatal(err)
		}
		e, err := shard.Open(shard.Config{Config: core.Config{
			Mode:        txn.ModeNVM,
			Dir:         dir,
			NVMHeapSize: 128<<20 + uint64(*rows)*4000,
			NVMLatency:  nvm.LatencyModel{WriteNS: lat, FenceNS: lat / 3},
		}})
		if err != nil {
			log.Fatal(err)
		}
		spec := workload.DefaultSpec(*rows)
		tbl, err := workload.Load(e, "orders", spec)
		if err != nil {
			log.Fatal(err)
		}
		stats := workload.RunMixed(e, tbl, spec, workload.WriteHeavy, *ops, *threads)
		e.Close()
		os.RemoveAll(dir)

		opsPerSec := stats.OpsPerSec()
		if base == 0 {
			base = opsPerSec
		}
		fmt.Printf("%-14s %-14s %12.0f %9.2fx\n",
			fmt.Sprintf("%dns", lat), fmt.Sprintf("%dns", lat/3), opsPerSec, opsPerSec/base)
	}
	fmt.Println("\nshape check: throughput should fall monotonically as latency rises")
}
