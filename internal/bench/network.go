package bench

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"hyrisenv/client"
	"hyrisenv/internal/core"
	"hyrisenv/internal/disk"
	"hyrisenv/internal/server"
	"hyrisenv/internal/shard"
	"hyrisenv/internal/txn"
	"hyrisenv/internal/workload"
)

// NetRestart is the network-boundary version of E1: the engine is
// served over TCP, a pooled client watches it, the server crashes
// (listener torn down, engine abandoned without Close, a transaction in
// flight) and is reopened on the same address. The reported downtime is
// what the client observes — crash to first successful query, redial
// included — so it contains everything a real application would wait
// for: engine recovery, listener rebind and connection re-establishment.
func NetRestart(workDir string, sizes []int, model disk.Model) (*Report, error) {
	r := &Report{
		ID:    "NET",
		Title: "client-observed restart downtime over TCP (wire protocol)",
		Headers: []string{"rows", "mode", "client downtime", "engine recovery",
			"replayed", "rolled back"},
	}
	for _, n := range sizes {
		for _, mode := range []txn.Mode{txn.ModeNVM, txn.ModeLog} {
			dir := filepath.Join(workDir, fmt.Sprintf("net-%s-%d", mode, n))
			cfg := shard.Config{Config: core.Config{Mode: mode, Dir: dir, NVMHeapSize: heapFor(n), DiskModel: model}}
			eng, err := shard.Open(cfg)
			if err != nil {
				return nil, err
			}
			if _, err := workload.Load(eng, "orders", workload.DefaultSpec(n)); err != nil {
				return nil, err
			}
			srv, err := server.Listen(eng, "127.0.0.1:0", server.Config{})
			if err != nil {
				return nil, err
			}
			addr := srv.Addr()
			c, err := client.Dial(addr, client.Options{})
			if err != nil {
				return nil, err
			}
			if cnt, err := c.Count("orders"); err != nil || cnt != n {
				return nil, fmt.Errorf("net: pre-crash count = %d, %v (want %d)", cnt, err, n)
			}
			// Leave one transaction in flight across the crash.
			tx, err := c.Begin()
			if err != nil {
				return nil, err
			}
			if _, err := tx.Insert("orders", workload.DefaultSpec(n).Row(rand.New(rand.NewSource(1)), n+1)...); err != nil {
				return nil, err
			}

			srv.Close() // crash: no drain, engine abandoned without Close

			crash := time.Now()
			eng2, err := shard.Open(cfg)
			if err != nil {
				return nil, err
			}
			srv2, err := server.Listen(eng2, addr, server.Config{})
			if err != nil {
				return nil, err
			}
			deadline := time.Now().Add(2 * time.Minute)
			for {
				if cnt, err := c.Count("orders"); err == nil {
					if cnt != n {
						return nil, fmt.Errorf("net: post-restart count = %d, want %d", cnt, n)
					}
					break
				}
				if time.Now().After(deadline) {
					return nil, fmt.Errorf("net: server did not come back")
				}
			}
			downtime := time.Since(crash)

			rs := eng2.RecoveryStats()
			r.AddRow(fmt.Sprintf("%d", n), mode.String(), fmtDur(downtime), fmtDur(rs.Total),
				fmt.Sprintf("%d", rs.ReplayRecords), fmt.Sprintf("%d", rs.InFlightRolledBack))

			c.Close()
			srv2.Close()
			if err := eng2.Close(); err != nil {
				return nil, err
			}
		}
	}
	r.AddNote("downtime = crash to first successful client query (engine recovery + rebind + redial)")
	r.AddNote("one transaction was open at every crash; the dying server aborts it " +
		"(a true process kill, where recovery does the rollback, is exercised by the daemon tests)")
	return r, nil
}
