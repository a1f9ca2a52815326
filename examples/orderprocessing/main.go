// Order processing: a TPC-C-flavoured multi-table transactional
// workload on the NVM engine — new-order and payment transactions over
// customers, orders and order lines — followed by a simulated restart
// that demonstrates cross-table transactional consistency surviving
// power loss.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"os"

	"hyrisenv/internal/core"
	"hyrisenv/internal/shard"
	"hyrisenv/internal/storage"
	"hyrisenv/internal/txn"
	"hyrisenv/internal/workload"
)

func main() {
	log.SetFlags(0)
	dir, err := os.MkdirTemp("", "hyrisenv-orders-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	cfg := shard.Config{Config: core.Config{Mode: txn.ModeNVM, Dir: dir, NVMHeapSize: 512 << 20}}
	e, err := shard.Open(cfg)
	if err != nil {
		log.Fatal(err)
	}

	w, err := workload.SetupTPCCLite(e, 200, 500)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("loaded 200 customers; running 1000 transactions (2/3 new-order, 1/3 payment)...")

	rng := rand.New(rand.NewSource(42))
	var newOrders, payments, conflicts int
	for i := 0; i < 1000; i++ {
		var err error
		if i%3 == 2 {
			err = w.Payment(rng)
			if err == nil {
				payments++
			}
		} else {
			err = w.NewOrder(rng)
			if err == nil {
				newOrders++
			}
		}
		if err == txn.ErrConflict {
			conflicts++
		} else if err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("committed %d new orders, %d payments (%d conflicts)\n", newOrders, payments, conflicts)

	// Consistency check before the "power failure".
	check := func(e *shard.Engine, label string) (int, int) {
		tx := e.Begin()
		orders, _ := e.Table("orders")
		lines, _ := e.Table("orderlines")
		orderRows, err := tx.Select(context.Background(), orders)
		if err != nil {
			log.Fatal(err)
		}
		lineRows, err := tx.Select(context.Background(), lines)
		if err != nil {
			log.Fatal(err)
		}
		// Every order's o_lines column must match its actual line count.
		var wantLines int64
		for _, r := range orderRows {
			wantLines += orders.Value(2, r).I
		}
		if int64(len(lineRows)) != wantLines {
			log.Fatalf("%s: %d order lines, orders promise %d — inconsistent!",
				label, len(lineRows), wantLines)
		}
		fmt.Printf("%s: %d orders with %d lines — consistent\n", label, len(orderRows), len(lineRows))
		return len(orderRows), len(lineRows)
	}
	ordersBefore, linesBefore := check(e, "before restart")

	// Leave a transaction hanging mid-flight and drop the engine — the
	// simulated power failure. Its half-inserted order must vanish.
	hang := e.Begin()
	if _, err := hang.Insert(w.Orders, []storage.Value{
		storage.Int(999999), storage.Int(0), storage.Int(3), storage.Int(0),
	}); err != nil {
		log.Fatal(err)
	}
	// ... power fails before the order lines are written or committed.
	if err := e.Close(); err != nil {
		log.Fatal(err)
	}

	// Restart: cross-table atomicity must hold without any replay.
	e2, err := shard.Open(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer e2.Close()
	rs := e2.RecoveryStats()
	fmt.Printf("restart took %s (%d tables re-attached, %d in-flight rolled back)\n",
		rs.Total, rs.TablesOpened, rs.InFlightRolledBack)
	ordersAfter, linesAfter := check(e2, "after restart")
	if ordersAfter != ordersBefore || linesAfter != linesBefore {
		log.Fatal("restart lost committed transactions!")
	}

	// The engine keeps working: one more order.
	w2, err := workload.AttachTPCCLite(e2, 200, 500)
	if err != nil {
		log.Fatal(err)
	}
	if err := w2.NewOrder(rng); err != nil {
		log.Fatal(err)
	}
	check(e2, "after post-restart order")
}
