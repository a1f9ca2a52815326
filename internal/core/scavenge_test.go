package core

import (
	"testing"

	"hyrisenv/internal/storage"
	"hyrisenv/internal/txn"
)

func TestScavengeReclaimsSupersededPartitions(t *testing.T) {
	dir := t.TempDir()
	e := openEngine(t, txn.ModeNVM, dir)
	tbl, err := e.CreateTable("orders", ordersSchema(t), "id")
	if err != nil {
		t.Fatal(err)
	}
	insertOrders(t, e, tbl, 200)

	// A first scavenge on a live table reclaims nothing structural.
	before, err := e.Scavenge()
	if err != nil {
		t.Fatal(err)
	}

	// Merges supersede the old partition sets, leaking their blocks
	// until scavenged.
	for i := 0; i < 3; i++ {
		if _, err := e.Merge("orders"); err != nil {
			t.Fatal(err)
		}
		insertOrders(t, e, tbl, 20)
	}
	reclaimed, err := e.Scavenge()
	if err != nil {
		t.Fatal(err)
	}
	if reclaimed <= before {
		t.Fatalf("scavenge after merges reclaimed %d (baseline %d)", reclaimed, before)
	}

	// Data integrity after scavenging.
	tx := e.Begin()
	var n int
	var sum int64
	tbl.ScanVisible(tx.SnapshotCID(), 0, func(row uint64) bool {
		n++
		sum += tbl.Value(0, row).I
		return true
	})
	if n != 260 {
		t.Fatalf("rows after scavenge = %d", n)
	}
	// Index still answers.
	rows := selectEq(tx, tbl, 0, storage.Int(7))
	if len(rows) == 0 {
		t.Fatal("index lookup broken after scavenge")
	}

	// The engine keeps working, and reclaimed space is reused: a second
	// merge+scavenge cycle should find free blocks to recycle.
	if _, err := e.Merge("orders"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Scavenge(); err != nil {
		t.Fatal(err)
	}
	insertOrders(t, e, tbl, 10)
	if got := countVisible(e, tbl); got != 270 {
		t.Fatalf("visible after second cycle = %d", got)
	}

	// Durability across restart after scavenging.
	e2 := restartEngine(t, e, txn.ModeNVM, dir)
	tbl2, _ := e2.Table("orders")
	if got := countVisible(e2, tbl2); got != 270 {
		t.Fatalf("visible after restart = %d", got)
	}
}

// TestScavengeLogMode: merges on a heap that does not persist leak their
// superseded generations as NVM merges do, and Scavenge reclaims them.
func TestScavengeLogMode(t *testing.T) {
	e := openEngine(t, txn.ModeLog, t.TempDir())
	tbl, err := e.CreateTable("orders", ordersSchema(t), "id")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		insertOrders(t, e, tbl, 100)
		if _, err := e.Merge("orders"); err != nil {
			t.Fatal(err)
		}
	}
	reclaimed, err := e.Scavenge()
	if err != nil {
		t.Fatal(err)
	}
	if reclaimed <= 0 {
		t.Fatalf("scavenge after two merges reclaimed %d blocks", reclaimed)
	}
	// Each round inserted ids 0..99.
	tx := e.Begin()
	ids := map[int64]int{}
	tbl.ScanVisible(tx.SnapshotCID(), 0, func(row uint64) bool {
		ids[tbl.Value(0, row).I]++
		return true
	})
	if len(ids) != 100 {
		t.Fatalf("%d distinct ids after scavenge, want 100", len(ids))
	}
	for id, n := range ids {
		if found := len(selectEq(tx, tbl, 0, storage.Int(id))); n != 2 || found != 2 {
			t.Fatalf("id %d: %d rows scanned, %d found by the index, want 2 and 2", id, n, found)
		}
	}
}

func TestScavengeReusesSpace(t *testing.T) {
	dir := t.TempDir()
	e := openEngine(t, txn.ModeNVM, dir)
	tbl, _ := e.CreateTable("orders", ordersSchema(t), "id")
	insertOrders(t, e, tbl, 300)

	// Cycle merge+scavenge; the bump watermark must grow far less with
	// scavenging than the raw per-merge allocation volume, because large
	// partition blocks get recycled.
	if _, err := e.Merge("orders"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Scavenge(); err != nil {
		t.Fatal(err)
	}
	used1 := e.Heap().Stats().BytesUsed
	var growth []uint64
	for i := 0; i < 4; i++ {
		if _, err := e.Merge("orders"); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Scavenge(); err != nil {
			t.Fatal(err)
		}
		used2 := e.Heap().Stats().BytesUsed
		growth = append(growth, used2-used1)
		used1 = used2
	}
	// After the first cycle primes the free lists, later identical merges
	// should be (nearly) fully served from recycled blocks.
	last := growth[len(growth)-1]
	if last > 64<<10 {
		t.Fatalf("merge cycles keep consuming fresh space: growth=%v", growth)
	}
}
