package core

import (
	"testing"

	"hyrisenv/internal/storage"
	"hyrisenv/internal/txn"
)

// TestCrashStaleIndexEntryNoDuplicate pins the delta-slot-reuse hazard
// found by the sharded chaos harness: the persistent delta index is
// updated at Insert time, so a power loss before commit leaves an index
// entry for a row that recovery rolls back and truncates. If the next
// insert reuses that delta slot with the SAME key, the stale entry and
// the live entry agree on both key and slot — value verification cannot
// tell them apart and an index point lookup would yield the row twice.
func TestCrashStaleIndexEntryNoDuplicate(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Mode: txn.ModeNVM, Dir: dir, NVMHeapSize: 32 << 20}
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := e.CreateTable("orders", ordersSchema(t), "id")
	if err != nil {
		t.Fatal(err)
	}
	tx := e.Begin()
	if _, err := tx.Insert(tbl, []storage.Value{storage.Int(1), storage.Str("a"), storage.Float(1)}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// In-flight insert of id=2: the index entry is persisted immediately,
	// the commit never happens.
	tx2 := e.Begin()
	if _, err := tx2.Insert(tbl, []storage.Value{storage.Int(2), storage.Str("b"), storage.Float(2)}); err != nil {
		t.Fatal(err)
	}
	// Power loss: drop the engine without Close; the mapping holds the
	// post-crash image (optimistic model — every write is durable).
	e.Heap().Close()

	e2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	rs := e2.RecoveryStats()
	if rs.InFlightRolledBack == 0 {
		t.Fatal("recovery rolled nothing back; the in-flight insert survived?")
	}
	tbl2, err := e2.Table("orders")
	if err != nil {
		t.Fatal(err)
	}
	// Reuse the freed delta slot with the same key.
	tx3 := e2.Begin()
	if _, err := tx3.Insert(tbl2, []storage.Value{storage.Int(2), storage.Str("b"), storage.Float(2)}); err != nil {
		t.Fatal(err)
	}
	if err := tx3.Commit(); err != nil {
		t.Fatal(err)
	}
	rows := selectEq(e2.Begin(), tbl2, 0, storage.Int(2))
	if len(rows) != 1 {
		t.Fatalf("index lookup for reused slot returned %d rows (%v), want 1", len(rows), rows)
	}
}
