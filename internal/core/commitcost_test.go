package core

import (
	"sync"
	"testing"

	"hyrisenv/internal/nvm"
	"hyrisenv/internal/storage"
	"hyrisenv/internal/txn"
)

func commitCostEngine(t *testing.T, lat nvm.LatencyModel) (*Engine, *storage.Table) {
	t.Helper()
	e, err := Open(Config{Mode: txn.ModeNVM, Dir: t.TempDir(), NVMHeapSize: 256 << 20, NVMLatency: lat})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	s, err := storage.NewSchema(
		storage.ColumnDef{Name: "k", Type: storage.TypeInt64},
		storage.ColumnDef{Name: "v", Type: storage.TypeString},
	)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := e.CreateTable("t", s, "k")
	if err != nil {
		t.Fatal(err)
	}
	return e, tbl
}

// nineWrites begins a transaction with 9 write-set entries.
func nineWrites(t *testing.T, e *Engine, tbl *storage.Table, base int64) *txn.Txn {
	t.Helper()
	tx := e.Manager().Begin()
	for i := int64(0); i < 9; i++ {
		if _, err := tx.Insert(tbl, []storage.Value{storage.Int(base + i), storage.Str("z")}); err != nil {
			t.Fatal(err)
		}
	}
	return tx
}

// TestCommitDrainCost pins the durability cost of the NVM commit
// protocol: a commit group of any size — a lone commit being a group of
// one — pays exactly one device drain (the other two commit barriers
// are ordering fences shared by every stamp), the amortization
// persist-group commit exists for. A regression here silently changes
// the serving benchmarks' economics, so it fails loudly instead.
func TestCommitDrainCost(t *testing.T) {
	e, tbl := commitCostEngine(t, nvm.LatencyModel{})
	h := e.Heap()

	// A lone commit with 9 write-set entries costs exactly what
	// CommitGroup of that one transaction costs: Commit is a group of
	// one, not a second protocol with a fence per stamp.
	solo := nineWrites(t, e, tbl, 1000)
	s0 := h.Stats()
	if err := solo.Commit(); err != nil {
		t.Fatal(err)
	}
	s1 := h.Stats()
	grouped := nineWrites(t, e, tbl, 2000)
	g0 := h.Stats()
	if err := e.Manager().CommitGroup([]*txn.Txn{grouped}); err != nil {
		t.Fatal(err)
	}
	g1 := h.Stats()
	if sf, gf := s1.Fences-s0.Fences, g1.Fences-g0.Fences; sf != gf {
		t.Fatalf("lone 9-entry commit issued %d fences, CommitGroup of it %d", sf, gf)
	}
	if got := s1.Drains - s0.Drains; got != 1 {
		t.Fatalf("lone 9-entry commit issued %d drains, want 1", got)
	}

	// Single commits: one drain each.
	for i := 0; i < 3; i++ {
		tx := e.Manager().Begin()
		if _, err := tx.Insert(tbl, []storage.Value{storage.Int(int64(i)), storage.Str("x")}); err != nil {
			t.Fatal(err)
		}
		before := h.Stats().Drains
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if got := h.Stats().Drains - before; got != 1 {
			t.Fatalf("single commit %d issued %d drains, want 1", i, got)
		}
	}

	// A commit group: one drain for the whole batch.
	const batch = 8
	txns := make([]*txn.Txn, batch)
	for i := range txns {
		tx := e.Manager().Begin()
		if _, err := tx.Insert(tbl, []storage.Value{storage.Int(int64(100 + i)), storage.Str("y")}); err != nil {
			t.Fatal(err)
		}
		txns[i] = tx
	}
	before := h.Stats().Drains
	if err := e.Manager().CommitGroup(txns); err != nil {
		t.Fatal(err)
	}
	if got := h.Stats().Drains - before; got != 1 {
		t.Fatalf("commit group of %d issued %d drains, want 1", batch, got)
	}
}

// TestCommitFenceBudget pins the persist barriers of the three write
// transactions a client can issue, end to end and in steady state (the
// table's segments and the transaction's context block exist). A row
// append is two fences whatever the schema, an invalidation record one,
// retiring the context the slot's previous holder parked one, the commit
// three, of which one drain. The fence budgets are ROADMAP item 1's; the
// flush budgets are what the three spend, a unique key's posting being
// one heads slot and length. What the engine spends is logged.
func TestCommitFenceBudget(t *testing.T) {
	e, tbl := commitCostEngine(t, nvm.LatencyModel{})
	h := e.Heap()
	vals := func(k int64, v string) []storage.Value { return []storage.Value{storage.Int(k), storage.Str(v)} }
	commit := func(tx *txn.Txn) {
		t.Helper()
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	rows := make([]uint64, 4)
	for i := range rows {
		tx := e.Manager().Begin()
		row, err := tx.Insert(tbl, vals(int64(i), "warm"))
		if err != nil {
			t.Fatal(err)
		}
		commit(tx)
		rows[i] = row
	}

	budgets := []struct {
		name    string
		fences  uint64
		flushes uint64
		run     func(tx *txn.Txn) error
	}{
		{"insert+commit", 10, 29, func(tx *txn.Txn) error {
			_, err := tx.Insert(tbl, vals(100, "fresh"))
			return err
		}},
		{"update+commit", 12, 27, func(tx *txn.Txn) error {
			_, err := tx.Update(tbl, rows[0], vals(0, "updated"))
			return err
		}},
		{"delete+commit", 6, 7, func(tx *txn.Txn) error {
			return tx.Delete(tbl, rows[1])
		}},
	}
	for _, b := range budgets {
		s0 := h.Stats()
		tx := e.Manager().Begin()
		if err := b.run(tx); err != nil {
			t.Fatal(err)
		}
		commit(tx)
		s1 := h.Stats()
		fences, flushes := s1.Fences-s0.Fences, s1.Flushes-s0.Flushes
		t.Logf("%s: %d fences (budget %d), %d flushed lines (budget %d), %d drains, %d allocs",
			b.name, fences, b.fences, flushes, b.flushes, s1.Drains-s0.Drains, s1.Allocs-s0.Allocs)
		if fences > b.fences {
			t.Errorf("%s issued %d fences, budget %d", b.name, fences, b.fences)
		}
		if flushes > b.flushes {
			t.Errorf("%s flushed %d lines, budget %d", b.name, flushes, b.flushes)
		}
		if got := s1.Drains - s0.Drains; got != 1 {
			t.Errorf("%s issued %d drains, want 1", b.name, got)
		}
		if got := s1.Allocs - s0.Allocs; got != 0 {
			t.Errorf("%s made %d heap allocations, want 0 in steady state", b.name, got)
		}
	}
}

// TestDefaultConfigCoalescesCommits pins that group commit is the
// default: concurrent committers on an engine opened with no
// commit-related configuration share persist groups. The drain cost
// keeps each group committing long enough for the others to pile up
// behind the commit token.
func TestDefaultConfigCoalescesCommits(t *testing.T) {
	e, tbl := commitCostEngine(t, nvm.LatencyModel{DrainNS: 200_000})
	const workers, each = 64, 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				tx := e.Begin()
				if _, err := tx.Insert(tbl, []storage.Value{storage.Int(int64(w*each + i)), storage.Str("c")}); err != nil {
					t.Error(err)
					return
				}
				if err := tx.Commit(); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	groups, items := e.Manager().GroupCommitStats()
	if items != workers*each {
		t.Fatalf("batcher committed %d transactions, want %d", items, workers*each)
	}
	if groups >= items {
		t.Fatalf("%d commits formed %d groups: the default engine does not coalesce", items, groups)
	}
	t.Logf("%d commits in %d groups", items, groups)
}
