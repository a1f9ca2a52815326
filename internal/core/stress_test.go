package core

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"hyrisenv/internal/nvm"
	"hyrisenv/internal/storage"
	"hyrisenv/internal/txn"
)

// The bank-transfer stress: concurrent transactions move money between
// accounts while readers continuously verify that every snapshot sums to
// the initial total — the canonical snapshot-isolation + atomicity
// invariant.

func accountsSchema(t testing.TB) storage.Schema {
	t.Helper()
	s, err := storage.NewSchema(
		storage.ColumnDef{Name: "id", Type: storage.TypeInt64},
		storage.ColumnDef{Name: "balance", Type: storage.TypeInt64},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func setupAccounts(t testing.TB, e *Engine, n int, initial int64) *storage.Table {
	t.Helper()
	tbl, err := e.CreateTable("accounts", accountsSchema(t), "id")
	if err != nil {
		t.Fatal(err)
	}
	tx := e.Begin()
	for i := 0; i < n; i++ {
		if _, err := tx.Insert(tbl, []storage.Value{storage.Int(int64(i)), storage.Int(initial)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return tbl
}

// transfer moves amount from account a to account b in one transaction.
// Returns txn.ErrConflict on a lost race.
func transfer(e *Engine, tbl *storage.Table, a, b int64, amount int64) error {
	tx := e.Begin()
	find := func(id int64) (uint64, bool) {
		rows := selectEq(tx, tbl, 0, storage.Int(id))
		if len(rows) != 1 {
			return 0, false
		}
		return rows[0], true
	}
	ra, ok := find(a)
	if !ok {
		tx.Abort()
		return errors.New("account a not found")
	}
	rb, ok := find(b)
	if !ok {
		tx.Abort()
		return errors.New("account b not found")
	}
	balA := tbl.Value(1, ra).I
	balB := tbl.Value(1, rb).I
	if _, err := tx.Update(tbl, ra, []storage.Value{storage.Int(a), storage.Int(balA - amount)}); err != nil {
		tx.Abort()
		return err
	}
	if _, err := tx.Update(tbl, rb, []storage.Value{storage.Int(b), storage.Int(balB + amount)}); err != nil {
		tx.Abort()
		return err
	}
	return tx.Commit()
}

// totalBalance sums balances at one snapshot and checks uniqueness of
// account ids.
func totalBalance(t testing.TB, e *Engine, tbl *storage.Table) int64 {
	t.Helper()
	tx := e.Begin()
	var sum int64
	seen := make(map[int64]int)
	tbl.ScanVisible(tx.SnapshotCID(), 0, func(row uint64) bool {
		id := tbl.Value(0, row).I
		seen[id]++
		sum += tbl.Value(1, row).I
		return true
	})
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("account %d has %d visible versions", id, n)
		}
	}
	return sum
}

func TestBankTransferInvariant(t *testing.T) {
	const (
		accounts           = 50
		initial            = 100
		writers            = 6
		transfersPerWriter = 300
	)
	for _, mode := range []txn.Mode{txn.ModeNone, txn.ModeLog, txn.ModeNVM} {
		t.Run(subtest(mode), func(t *testing.T) {
			e := openEngine(t, mode, t.TempDir())
			tbl := setupAccounts(t, e, accounts, initial)

			stop := make(chan struct{})
			var violations atomic.Int32
			var readers sync.WaitGroup
			for r := 0; r < 2; r++ {
				readers.Add(1)
				go func() {
					defer readers.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						if got := totalBalance(t, e, tbl); got != accounts*initial {
							violations.Add(1)
							t.Errorf("snapshot total = %d, want %d", got, accounts*initial)
							return
						}
					}
				}()
			}

			var writersWG sync.WaitGroup
			var conflicts atomic.Int64
			for w := 0; w < writers; w++ {
				writersWG.Add(1)
				go func(w int) {
					defer writersWG.Done()
					rng := rand.New(rand.NewSource(int64(w) * 7717))
					for i := 0; i < transfersPerWriter; i++ {
						a := int64(rng.Intn(accounts))
						b := int64(rng.Intn(accounts))
						if a == b {
							continue
						}
						err := transfer(e, tbl, a, b, int64(rng.Intn(10)))
						if errors.Is(err, txn.ErrConflict) {
							conflicts.Add(1)
						} else if err != nil {
							t.Errorf("transfer: %v", err)
							return
						}
					}
				}(w)
			}
			writersWG.Wait()
			close(stop)
			readers.Wait()
			if violations.Load() > 0 {
				t.Fatal("snapshot isolation violated")
			}
			if got := totalBalance(t, e, tbl); got != accounts*initial {
				t.Fatalf("final total = %d", got)
			}
			t.Logf("mode=%s: %d conflicts (first-writer-wins)", mode, conflicts.Load())
		})
	}
}

// TestCrashStormPreservesInvariants cuts power at random persist
// barriers during a random transfer workload, restarts, and checks the
// money-conservation invariant every time — the randomized counterpart
// of the exhaustive per-barrier test in the txn package.
func TestCrashStormPreservesInvariants(t *testing.T) {
	runCrashStorm(t, 40, false)
}

// TestCrashStormPreservesInvariantsShadow runs the same storm under the
// pessimistic shadow crash model: unpersisted lines are genuinely lost at
// every simulated power cut. Deliberately not gated on -short, so the
// pessimistic model exercises the commit protocol on every `go test`.
func TestCrashStormPreservesInvariantsShadow(t *testing.T) {
	runCrashStorm(t, 12, true)
}

func runCrashStorm(t *testing.T, rounds int, shadow bool) {
	const (
		accounts = 20
		initial  = 100
	)
	dir := t.TempDir()
	cfg := Config{Mode: txn.ModeNVM, Dir: dir, NVMHeapSize: 256 << 20, NVMShadow: shadow}
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tbl := setupAccounts(t, e, accounts, initial)
	rng := rand.New(rand.NewSource(0xC4A5))

	for round := 0; round < rounds; round++ {
		// Run transfers until the armed fail point cuts power.
		func() {
			defer func() {
				if r := recover(); r != nil {
					if err, ok := r.(error); !ok || !errors.Is(err, nvm.ErrSimulatedCrash) {
						panic(r)
					}
				}
			}()
			e.Heap().FailAfter(int64(1 + rng.Intn(2500)))
			for {
				a := int64(rng.Intn(accounts))
				b := int64(rng.Intn(accounts))
				if a == b {
					continue
				}
				err := transfer(e, tbl, a, b, int64(rng.Intn(20)))
				if err != nil && !errors.Is(err, txn.ErrConflict) {
					t.Fatalf("round %d: %v", round, err)
				}
			}
		}()
		e.Heap().FailAfter(0)

		// "Reboot".
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		e, err = Open(cfg)
		if err != nil {
			t.Fatalf("round %d: reopen: %v", round, err)
		}
		tblNew, err := e.Table("accounts")
		if err != nil {
			t.Fatal(err)
		}
		tbl = tblNew
		if got := totalBalance(t, e, tbl); got != accounts*initial {
			t.Fatalf("round %d: money not conserved after crash: %d", round, got)
		}
	}
	e.Close()
}

// TestCrashDuringMergeStorm crashes at random points inside merges and
// verifies the table is always intact afterwards.
func TestCrashDuringMergeStorm(t *testing.T) {
	runMergeCrashStorm(t, 15, false)
}

// TestCrashDuringMergeStormShadow is the same storm under the
// pessimistic shadow crash model (runs on every `go test`, including
// -short).
func TestCrashDuringMergeStormShadow(t *testing.T) {
	runMergeCrashStorm(t, 8, true)
}

func runMergeCrashStorm(t *testing.T, rounds int, shadow bool) {
	const accounts, initial = 30, 50
	dir := t.TempDir()
	cfg := Config{Mode: txn.ModeNVM, Dir: dir, NVMHeapSize: 256 << 20, NVMShadow: shadow}
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tbl := setupAccounts(t, e, accounts, initial)
	rng := rand.New(rand.NewSource(77))

	for round := 0; round < rounds; round++ {
		// A little churn so the merge has dead versions to drop.
		for i := 0; i < 10; i++ {
			a, b := int64(rng.Intn(accounts)), int64(rng.Intn(accounts))
			if a != b {
				transfer(e, tbl, a, b, 1)
			}
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					if err, ok := r.(error); !ok || !errors.Is(err, nvm.ErrSimulatedCrash) {
						panic(r)
					}
				}
			}()
			e.Heap().FailAfter(int64(1 + rng.Intn(600)))
			e.Merge("accounts")
		}()
		e.Heap().FailAfter(0)
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		e, err = Open(cfg)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		tbl, err = e.Table("accounts")
		if err != nil {
			t.Fatal(err)
		}
		if got := totalBalance(t, e, tbl); got != accounts*initial {
			t.Fatalf("round %d: total = %d after merge crash", round, got)
		}
	}
	e.Close()
}
