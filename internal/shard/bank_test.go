package shard

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"hyrisenv/internal/core"
	"hyrisenv/internal/exec"
	"hyrisenv/internal/storage"
	"hyrisenv/internal/txn"
)

// TestBankTransferInvariantSharded is the bank-transfer invariant on a
// fleet, at 1 and 4 shards in every durability mode: writers move money
// between accounts, most transfers on a fleet of four crossing shards,
// while readers sum every balance at one snapshot, which must always
// hold the money the bank started with. At four shards a cross-shard
// commit must become visible to a running reader on all of its shards
// at once, or not at all: a CID published to the snapshot horizon before
// every part is stamped lets a reader see one half of a transfer.
func TestBankTransferInvariantSharded(t *testing.T) {
	const (
		accounts  = 8
		initial   = 100
		writers   = 4
		transfers = 150
		readers   = 2
	)
	sch, err := storage.NewSchema(
		storage.ColumnDef{Name: "id", Type: storage.TypeInt64},
		storage.ColumnDef{Name: "bal", Type: storage.TypeInt64},
	)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, shards := range []int{1, 4} {
		for _, mode := range []txn.Mode{txn.ModeNone, txn.ModeLog, txn.ModeNVM} {
			t.Run(fmt.Sprintf("shards=%d/%s", shards, subtest(mode)), func(t *testing.T) {
				dir := ""
				if mode != txn.ModeNone {
					dir = t.TempDir()
				}
				e, err := Open(Config{Config: core.Config{Mode: mode, Dir: dir, NVMHeapSize: 8 << 20}, Shards: shards})
				if err != nil {
					t.Fatal(err)
				}
				defer e.Close()
				tbl, err := e.CreateTable("accounts", sch, "id")
				if err != nil {
					t.Fatal(err)
				}
				tx := e.Begin()
				for i := 0; i < accounts; i++ {
					if _, err := tx.Insert(tbl, []storage.Value{storage.Int(int64(i)), storage.Int(initial)}); err != nil {
						t.Fatal(err)
					}
				}
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}

				// total sums the balances one snapshot sees.
				total := func() (int64, error) {
					tx := e.Begin()
					defer tx.Abort()
					rows, err := tx.Select(ctx, tbl)
					if err != nil {
						return 0, err
					}
					var sum int64
					for _, row := range rows {
						vals, err := tx.Row(ctx, tbl, row)
						if err != nil {
							return 0, err
						}
						sum += vals[1].I
					}
					return sum, nil
				}
				// transfer moves amount from account a to b; a lost race
				// is txn.ErrConflict.
				transfer := func(a, b, amount int64) error {
					tx := e.Begin()
					var rows [2]uint64
					var bals [2]int64
					for i, id := range []int64{a, b} {
						found, err := tx.Select(ctx, tbl, exec.Pred{Col: 0, Op: exec.Eq, Val: storage.Int(id)})
						if err == nil && len(found) != 1 {
							err = fmt.Errorf("account %d: %d rows", id, len(found))
						}
						var vals []storage.Value
						if err == nil {
							vals, err = tx.Row(ctx, tbl, found[0])
						}
						if err != nil {
							tx.Abort()
							return err
						}
						rows[i], bals[i] = found[0], vals[1].I
					}
					for i, id := range []int64{a, b} {
						bal := bals[i] - amount
						if i == 1 {
							bal = bals[i] + amount
						}
						if _, err := tx.Update(tbl, rows[i], []storage.Value{storage.Int(id), storage.Int(bal)}); err != nil {
							tx.Abort()
							return err
						}
					}
					return tx.Commit()
				}

				stop := make(chan struct{})
				var wrong, reads atomic.Int64
				var wg sync.WaitGroup
				for r := 0; r < readers; r++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for {
							select {
							case <-stop:
								return
							default:
							}
							sum, err := total()
							if err != nil {
								t.Error(err)
								return
							}
							reads.Add(1)
							if sum != accounts*initial {
								wrong.Add(1)
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
						rng := rand.New(rand.NewSource(int64(w)*7717 + 1))
						for i := 0; i < transfers; i++ {
							a, b := rng.Int63n(accounts), rng.Int63n(accounts)
							if a == b {
								continue
							}
							err := transfer(a, b, 1+rng.Int63n(10))
							if errors.Is(err, txn.ErrConflict) {
								conflicts.Add(1)
							} else if err != nil {
								t.Error(err)
								return
							}
						}
					}(w)
				}
				writersWG.Wait()
				close(stop)
				wg.Wait()
				if n := wrong.Load(); n > 0 {
					t.Fatalf("%d of %d snapshots summed to other than %d", n, reads.Load(), accounts*initial)
				}
				if sum, err := total(); err != nil || sum != accounts*initial {
					t.Fatalf("final total = %d, %v", sum, err)
				}
				t.Logf("%d snapshots, %d conflicts", reads.Load(), conflicts.Load())
			})
		}
	}
}
