package core

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"hyrisenv/internal/exec"
	"hyrisenv/internal/storage"
	"hyrisenv/internal/txn"
)

// TestCrashDuringCheckpointFallsBack simulates a process death in the
// middle of writing a new checkpoint: the CURRENT pointer still names
// the old checkpoint+log pair, so recovery must come up from the old
// state without losing any committed transaction.
func TestCrashDuringCheckpointFallsBack(t *testing.T) {
	dir := t.TempDir()
	e := openEngine(t, txn.ModeLog, dir)
	tbl, _ := e.CreateTable("orders", ordersSchema(t), "id")
	insertOrders(t, e, tbl, 15)
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	insertOrders(t, e, tbl, 5) // in the log after checkpoint 1

	// Simulate a torn checkpoint 2: write garbage where the next
	// checkpoint would go, without updating CURRENT — exactly the state
	// a crash mid-WriteCheckpoint leaves behind.
	if err := os.WriteFile(filepath.Join(dir, "ckpt-000003"), []byte("torn partial checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Abandon the engine without Close (crash) — the log is already
	// durable for every committed transaction.
	e.Manager().LogWriter().Sync()

	e2 := openEngine(t, txn.ModeLog, dir)
	tbl2, err := e2.Table("orders")
	if err != nil {
		t.Fatal(err)
	}
	if got := countVisible(e2, tbl2); got != 20 {
		t.Fatalf("visible after torn checkpoint = %d, want 20", got)
	}
	// The engine can checkpoint again and the torn file gets superseded.
	if err := e2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	insertOrders(t, e2, tbl2, 1)
	e3 := restartEngine(t, e2, txn.ModeLog, dir)
	tbl3, _ := e3.Table("orders")
	if got := countVisible(e3, tbl3); got != 21 {
		t.Fatalf("visible after recheckpoint = %d", got)
	}
}

// TestReadersConsistentDuringMerge runs analytical readers concurrently
// with merges: every read must observe the full, unchanged dataset.
func TestReadersConsistentDuringMerge(t *testing.T) {
	for _, mode := range []txn.Mode{txn.ModeNone, txn.ModeNVM} {
		t.Run(subtest(mode), func(t *testing.T) {
			e := openEngine(t, mode, t.TempDir())
			tbl, _ := e.CreateTable("orders", ordersSchema(t), "id")
			const rows = 400
			insertOrders(t, e, tbl, rows)
			wantSum := int64(rows) * (rows - 1) / 2

			stop := make(chan struct{})
			var wg sync.WaitGroup
			for r := 0; r < 3; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						tx := e.Begin()
						ids := scanAll(tx, tbl)
						if len(ids) != rows {
							t.Errorf("reader saw %d rows during merge", len(ids))
							return
						}
						if got := exec.SumInt(tbl, 0, ids); got != wantSum {
							t.Errorf("reader saw sum %d during merge", got)
							return
						}
						// Index read too.
						hit := selectEq(tx, tbl, 0, storage.Int(int64(len(ids)/2)))
						if len(hit) != 1 {
							t.Errorf("index lookup found %d during merge", len(hit))
							return
						}
					}
				}()
			}
			for i := 0; i < 8; i++ {
				if _, err := e.Merge("orders"); err != nil {
					t.Fatal(err)
				}
			}
			close(stop)
			wg.Wait()
		})
	}
}

// TestLogCommitsSurviveCheckpointRotation runs log-mode committers
// against back-to-back checkpoints. A checkpoint can rotate the log
// between a commit group's append and its sync; the group must still be
// acknowledged (the checkpoint made its records durable), and every
// acknowledged commit must be present after a restart.
func TestLogCommitsSurviveCheckpointRotation(t *testing.T) {
	dir := t.TempDir()
	e := openEngine(t, txn.ModeLog, dir)
	tbl, err := e.CreateTable("orders", ordersSchema(t), "id")
	if err != nil {
		t.Fatal(err)
	}
	const committers, per = 4, 50
	var mu sync.Mutex
	acked := map[int64]bool{}
	var wg sync.WaitGroup
	for c := 0; c < committers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				id := int64(c*per + i)
				tx := e.Begin()
				if _, err := tx.Insert(tbl, []storage.Value{storage.Int(id), storage.Str("c"), storage.Float(1)}); err != nil {
					t.Error(err)
					return
				}
				if err := tx.Commit(); err != nil {
					t.Errorf("commit of id %d: %v", id, err)
					return
				}
				mu.Lock()
				acked[id] = true
				mu.Unlock()
			}
		}(c)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	checkpoints := 0
	for running := true; running; checkpoints++ {
		select {
		case <-done:
			running = false
		default:
		}
		if err := e.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("%d commits against %d checkpoints", len(acked), checkpoints)

	e2 := restartEngine(t, e, txn.ModeLog, dir)
	tbl2, err := e2.Table("orders")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int64]int{}
	tx := e2.Begin()
	tbl2.ScanVisible(tx.SnapshotCID(), 0, func(row uint64) bool {
		seen[tbl2.Value(0, row).I]++
		return true
	})
	if len(seen) != len(acked) {
		t.Errorf("%d ids visible after restart, %d acknowledged", len(seen), len(acked))
	}
	for id := range acked {
		if seen[id] != 1 {
			t.Fatalf("acknowledged id %d visible %d times after restart", id, seen[id])
		}
	}
}
