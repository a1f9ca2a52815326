package txn

import (
	"errors"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"hyrisenv/internal/disk"
	"hyrisenv/internal/nvm"
	"hyrisenv/internal/storage"
	"hyrisenv/internal/wal"
)

func nvmEnv(t *testing.T, opts ...nvm.Option) *env {
	t.Helper()
	h, err := nvm.Create(filepath.Join(t.TempDir(), "h.nvm"), 256<<20, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.Close() })
	tbl, err := storage.CreateNVMTable(h, "t", 1, testSchema(t), 0)
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := OpenNVMManager(h, func(uint32) *storage.Table { return tbl })
	if err != nil {
		t.Fatal(err)
	}
	return &env{mode: ModeNVM, mgr: m, tbl: tbl, h: h}
}

func TestCommitGroupAllModes(t *testing.T) {
	for name, e := range envs(t) {
		t.Run(name, func(t *testing.T) {
			var batch []*Txn
			var rows []uint64
			for i := 0; i < 5; i++ {
				tx := e.mgr.Begin()
				row, err := tx.Insert(e.tbl, []storage.Value{storage.Int(int64(i)), storage.Str("g")})
				if err != nil {
					t.Fatal(err)
				}
				batch = append(batch, tx)
				rows = append(rows, row)
			}
			// One read-only member rides along for free.
			batch = append(batch, e.mgr.Begin())
			if err := e.mgr.CommitGroup(batch); err != nil {
				t.Fatal(err)
			}
			for _, tx := range batch {
				if tx.Status() != StatusCommitted {
					t.Fatal("group member not committed")
				}
			}
			rd := e.mgr.Begin()
			for _, row := range rows {
				if !rd.Sees(e.tbl, row) {
					t.Fatalf("group-committed row %d invisible", row)
				}
			}
		})
	}
}

func TestCommitGroupFenceAmortization(t *testing.T) {
	e := nvmEnv(t)
	mk := func(n int) []*Txn {
		var batch []*Txn
		for i := 0; i < n; i++ {
			tx := e.mgr.Begin()
			if _, err := tx.Insert(e.tbl, []storage.Value{storage.Int(1), storage.Str("x")}); err != nil {
				t.Fatal(err)
			}
			batch = append(batch, tx)
		}
		return batch
	}
	const n = 16
	batch := mk(n)
	before := e.h.Stats().Fences
	if err := e.mgr.CommitGroup(batch); err != nil {
		t.Fatal(err)
	}
	grouped := e.h.Stats().Fences - before

	batch = mk(n)
	before = e.h.Stats().Fences
	for _, tx := range batch {
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	single := e.h.Stats().Fences - before

	// Both paths pay identical context-recycling fences after the commit
	// point, so the grouped path must save exactly the amortized commit
	// fences: 3 per transaction beyond the first.
	if want := single - 3*(n-1); grouped != want {
		t.Fatalf("grouped=%d single=%d fences for %d txns, want grouped=%d (3 commit fences total)",
			grouped, single, n, want)
	}
}

func TestCommitGroupNotActiveFailsWholeBatch(t *testing.T) {
	e := nvmEnv(t)
	good := e.mgr.Begin()
	if _, err := good.Insert(e.tbl, []storage.Value{storage.Int(1), storage.Str("a")}); err != nil {
		t.Fatal(err)
	}
	bad := e.mgr.Begin()
	if _, err := bad.Insert(e.tbl, []storage.Value{storage.Int(2), storage.Str("b")}); err != nil {
		t.Fatal(err)
	}
	if err := bad.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := e.mgr.CommitGroup([]*Txn{good, bad}); !errors.Is(err, ErrNotActive) {
		t.Fatalf("CommitGroup = %v, want ErrNotActive", err)
	}
	if good.Status() != StatusActive {
		t.Fatal("failed batch committed a member")
	}
	if err := good.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestCommitGroupCrashAtomicity sweeps a crash through every fence of a
// group commit in shadow mode: at every cut point, recovery must see
// either no member committed or all members committed.
func TestCommitGroupCrashAtomicity(t *testing.T) {
	const members = 4
	for barrier := int64(1); ; barrier++ {
		dir := t.TempDir()
		path := filepath.Join(dir, "h.nvm")
		h, err := nvm.Create(path, 256<<20, nvm.WithShadow())
		if err != nil {
			t.Fatal(err)
		}
		tbl, err := storage.CreateNVMTable(h, "t", 1, testSchema(t), 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.SetRoot("tbl:t", tbl.Root(), 0); err != nil {
			t.Fatal(err)
		}
		m, _, err := OpenNVMManager(h, func(uint32) *storage.Table { return tbl })
		if err != nil {
			t.Fatal(err)
		}
		var batch []*Txn
		for i := 0; i < members; i++ {
			tx := m.Begin()
			if _, err := tx.Insert(tbl, []storage.Value{storage.Int(int64(i)), storage.Str("g")}); err != nil {
				t.Fatal(err)
			}
			batch = append(batch, tx)
		}
		preCID := m.LastCID()

		crashed := false
		func() {
			defer func() {
				if r := recover(); r != nil {
					if err, ok := r.(error); !ok || !errors.Is(err, nvm.ErrSimulatedCrash) {
						panic(r)
					}
					crashed = true
				}
			}()
			h.FailAfter(barrier)
			if err := m.CommitGroup(batch); err != nil {
				t.Fatal(err)
			}
			h.FailAfter(0)
		}()
		if err := h.Close(); err != nil {
			t.Fatal(err)
		}

		// Recover and check all-or-nothing.
		h2, err := nvm.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		root, _, ok := h2.Root("tbl:t")
		if !ok {
			t.Fatal("table root lost")
		}
		tbl2, err := storage.OpenNVMTable(h2, "t", root)
		if err != nil {
			t.Fatal(err)
		}
		m2, _, err := OpenNVMManager(h2, func(uint32) *storage.Table { return tbl2 })
		if err != nil {
			t.Fatal(err)
		}
		rd := m2.Begin()
		visible := 0
		for row := uint64(0); row < tbl2.Rows(); row++ {
			if rd.Sees(tbl2, row) {
				visible++
			}
		}
		if crashed {
			committed := m2.LastCID() > preCID
			want := 0
			if committed {
				want = members
			}
			if visible != want {
				t.Fatalf("barrier %d: %d rows visible after crash, want %d (lastCID %d→%d)",
					barrier, visible, want, preCID, m2.LastCID())
			}
		} else if visible != members {
			t.Fatalf("barrier %d: no crash fired but %d/%d rows visible", barrier, visible, members)
		}
		h2.Close()
		if !crashed {
			// The whole protocol ran before the fail point: sweep done.
			break
		}
	}
}

// TestGroupCommitBatcherEndToEnd exercises Commit through the manager's
// batcher: concurrent Commit calls all land in CommitGroup batches and
// every transaction's effects are visible afterwards.
func TestGroupCommitBatcherEndToEnd(t *testing.T) {
	e := nvmEnv(t)

	const workers = 32
	var wg sync.WaitGroup
	rows := make([]uint64, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tx := e.mgr.Begin()
			row, err := tx.Insert(e.tbl, []storage.Value{storage.Int(int64(i)), storage.Str("w")})
			if err != nil {
				t.Error(err)
				return
			}
			rows[i] = row
			if err := tx.Commit(); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	rd := e.mgr.Begin()
	for i, row := range rows {
		if !rd.Sees(e.tbl, row) {
			t.Fatalf("worker %d's row invisible after batched commit", i)
		}
	}
	groups, items := e.mgr.GroupCommitStats()
	if items != workers {
		t.Fatalf("batcher committed %d items, want %d", items, workers)
	}
	t.Logf("batcher: %d txns in %d groups", items, groups)
}

// TestCommitAfterCloseIsRefused pins the shutdown contract: once the
// manager is closed a writing Commit gets ErrClosed and commits nothing
// — it must not fall through to stamping a heap the engine is about to
// unmap, or appending to a log it is about to close. Read-only commits,
// which touch neither, still succeed.
func TestCommitAfterCloseIsRefused(t *testing.T) {
	for name, mk := range map[string]func(*testing.T) *env{
		"nvm": func(t *testing.T) *env { return nvmEnv(t) },
		"log": logEnv,
	} {
		t.Run(name, func(t *testing.T) {
			e := mk(t)
			tx := e.mgr.Begin()
			row, err := tx.Insert(e.tbl, []storage.Value{storage.Int(1), storage.Str("late")})
			if err != nil {
				t.Fatal(err)
			}
			last := e.mgr.LastCID()
			e.mgr.Close()
			e.mgr.Close() // idempotent
			if err := tx.Commit(); !errors.Is(err, ErrClosed) {
				t.Fatalf("Commit after Close = %v, want ErrClosed", err)
			}
			if tx.Status() != StatusActive || e.mgr.LastCID() != last {
				t.Fatalf("refused commit changed state: status %v, lastCID %d→%d", tx.Status(), last, e.mgr.LastCID())
			}
			if e.mgr.Begin().Sees(e.tbl, row) {
				t.Fatal("refused commit's row is visible")
			}
			if err := e.mgr.Begin().Commit(); err != nil {
				t.Fatalf("read-only commit after Close: %v", err)
			}
			if err := tx.Abort(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestLogGroupCommitSharesSyncs: in ModeLog concurrent commits go
// through the manager's batcher, and each group is one log append and
// one device sync. With a sync slow enough for committers to pile up,
// groups are fewer than commits, and every acknowledged commit replays.
func TestLogGroupCommitSharesSyncs(t *testing.T) {
	dir := t.TempDir()
	model := disk.Model{SyncLatency: 200 * time.Microsecond}
	lm, err := wal.NewManager(dir, model)
	if err != nil {
		t.Fatal(err)
	}
	tbl := dramTable(t, "t", 1)
	first, _, err := lm.WriteCheckpoint([]*storage.Table{tbl}, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	first.Close()
	// Append to the checkpoint's log segment through a device of the
	// test's own, whose syncs it can count.
	dev, err := disk.Open(filepath.Join(dir, "wal-000001.log"), model)
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	w := wal.NewWriter(dev, 0)
	m := NewManager(ModeLog, 0)
	m.SetLogWriter(w)

	const committers, per = 16, 8
	var mu sync.Mutex
	var acked []int64
	var wg sync.WaitGroup
	for c := 0; c < committers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				k := int64(c*per + i)
				tx := m.Begin()
				if _, err := tx.Insert(tbl, []storage.Value{storage.Int(k), storage.Str("g")}); err != nil {
					t.Error(err)
					return
				}
				if err := tx.Commit(); err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				acked = append(acked, k)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	groups, items := m.GroupCommitStats()
	if items != committers*per || len(acked) != committers*per {
		t.Fatalf("batcher committed %d items, %d acknowledged, want %d", items, len(acked), committers*per)
	}
	if groups >= items {
		t.Fatalf("%d groups for %d commits: no sync was shared", groups, items)
	}
	if syncs := dev.Stats().Syncs; syncs != groups {
		t.Fatalf("%d device syncs for %d groups, want one per group", syncs, groups)
	}
	t.Logf("%d commits in %d groups", items, groups)
	m.Close()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	res, err := lm.Recover(dramHeap(t))
	if err != nil {
		t.Fatal(err)
	}
	got := res.Tables[1]
	seen := map[int64]bool{}
	got.ScanVisible(res.LastCID, 0, func(row uint64) bool {
		seen[got.Value(0, row).I] = true
		return true
	})
	for _, k := range acked {
		if !seen[k] {
			t.Fatalf("acknowledged commit of key %d lost at recovery", k)
		}
	}
}
