package shard

import (
	"context"
	"fmt"
	"testing"

	"hyrisenv/internal/core"
	"hyrisenv/internal/exec"
	"hyrisenv/internal/storage"
	"hyrisenv/internal/txn"
)

// TestRestartPagesIndependentOfRows counts what a restart reads, not how
// long it takes: the heap pages present in the process after Open and
// the first point read, on fleets of 1 and 4 shards, at n and 10·n rows,
// cut with 0 and then 16 transactions in flight. The paper's promise is
// that restart work is O(in-flight), never O(data), so ten times the
// rows may add at most a tenth more pages, plus a fixed slack for the
// few more the kernel maps around a page read in a larger heap. A page
// count does not drift with the host the way a time does.
func TestRestartPagesIndependentOfRows(t *testing.T) {
	if testing.Short() {
		t.Skip("loads 440k rows")
	}
	const n, slack = 20000, 48
	for _, shards := range []int{1, 4} {
		small := restartPages(t, shards, n)
		large := restartPages(t, shards, 10*n)
		for i, inFlight := range []int{0, 16} {
			t.Logf("shards=%d in-flight=%d: %d pages at %d rows, %d at %d", shards, inFlight, small[i], n, large[i], 10*n)
			if limit := small[i] + small[i]/10 + slack; large[i] > limit {
				t.Errorf("shards=%d in-flight=%d: restart touched %d pages at %d rows, over %d (%d at %d rows, +10%% +%d)",
					shards, inFlight, large[i], 10*n, limit, small[i], n, slack)
			}
		}
	}
}

// restartPages loads rows committed rows into a fresh NVM fleet and
// restarts it twice: once as it is, and once after leaving 16
// transactions uncommitted and cutting the fleet (Close aborts nothing,
// so every context stays live). After each Open it runs Select(id=0)
// and counts the heap pages present in the process across the fleet.
func restartPages(t *testing.T, shards, rows int) [2]uint64 {
	t.Helper()
	cfg := Config{
		Config: core.Config{Mode: txn.ModeNVM, Dir: t.TempDir(), NVMHeapSize: 256 << 20},
		Shards: shards,
	}
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := e.CreateTable("t", testSchema(t), "id")
	if err != nil {
		t.Fatal(err)
	}
	row := func(i int) []storage.Value {
		return []storage.Value{storage.Int(int64(i)), storage.Str(fmt.Sprintf("g%d", i%97)), storage.Float(float64(i))}
	}
	for done := 0; done < rows; done += 1000 {
		tx := e.Begin()
		for i := done; i < min(done+1000, rows); i++ {
			if _, err := tx.Insert(tbl, row(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	var pages [2]uint64
	for i := range pages {
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		if e, err = Open(cfg); err != nil {
			t.Fatal(err)
		}
		if tbl, err = e.Table("t"); err != nil {
			t.Fatal(err)
		}
		got, err := e.Begin().Select(context.Background(), tbl, exec.Pred{Col: 0, Op: exec.Eq, Val: storage.Int(0)})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 {
			t.Fatalf("Select(id=0) after restart = %v, want one row", got)
		}
		hs := e.Heaps()
		if c := e.Coordinator(); c != nil {
			hs = append(hs, c.Heap())
		}
		for _, h := range hs {
			p, err := h.ResidentPages()
			if err != nil {
				t.Fatal(err)
			}
			pages[i] += p
		}
		for k := 0; k < 16; k++ {
			tx := e.Begin()
			for j := 0; j < 4; j++ {
				if _, err := tx.Insert(tbl, row(rows+4*k+j)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	return pages
}
