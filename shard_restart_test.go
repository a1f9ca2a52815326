package hyrisenv_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"hyrisenv"
	"hyrisenv/client"
)

// TestRestartFlatAcrossShardCounts is the regression guard for the
// sharded instant-restart property (experiment E12): recovery fans out
// across shards concurrently, so reopening the same dataset partitioned
// 8 ways must not cost materially more than reopening it unpartitioned.
// The budget is 2x the single-shard time (the paper's property is
// per-shard recovery of 1/N the data, run in parallel) plus a fixed
// floor that keeps the test meaningful on noisy CI machines where both
// times are a few milliseconds.
func TestRestartFlatAcrossShardCounts(t *testing.T) {
	const rows = 20000
	recoveryTime := func(shards int) time.Duration {
		t.Helper()
		dir := t.TempDir()
		cfg := hyrisenv.Config{
			Mode: hyrisenv.NVM, Dir: dir, NVMHeapSize: 64 << 20, Shards: shards,
		}
		db, err := hyrisenv.Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tbl, err := db.CreateTable("orders", []hyrisenv.Column{
			{Name: "id", Type: hyrisenv.Int64},
			{Name: "customer", Type: hyrisenv.String},
			{Name: "amount", Type: hyrisenv.Float64},
		}, "id")
		if err != nil {
			t.Fatal(err)
		}
		for done := 0; done < rows; done += 1000 {
			tx := db.Begin()
			for i := done; i < done+1000; i++ {
				if _, err := tx.Insert(tbl,
					hyrisenv.Int(int64(i)),
					hyrisenv.Str(fmt.Sprintf("c%d", i%97)),
					hyrisenv.Float(float64(i)),
				); err != nil {
					t.Fatal(err)
				}
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}

		db2, err := hyrisenv.Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer db2.Close()
		tbl2, err := db2.Table("orders")
		if err != nil {
			t.Fatal(err)
		}
		n, err := db2.Begin().CountContext(context.Background(), tbl2)
		if err != nil {
			t.Fatal(err)
		}
		if n != rows {
			t.Fatalf("shards=%d: %d rows after restart, want %d", shards, n, rows)
		}
		// A table has a part on every shard and counts once.
		rs := db2.RecoveryStats()
		if rs.Shards != shards || rs.TablesOpened != 1 {
			t.Fatalf("RecoveryStats: %d shards, %d tables; want %d shards, 1 table", rs.Shards, rs.TablesOpened, shards)
		}
		return rs.Total
	}

	t1 := recoveryTime(1)
	t8 := recoveryTime(8)
	budget := 2 * t1
	if floor := 250 * time.Millisecond; budget < floor {
		budget = floor
	}
	t.Logf("recovery: shards=1 %s, shards=8 %s (budget %s)", t1, t8, budget)
	if t8 > budget {
		t.Fatalf("restart not flat: shards=8 recovered in %s, over the %s budget (shards=1: %s)",
			t8, budget, t1)
	}
}

// TestCrashReportAgreesOverTheWire cuts a 2-shard NVM fleet of two
// tables with transactions in flight on both shards, then checks that
// the public report and the wire Stats reply of the recovered database
// say the same: tables counted once, every in-flight part rolled back,
// every row stamp it wrote undone.
func TestCrashReportAgreesOverTheWire(t *testing.T) {
	const inFlight, rowsEach = 2, 16
	cfg := hyrisenv.Config{Mode: hyrisenv.NVM, Dir: t.TempDir(), NVMHeapSize: 16 << 20, Shards: 2}
	db, err := hyrisenv.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cols := []hyrisenv.Column{{Name: "id", Type: hyrisenv.Int64}, {Name: "v", Type: hyrisenv.String}}
	var tbls []*hyrisenv.Table
	for _, name := range []string{"orders", "lines"} {
		tbl, err := db.CreateTable(name, cols, "id")
		if err != nil {
			t.Fatal(err)
		}
		tbls = append(tbls, tbl)
	}
	// Each transaction inserts rowsEach rows into both tables, which the
	// key hash spreads over both shards; none commits. Close aborts
	// nothing and writes nothing, so the cut leaves every context live.
	for i := 0; i < inFlight; i++ {
		tx := db.Begin()
		for k := 0; k < rowsEach; k++ {
			for _, tbl := range tbls {
				if _, err := tx.Insert(tbl, hyrisenv.Int(int64(i*rowsEach+k)), hyrisenv.Str("lost")); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db, err = hyrisenv.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	rs := db.RecoveryStats()
	want := hyrisenv.RecoveryStats{
		Mode: hyrisenv.NVM, Shards: 2, TablesOpened: 2,
		LiveContexts: inFlight * 2, InFlightRolledBack: inFlight * 2, EntriesUndone: inFlight * rowsEach * 2,
	}
	got := rs
	got.Total = 0
	if got != want {
		t.Fatalf("RecoveryStats = %+v\nwant %+v", got, want)
	}
	for _, tbl := range db.Tables() {
		n, err := db.Begin().CountContext(context.Background(), tbl)
		if err != nil {
			t.Fatal(err)
		}
		if n != 0 {
			t.Fatalf("%s: %d rows survived the cut uncommitted", tbl.Name(), n)
		}
	}

	srv, err := db.Serve("127.0.0.1:0", hyrisenv.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := client.Dial(srv.Addr(), client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Mode != rs.Mode || st.Recovery != rs.Total || st.TablesOpened != rs.TablesOpened ||
		st.RolledBack != rs.InFlightRolledBack || st.EntriesUndone != rs.EntriesUndone {
		t.Fatalf("wire Stats %+v disagrees with RecoveryStats %+v", st, rs)
	}
}
