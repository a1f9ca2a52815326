package hyrisenv_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"hyrisenv"
	"hyrisenv/client"
	"hyrisenv/internal/exec"
)

// TestQueryParity is the executor's end-to-end contract: for randomized
// predicates over a randomized table, independent per-shard serial
// execution, morsel-parallel execution through the shard router, and
// execution through the network server return identical results — while
// concurrent writers keep committing (on a partitioned database their
// batches span shards, so cross-shard 2PC commits run under the parity
// load too). All paths read the same BeginAt snapshot, so any
// divergence is an executor or router bug, not timing.
//
// Under the race detector (raceEnabled) the table, the number of query
// rounds and the shard counts shrink: the writers outrun the slowed-down
// queries, the table every round scans grows with the time the rounds
// take, and at full size one shard count alone runs past ten minutes.
func TestQueryParity(t *testing.T) {
	shardCounts, seedRows, iters := []int{1, 2, 8}, int64(6000), 40
	if raceEnabled {
		shardCounts, seedRows, iters = []int{1, 8}, 2000, 12
	}
	for _, shards := range shardCounts {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			runQueryParity(t, shards, seedRows, iters)
		})
	}
}

// runQueryParity seeds seedRows rows (a multiple of 1000, so that the
// merge falls on a batch boundary) and runs iters rounds of queries.
func runQueryParity(t *testing.T, shards int, seedRows int64, iters int) {
	rng := rand.New(rand.NewSource(20260806))

	db, err := hyrisenv.Open(hyrisenv.Config{Mode: hyrisenv.Volatile, Parallelism: 4, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	cats := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	tbl, err := db.CreateTable("events", []hyrisenv.Column{
		{Name: "id", Type: hyrisenv.Int64},
		{Name: "cat", Type: hyrisenv.String},
		{Name: "num", Type: hyrisenv.Float64},
	}, "id", "cat")
	if err != nil {
		t.Fatal(err)
	}

	// Randomized load: inserts with occasional updates and deletes, a
	// merge partway through so rows span main and delta.
	nextID := int64(0)
	insertBatch := func(tx *hyrisenv.Tx, n int) {
		for i := 0; i < n; i++ {
			if _, err := tx.Insert(tbl,
				hyrisenv.Int(nextID),
				hyrisenv.Str(cats[rng.Intn(len(cats))]),
				hyrisenv.Float(math.Floor(rng.Float64()*100000)/100),
			); err != nil {
				t.Fatal(err)
			}
			nextID++
		}
	}
	for done := int64(0); done < seedRows; done += 500 {
		tx := db.Begin()
		insertBatch(tx, 500)
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if done == seedRows/2 {
			if err := db.Merge("events"); err != nil {
				t.Fatal(err)
			}
		}
	}
	mut := db.Begin()
	for i := 0; i < 300; i++ {
		rows, err := mut.SelectContext(context.Background(), tbl,
			hyrisenv.Pred{Col: "id", Op: hyrisenv.Eq, Val: hyrisenv.Int(rng.Int63n(seedRows))})
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) == 0 {
			continue
		}
		if i%3 == 0 {
			if err := mut.Delete(tbl, rows[0]); err != nil {
				t.Fatal(err)
			}
		} else {
			if _, err := mut.Update(tbl, rows[0],
				hyrisenv.Int(rng.Int63n(seedRows)),
				hyrisenv.Str(cats[rng.Intn(len(cats))]),
				hyrisenv.Float(float64(rng.Intn(1000))),
			); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := mut.Commit(); err != nil {
		t.Fatal(err)
	}

	// The network path: same engine, served over TCP.
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

	// Concurrent writers keep committing while the parity queries run;
	// snapshot isolation must keep all three paths agreeing anyway.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wrng := rand.New(rand.NewSource(int64(w)))
			id := int64(1_000_000 * (w + 1))
			for {
				select {
				case <-stop:
					return
				default:
				}
				tx := db.Begin()
				for i := 0; i < 20; i++ {
					if _, err := tx.Insert(tbl,
						hyrisenv.Int(id),
						hyrisenv.Str(cats[wrng.Intn(len(cats))]),
						hyrisenv.Float(float64(wrng.Intn(1000))),
					); err != nil {
						t.Error(err)
						return
					}
					id++
				}
				if err := tx.Commit(); err != nil {
					t.Error(err)
					return
				}
				time.Sleep(time.Millisecond)
			}
		}(w)
	}
	defer func() { close(stop); wg.Wait() }()

	serial := exec.New(1)
	ctx := context.Background()

	// Per-shard serial reference: run the serial executor independently
	// on every partition and combine in the test — an implementation of
	// the routing contract independent of internal/shard's own.
	serialVals := func(tx *hyrisenv.Tx, preds []exec.Pred) []string {
		var out []string
		for i := 0; i < db.Shards(); i++ {
			part := tbl.Sharded().Part(i)
			rows, err := serial.Select(ctx, tx.Sharded().Part(i), part, preds...)
			if err != nil {
				t.Fatal(err)
			}
			for _, vals := range exec.Project(part, rows, 0, 1, 2) {
				out = append(out, fmt.Sprint(vals))
			}
		}
		sort.Strings(out)
		return out
	}
	serialRangeVals := func(tx *hyrisenv.Tx, lo, hi hyrisenv.Value) []string {
		var out []string
		for i := 0; i < db.Shards(); i++ {
			part := tbl.Sharded().Part(i)
			rows, err := serial.SelectRange(ctx, tx.Sharded().Part(i), part, 0, lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			for _, vals := range exec.Project(part, rows, 0, 1, 2) {
				out = append(out, fmt.Sprint(vals))
			}
		}
		sort.Strings(out)
		return out
	}
	routedVals := func(rows []uint64) []string {
		out := make([]string, 0, len(rows))
		for _, r := range rows {
			out = append(out, fmt.Sprint([]hyrisenv.Value{
				tbl.Value(0, r), tbl.Value(1, r), tbl.Value(2, r)}))
		}
		sort.Strings(out)
		return out
	}
	eqVals := func(label string, a, b []string) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("%s: %d vs %d rows", label, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: row[%d] %s vs %s", label, i, a[i], b[i])
			}
		}
	}

	cols := []string{"id", "cat", "num"}
	ops := []hyrisenv.Op{hyrisenv.Eq, hyrisenv.Ne, hyrisenv.Lt, hyrisenv.Le, hyrisenv.Gt, hyrisenv.Ge}
	randPred := func() hyrisenv.Pred {
		ci := rng.Intn(len(cols))
		var v hyrisenv.Value
		switch ci {
		case 0:
			v = hyrisenv.Int(rng.Int63n(seedRows))
		case 1:
			v = hyrisenv.Str(cats[rng.Intn(len(cats))])
		default:
			v = hyrisenv.Float(float64(rng.Intn(1000)))
		}
		return hyrisenv.Pred{Col: cols[ci], Op: ops[rng.Intn(len(ops))], Val: v}
	}
	toExec := func(ps []hyrisenv.Pred) []exec.Pred {
		out := make([]exec.Pred, len(ps))
		for i, p := range ps {
			ci := 0
			for j, name := range cols {
				if name == p.Col {
					ci = j
				}
			}
			out[i] = exec.Pred{Col: ci, Op: p.Op, Val: p.Val}
		}
		return out
	}
	eqRows := func(label string, a, b []uint64) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("%s: %d vs %d rows", label, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: row[%d] %d vs %d", label, i, a[i], b[i])
			}
		}
	}

	for iter := 0; iter < iters; iter++ {
		// All three paths pin the same commit horizon.
		cid := db.LastCommitID()
		local := db.BeginAt(cid)      // parallel: the db's par=4 executor
		remote, err := c.BeginAt(cid) // network: the server's handlers
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("iter %d (cid %d)", iter, cid)

		preds := []hyrisenv.Pred{randPred()}
		if rng.Intn(2) == 0 {
			preds = append(preds, randPred())
		}

		serVals := serialVals(local, toExec(preds))
		parRows, err := local.SelectContext(ctx, tbl, preds...)
		if err != nil {
			t.Fatal(err)
		}
		netRows, err := remote.SelectContext(ctx, "events", preds...)
		if err != nil {
			t.Fatal(err)
		}
		eqVals(label+" select serial/parallel", serVals, routedVals(parRows))
		eqRows(label+" select parallel/network", parRows, netRows)

		var serN int
		for i := 0; i < db.Shards(); i++ {
			n, err := serial.Count(ctx, local.Sharded().Part(i), tbl.Sharded().Part(i), toExec(preds)...)
			if err != nil {
				t.Fatal(err)
			}
			serN += n
		}
		parN, err := local.CountContext(ctx, tbl, preds...)
		if err != nil {
			t.Fatal(err)
		}
		netN, err := remote.CountContext(ctx, "events", preds...)
		if err != nil {
			t.Fatal(err)
		}
		if serN != parN || parN != netN || parN != len(parRows) {
			t.Fatalf("%s count: serial %d parallel %d network %d (select %d)",
				label, serN, parN, netN, len(parRows))
		}

		lo, hi := rng.Int63n(seedRows), rng.Int63n(seedRows)
		if lo > hi {
			lo, hi = hi, lo
		}
		serVals = serialRangeVals(local, hyrisenv.Int(lo), hyrisenv.Int(hi))
		parRows, err = local.SelectRangeContext(ctx, tbl, "id", hyrisenv.Int(lo), hyrisenv.Int(hi))
		if err != nil {
			t.Fatal(err)
		}
		netRows, err = remote.SelectRangeContext(ctx, "events", "id", hyrisenv.Int(lo), hyrisenv.Int(hi))
		if err != nil {
			t.Fatal(err)
		}
		eqVals(label+" range serial/parallel", serVals, routedVals(parRows))
		eqRows(label+" range parallel/network", parRows, netRows)

		// GroupBy parity (serial vs parallel; the wire protocol has no
		// aggregate op). Per-shard serial partials merge through the same
		// ordering contract as GroupBy itself. Counts are exact; float
		// sums may differ at ulp scale across merge orders, so compare
		// with a relative epsilon.
		partials := make([][]exec.Group, db.Shards())
		for i := 0; i < db.Shards(); i++ {
			partials[i], err = serial.GroupBy(ctx, local.Sharded().Part(i), tbl.Sharded().Part(i), 1, 2)
			if err != nil {
				t.Fatal(err)
			}
		}
		serG := exec.MergeGroups(partials...)
		parG, err := local.GroupByContext(ctx, tbl, "cat", "num")
		if err != nil {
			t.Fatal(err)
		}
		if len(serG) != len(parG) {
			t.Fatalf("%s groupby: %d vs %d groups", label, len(serG), len(parG))
		}
		for i := range serG {
			s, p := serG[i], parG[i]
			if s.Key != p.Key || s.Count != p.Count {
				t.Fatalf("%s groupby[%d]: %+v vs %+v", label, i, s, p)
			}
			if diff := math.Abs(s.Sum - p.Sum); diff > 1e-6*math.Max(1, math.Abs(s.Sum)) {
				t.Fatalf("%s groupby[%d] sum: %g vs %g", label, i, s.Sum, p.Sum)
			}
		}

		if err := remote.Abort(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestQueryParityNVM reruns a compact serial-vs-parallel parity check
// on the NVM engine (quiescent: the simulated NVM heap is written with
// plain stores, so the parity-under-writers half stays on the volatile
// engine where vectors are atomic).
func TestQueryParityNVM(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	db, err := hyrisenv.Open(hyrisenv.Config{
		Mode: hyrisenv.NVM, Dir: t.TempDir(), NVMHeapSize: 256 << 20, Parallelism: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	cats := []string{"x", "y", "z"}
	tbl, err := db.CreateTable("events", []hyrisenv.Column{
		{Name: "id", Type: hyrisenv.Int64},
		{Name: "cat", Type: hyrisenv.String},
	}, "id")
	if err != nil {
		t.Fatal(err)
	}
	for done := 0; done < 3000; done += 500 {
		tx := db.Begin()
		for i := 0; i < 500; i++ {
			if _, err := tx.Insert(tbl,
				hyrisenv.Int(int64(done+i)), hyrisenv.Str(cats[rng.Intn(len(cats))])); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if done == 1500 {
			if err := db.Merge("events"); err != nil {
				t.Fatal(err)
			}
		}
	}

	serial := exec.New(1)
	ctx := context.Background()
	tx := db.Begin()
	for iter := 0; iter < 10; iter++ {
		pred := hyrisenv.Pred{Col: "cat", Op: hyrisenv.Ne, Val: hyrisenv.Str(cats[rng.Intn(len(cats))])}
		want, err := serial.Select(ctx, tx.Internal(), tbl.Internal(),
			exec.Pred{Col: 1, Op: pred.Op, Val: pred.Val})
		if err != nil {
			t.Fatal(err)
		}
		got, err := tx.SelectContext(ctx, tbl, pred)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("iter %d: %d vs %d rows", iter, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("iter %d row[%d]: %d vs %d", iter, i, got[i], want[i])
			}
		}
	}
}
