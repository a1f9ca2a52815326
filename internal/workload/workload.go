// Package workload generates the datasets and operation mixes driving
// the experiments: a parameterized bulk loader (recovery experiments
// sweep its size), a concurrent YCSB-style read/write mix (throughput
// and NVM-latency experiments) and a TPC-C-flavoured order-processing
// transaction set (examples and the mixed-transaction benchmark).
package workload

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"hyrisenv/internal/exec"
	"hyrisenv/internal/shard"
	"hyrisenv/internal/storage"
	"hyrisenv/internal/txn"
)

// Spec parameterizes the synthetic orders dataset.
type Spec struct {
	Rows      int
	Customers int // distinct customer keys
	Regions   int // distinct region strings
	Payload   int // bytes of per-row string payload
	Batch     int // rows per load transaction (default 1000)
	Seed      int64
}

// DefaultSpec returns a spec with n rows and representative cardinalities.
func DefaultSpec(n int) Spec {
	return Spec{Rows: n, Customers: n/10 + 1, Regions: 16, Payload: 32, Batch: 1000, Seed: 1}
}

// Schema returns the orders schema used across the experiments.
func Schema() storage.Schema {
	s, err := storage.NewSchema(
		storage.ColumnDef{Name: "id", Type: storage.TypeInt64},
		storage.ColumnDef{Name: "customer", Type: storage.TypeInt64},
		storage.ColumnDef{Name: "region", Type: storage.TypeString},
		storage.ColumnDef{Name: "amount", Type: storage.TypeFloat64},
		storage.ColumnDef{Name: "payload", Type: storage.TypeString},
	)
	if err != nil {
		panic(err)
	}
	return s
}

// colID..colPayload index the schema columns.
const (
	ColID = iota
	ColCustomer
	ColRegion
	ColAmount
	ColPayload
)

// Row synthesizes row i of the dataset.
func (s Spec) Row(rng *rand.Rand, i int) []storage.Value {
	payload := make([]byte, s.Payload)
	for j := range payload {
		payload[j] = byte('a' + (i+j)%26)
	}
	return []storage.Value{
		storage.Int(int64(i)),
		storage.Int(int64(rng.Intn(s.Customers))),
		storage.Str(fmt.Sprintf("region-%02d", rng.Intn(s.Regions))),
		storage.Float(float64(rng.Intn(100000)) / 100),
		storage.Str(string(payload)),
	}
}

// Load creates (if needed) and fills the named table.
func Load(e *shard.Engine, table string, s Spec) (*shard.Table, error) {
	if s.Batch <= 0 {
		s.Batch = 1000
	}
	tbl, err := e.Table(table)
	if err != nil {
		tbl, err = e.CreateTable(table, Schema(), "id", "customer")
		if err != nil {
			return nil, err
		}
	}
	rng := rand.New(rand.NewSource(s.Seed))
	for done := 0; done < s.Rows; {
		tx := e.Begin()
		n := s.Batch
		if done+n > s.Rows {
			n = s.Rows - done
		}
		for j := 0; j < n; j++ {
			if _, err := tx.Insert(tbl, s.Row(rng, done+j)); err != nil {
				tx.Abort()
				return nil, err
			}
		}
		if err := tx.Commit(); err != nil {
			return nil, err
		}
		done += n
	}
	return tbl, nil
}

// Mix is an operation mix in percent; the remainder up to 100 is reads.
type Mix struct {
	InsertPct int
	UpdatePct int
	DeletePct int
}

// ReadHeavy is the 90/10 read-dominated mix.
var ReadHeavy = Mix{InsertPct: 5, UpdatePct: 5}

// WriteHeavy is the 50/50 mix.
var WriteHeavy = Mix{InsertPct: 25, UpdatePct: 20, DeletePct: 5}

// RunStats summarizes a mixed-workload run.
type RunStats struct {
	Ops       int
	Commits   int
	Conflicts int
	Errors    int
	Duration  time.Duration
}

// OpsPerSec returns the throughput.
func (r RunStats) OpsPerSec() float64 {
	if r.Duration <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Duration.Seconds()
}

// RunMixed executes ops operations of the given mix against tbl with the
// given concurrency. Reads are indexed point lookups on id; updates and
// deletes pick random loaded ids; inserts append fresh ids. Conflicts
// abort and count, they are not retried (first-writer-wins).
func RunMixed(e *shard.Engine, tbl *shard.Table, s Spec, mix Mix, ops, threads int) RunStats {
	if threads <= 0 {
		threads = 1
	}
	var mu sync.Mutex
	total := RunStats{}
	start := time.Now()
	var wg sync.WaitGroup
	perThread := ops / threads
	for th := 0; th < threads; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(s.Seed + int64(th)*7919))
			local := RunStats{}
			nextID := s.Rows + th*perThread*2 // disjoint fresh-id ranges
			for i := 0; i < perThread; i++ {
				local.Ops++
				p := rng.Intn(100)
				switch {
				case p < mix.InsertPct:
					tx := e.Begin()
					_, err := tx.Insert(tbl, s.Row(rng, nextID))
					nextID++
					finish(tx, err, &local)
				case p < mix.InsertPct+mix.UpdatePct:
					tx := e.Begin()
					rows := selectEq(tx, tbl, ColID, storage.Int(int64(rng.Intn(s.Rows))))
					if len(rows) == 0 {
						tx.Abort()
						continue
					}
					vals := rowValues(tbl, rows[0])
					vals[ColAmount] = storage.Float(vals[ColAmount].F + 1)
					_, err := tx.Update(tbl, rows[0], vals)
					finish(tx, err, &local)
				case p < mix.InsertPct+mix.UpdatePct+mix.DeletePct:
					tx := e.Begin()
					rows := selectEq(tx, tbl, ColID, storage.Int(int64(rng.Intn(s.Rows))))
					if len(rows) == 0 {
						tx.Abort()
						continue
					}
					err := tx.Delete(tbl, rows[0])
					finish(tx, err, &local)
				default:
					tx := e.Begin()
					rows := selectEq(tx, tbl, ColID, storage.Int(int64(rng.Intn(s.Rows))))
					_ = rows
					tx.Commit()
					local.Commits++
				}
			}
			mu.Lock()
			total.Ops += local.Ops
			total.Commits += local.Commits
			total.Conflicts += local.Conflicts
			total.Errors += local.Errors
			mu.Unlock()
		}(th)
	}
	wg.Wait()
	total.Duration = time.Since(start)
	return total
}

func finish(tx *shard.Tx, err error, s *RunStats) {
	switch {
	case err == nil:
		if cerr := tx.Commit(); cerr == nil {
			s.Commits++
		} else {
			s.Errors++
		}
	case errors.Is(err, txn.ErrConflict), errors.Is(err, txn.ErrEpochChanged):
		tx.Abort()
		s.Conflicts++
	default:
		tx.Abort()
		s.Errors++
	}
}

// selectEq returns the rows visible to tx whose column col equals val.
// The workload schemas are fixed, so an executor error here is a
// programming bug and panics.
func selectEq(tx *shard.Tx, tbl *shard.Table, col int, val storage.Value) []uint64 {
	return scan(tx, tbl, exec.Pred{Col: col, Op: exec.Eq, Val: val})
}

// scan returns every row visible to tx that satisfies all predicates.
func scan(tx *shard.Tx, tbl *shard.Table, preds ...exec.Pred) []uint64 {
	rows, err := tx.Select(context.Background(), tbl, preds...)
	if err != nil {
		panic("workload: " + err.Error())
	}
	return rows
}

func rowValues(tbl *shard.Table, row uint64) []storage.Value {
	n := tbl.Schema.NumCols()
	vals := make([]storage.Value, n)
	for c := 0; c < n; c++ {
		vals[c] = tbl.Value(c, row)
	}
	return vals
}
