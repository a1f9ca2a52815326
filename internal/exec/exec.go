// Package exec is the shared query executor behind every read path of
// the engine: the embedded Tx API and the network server's request
// handlers funnel their scans, aggregations and joins through one
// Executor.
//
// Execution is morsel-driven (Leis et al., "Morsel-Driven Parallelism"):
// the main and delta partitions of a table are split into fixed-size
// runs of rows (morsels) that a pool of workers claims from an atomic
// cursor, so a fast core simply processes more morsels than a slow one.
// Each operator captures one partition View, the row bound and the
// snapshot at entry, so results are transactionally consistent even
// while merges publish new generations and concurrent writers commit.
// Results keyed by morsel index are reassembled in morsel order, which
// makes row-ID output deterministic and identical to a serial scan.
//
// Inside a morsel the work is done a block of rows at a time (scan.go),
// never a row at a time, and a block costs what it has to touch. Per
// block, mvcc.Store yields a visibility bitmap — copied from the block's
// frozen record, without reading a stamp, when no insert in the block is
// in flight and the snapshot covers every stamp in it, and from the
// begin/end stamps otherwise — from which the transaction's own deletes
// are cleared. Every predicate is then ANDed into the bitmap as one
// interval test, 64 rows per word: on the main partition the sorted
// dictionary resolves it, once per query, to one value-ID interval, and
// the column tests its bit planes against that interval in place
// (pstruct.FilterBits), decoding nothing; on the delta the block's value
// IDs are loaded and tested without a branch, for equality against the
// one ID the dictionary index holds for the key, for order on the IDs'
// key words (a String row whose word ties with the key's compares its
// whole key). The scan stops at the first predicate that leaves the
// block empty. Count popcounts the bitmap, Select walks its set bits,
// and GROUP BY and the hash join walk them over value-ID blocks they
// decode in bulk (pstruct.UnpackBits), since they need the IDs
// themselves.
//
// An Executor with Parallelism 1 runs every morsel inline on the
// calling goroutine — exact serial execution — so "serial" is a
// configuration, not a separate code path.
package exec

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"hyrisenv/internal/storage"
)

// MorselRows is the number of rows in one unit of claimed work. Small
// enough to load-balance skewed predicates across workers, large enough
// that the atomic claim is amortized over thousands of rows.
const MorselRows = 16384

// Errors returned by the executor. Operator wrappers and the server map
// these onto API- and wire-level error codes.
var (
	// ErrBadColumn means a predicate, grouping or join column index is
	// out of range for the table's schema.
	ErrBadColumn = errors.New("exec: no such column")
	// ErrBadValue means a predicate or range bound value's type does not
	// match the column it is compared against.
	ErrBadValue = errors.New("exec: value type does not match column type")
)

// Executor runs query operators at a fixed degree of parallelism. It is
// stateless apart from that degree and safe for concurrent use by any
// number of transactions.
type Executor struct {
	par int
}

// New returns an executor with the given degree of parallelism;
// parallelism <= 0 selects GOMAXPROCS (one worker per schedulable
// core), 1 is strictly serial.
func New(parallelism int) *Executor {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	return &Executor{par: parallelism}
}

// Serial is a shared parallelism-1 executor, used by tests and parity
// checks as the reference serial execution.
var Serial = New(1)

// Parallelism returns the configured worker count.
func (e *Executor) Parallelism() int { return e.par }

// forEachMorsel splits [0, rows) into MorselRows-sized morsels and runs
// fn for each. slot is the morsel index (morsel s covers rows
// [s*MorselRows, min((s+1)*MorselRows, rows))) — results stored by slot
// and concatenated in slot order reproduce ascending row order. worker
// identifies the claiming worker in [0, e.par) so fn can keep
// worker-local state (block scratch, partial aggregates).
//
// With one worker (or one morsel) everything runs inline on the calling
// goroutine. Otherwise the workers — e.par of them, but no more than
// there are morsels, or threads to run them on: a worker beyond
// GOMAXPROCS adds scratch and switches, not speed — claim morsels from an
// atomic cursor until the table is drained, fn fails, or ctx is
// cancelled; the first error wins and is returned after all workers have
// stopped.
func (e *Executor) forEachMorsel(ctx context.Context, rows uint64, fn func(worker, slot int, lo, hi uint64) error) error {
	nm := int((rows + MorselRows - 1) / MorselRows)
	workers := min(e.par, runtime.GOMAXPROCS(0), nm)
	if workers <= 1 {
		for s := 0; s < nm; s++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			lo := uint64(s) * MorselRows
			hi := min(lo+MorselRows, rows)
			if err := fn(0, s, lo, hi); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		cursor  atomic.Int64
		failed  atomic.Bool
		errOnce sync.Once
		firstEr error
		wg      sync.WaitGroup
	)
	fail := func(err error) {
		errOnce.Do(func() { firstEr = err })
		failed.Store(true)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				if failed.Load() {
					return
				}
				if err := ctx.Err(); err != nil {
					fail(err)
					return
				}
				s := int(cursor.Add(1) - 1)
				if s >= nm {
					return
				}
				lo := uint64(s) * MorselRows
				hi := min(lo+MorselRows, rows)
				if err := fn(worker, s, lo, hi); err != nil {
					fail(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return firstEr
}

// checkCol validates a column index against the schema.
func checkCol(tbl *storage.Table, col int) error {
	if col < 0 || col >= tbl.Schema.NumCols() {
		return fmt.Errorf("%w: column %d of table %q (%d columns)",
			ErrBadColumn, col, tbl.Name, tbl.Schema.NumCols())
	}
	return nil
}

// checkColValue validates a column index and a value compared against it.
func checkColValue(tbl *storage.Table, col int, v storage.Value) error {
	if err := checkCol(tbl, col); err != nil {
		return err
	}
	if want := tbl.Schema.Cols[col].Type; v.T != want {
		return fmt.Errorf("%w: %s against %s column %q of table %q",
			ErrBadValue, v.T, want, tbl.Schema.Cols[col].Name, tbl.Name)
	}
	return nil
}
