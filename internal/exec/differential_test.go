package exec_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hyrisenv/internal/core"
	"hyrisenv/internal/exec"
	"hyrisenv/internal/storage"
	"hyrisenv/internal/txn"
)

// The differential tests hold the block kernel to a row-at-a-time oracle
// that knows nothing of blocks, bitmaps or value-ID intervals: a row
// counts when View.Visible says so (and the reader has not deleted it
// itself) and the key behind its value ID — ValueID then DictKey —
// compares as the operator demands.

// Columns of the differential table.
const (
	dU = iota // int64, unique per physical row, indexed
	dK        // int64 from a small domain with gaps
	dS        // string: the decimal form of K, so its order is not K's
	dF        // float64: (K-50)/4, negative and positive, whole quarters sum exactly
	dT        // string: tieKey(K), keys whose first 8 bytes tie
	dCols
)

// Values the main partition draws K from, values the delta draws it
// from, and the keys predicates probe. 50 and 100 only ever reach the
// delta, 20/40/60/70/80 only the main; 5, 45, 95 and 105 are in neither:
// below, between, above the main dictionary's range and above both.
var (
	mainK  = []int64{10, 20, 30, 40, 60, 70, 80, 90}
	deltaK = []int64{10, 30, 50, 50, 90, 100}
	probeK = []int64{5, 10, 40, 45, 50, 90, 95, 100, 105}
)

var allOps = []exec.Op{exec.Eq, exec.Ne, exec.Lt, exec.Le, exec.Gt, exec.Ge, exec.Op(99)}

// tieKeys are column dT's keys for the values of K that have one; every
// other K gets "region-%02d" of K mod 16. The delta compares the first 8
// bytes of a key as one word, and these keys tie there: "region-NN"
// longer than 8 bytes sharing "region-0" or "region-1" — with
// "region-1" itself and "region-1\x00" — and "ab" with keys that only
// add zero bytes to it, shorter and longer than 8.
var tieKeys = map[int64]string{
	10: "region-00", 20: "ab", 30: "region-15", 40: "ab\x00", 50: "region-07",
	60: "region-1", 70: "ab\x00\x00\x00\x00\x00\x00", 80: "region-08",
	90: "ab\x00\x00\x00\x00\x00\x00\x00\x00", 100: "region-1\x00",
}

func tieKey(k int64) string {
	if s, ok := tieKeys[k]; ok {
		return s
	}
	return fmt.Sprintf("region-%02d", k%16)
}

func diffRow(u, k int64) []storage.Value {
	return []storage.Value{storage.Int(u), storage.Int(k), storage.Str(strconv.FormatInt(k, 10)), storage.Float(float64(k-50) / 4), storage.Str(tieKey(k))}
}

// probes returns the predicate values for column col.
func probes(col int) []storage.Value {
	var out []storage.Value
	for _, k := range probeK {
		out = append(out, diffRow(0, k)[col])
	}
	switch col {
	case dK: // the smallest and the largest word, where Le's and Gt's +1 wraps
		out = append(out, storage.Int(math.MinInt64), storage.Int(math.MaxInt64))
	case dS:
		out = append(out, storage.Str(""), storage.Str("zzz"))
	case dF:
		out = append(out, storage.Float(-1000), storage.Float(1000), storage.Float(math.Copysign(0, -1)), storage.Float(0),
			storage.Float(math.Inf(-1)), storage.Float(math.Inf(1)))
	case dT:
		for _, s := range []string{"", "a", "ab", "ab\x00\x00\x00\x00\x00\x00\x00", "region-", "region-0", "region-1", "region-10", "region-99", "regioo", "\xff"} {
			out = append(out, storage.Str(s))
		}
	}
	return out
}

// reader is a transaction with the rows it has itself deleted.
type reader struct {
	name string
	tx   *txn.Txn
	dead map[uint64]bool
}

// oracle is one partition view read out a row at a time: the encoded key
// behind every cell, fetched once so that a thousand queries can be
// checked against it.
type oracle struct {
	v    storage.View
	keys [dCols][][]byte // keys[col][row]
}

func newOracle(v storage.View) *oracle {
	o := &oracle{v: v}
	mr, rows := v.MainRows(), v.Rows()
	for col := range o.keys {
		o.keys[col] = make([][]byte, rows)
		for row := uint64(0); row < rows; row++ {
			if row < mr {
				c := v.MainColumnAt(col)
				o.keys[col][row] = c.DictKey(c.ValueID(row))
			} else {
				c := v.DeltaColumnAt(col)
				o.keys[col][row] = c.DictKey(c.ValueID(row - mr))
			}
		}
	}
	return o
}

// visible returns the rows r sees, ascending.
func (o *oracle) visible(r reader) []uint64 {
	var rows []uint64
	for row := range o.keys[0] {
		if row := uint64(row); !r.dead[row] && o.v.Visible(row, r.tx.SnapshotCID(), r.tx.TID()) {
			rows = append(rows, row)
		}
	}
	return rows
}

func accepts(op exec.Op, cmp int) bool {
	switch op {
	case exec.Eq:
		return cmp == 0
	case exec.Ne:
		return cmp != 0
	case exec.Lt:
		return cmp < 0
	case exec.Le:
		return cmp <= 0
	case exec.Gt:
		return cmp > 0
	case exec.Ge:
		return cmp >= 0
	}
	return false
}

// selectRows is Select over the visible rows, a row at a time.
func (o *oracle) selectRows(visible []uint64, preds []exec.Pred) []uint64 {
	keys := make([][]byte, len(preds))
	for i, p := range preds {
		keys[i] = p.Val.EncodeKey(nil)
	}
	var out []uint64
rows:
	for _, row := range visible {
		for i, p := range preds {
			if !accepts(p.Op, bytes.Compare(o.keys[p.Col][row], keys[i])) {
				continue rows
			}
		}
		out = append(out, row)
	}
	return out
}

// groupBy is GroupBy over the visible rows, a row at a time.
func (o *oracle) groupBy(tbl *storage.Table, visible []uint64, groupCol, aggCol int) []exec.Group {
	byKey := map[string]*exec.Group{}
	for _, row := range visible {
		k := string(o.keys[groupCol][row])
		g := byKey[k]
		if g == nil {
			g = &exec.Group{Key: storage.DecodeValue(tbl.Schema.Cols[groupCol].Type, []byte(k))}
			byKey[k] = g
		}
		g.Count++
		if aggCol >= 0 {
			if a := storage.DecodeValue(tbl.Schema.Cols[aggCol].Type, o.keys[aggCol][row]); a.T == storage.TypeInt64 {
				g.Sum += float64(a.I)
			} else {
				g.Sum += a.F
			}
		}
	}
	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]exec.Group, len(keys))
	for i, k := range keys {
		out[i] = *byKey[k]
	}
	return out
}

// join is the self equi-join on col over the visible rows: pairs in
// right-row order, the left rows of each ascending.
func (o *oracle) join(visible []uint64, col int) []exec.JoinPair {
	left := map[string][]uint64{}
	for _, row := range visible {
		k := string(o.keys[col][row])
		left[k] = append(left[k], row)
	}
	var out []exec.JoinPair
	for _, row := range visible {
		for _, l := range left[string(o.keys[col][row])] {
			out = append(out, exec.JoinPair{Left: l, Right: row})
		}
	}
	return out
}

// diffFixture is a table of exactly mainRows physical main rows and
// deltaRows physical delta rows, in every MVCC state, and the readers
// that look at it differently.
type diffFixture struct {
	e       *core.Engine
	tbl     *storage.Table
	readers []reader
}

// subtest names a mode's subtest by the short name these tests have
// always used (none, log, nvm), not by the mode's public name.
func subtest(m txn.Mode) string { return [...]string{"none", "log", "nvm"}[m] }

func openDiffEngine(t testing.TB, mode txn.Mode) (*core.Engine, *storage.Table) {
	t.Helper()
	cfg := core.Config{Mode: mode, NVMHeapSize: 256 << 20}
	if mode != txn.ModeNone {
		cfg.Dir = t.TempDir()
	}
	e, err := core.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	sch, err := storage.NewSchema(
		storage.ColumnDef{Name: "u", Type: storage.TypeInt64},
		storage.ColumnDef{Name: "k", Type: storage.TypeInt64},
		storage.ColumnDef{Name: "s", Type: storage.TypeString},
		storage.ColumnDef{Name: "f", Type: storage.TypeFloat64},
		storage.ColumnDef{Name: "t", Type: storage.TypeString},
	)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := e.CreateTable("diff", sch, "u")
	if err != nil {
		t.Fatal(err)
	}
	return e, tbl
}

// churn is how a fixture's committed writers treat existing rows.
type churn int

const (
	// churnRandom: a third of the delta rows are updates, and each half
	// of the writes deletes a twentieth of the main — dead versions in
	// every block.
	churnRandom churn = iota
	// churnNone: inserts only. Every full block is settled: each begin a
	// real CID, each end Inf, so once a scan has looked the kernel takes
	// the block's visibility from its frozen record, all ones.
	churnNone
	// churnOne: inserts only, and one committed delete in the first
	// block, which is then the one frozen block with a dead row.
	churnOne
)

// suffix names a calm fixture's subtest; the churned ones keep the names
// they always had.
func (c churn) suffix() string { return [...]string{"", "/settled", "/one-dead"}[c] }

func buildDiffFixture(t *testing.T, mode txn.Mode, mainRows, deltaRows int, ch churn, seed int64) *diffFixture {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	e, tbl := openDiffEngine(t, mode)
	f := &diffFixture{e: e, tbl: tbl}
	ctx := context.Background()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	nextU := int64(0)
	insert := func(tx *txn.Txn, domain []int64) {
		t.Helper()
		_, err := tx.Insert(tbl, diffRow(nextU, domain[rng.Intn(len(domain))]))
		must(err)
		nextU++
	}
	// victim picks a row tx sees, or reports that it sees none.
	victim := func(tx *txn.Txn) (uint64, bool) {
		rows, err := exec.Serial.ScanAll(ctx, tx, tbl)
		must(err)
		if len(rows) == 0 {
			return 0, false
		}
		return rows[rng.Intn(len(rows))], true
	}

	// The main partition: mainRows rows, every one visible at the merge.
	// The merge keeps their begins, so a snapshot between the loading
	// commits reads blocks from below their largest begin.
	var firstLoad uint64
	for done := 0; done < mainRows; {
		tx := e.Begin()
		for n := 0; n < 1500 && done < mainRows; n, done = n+1, done+1 {
			insert(tx, mainK)
		}
		must(tx.Commit())
		if firstLoad == 0 {
			firstLoad = e.Manager().LastCID()
		}
	}
	_, err := e.Merge("diff")
	must(err)

	// Two physical delta rows each are set aside for the uncommitted
	// inserts of the transaction under test and of a bystander, when the
	// delta has room; the rest are committed in two halves around the
	// snapshot of the old reader.
	uncommitted := 0
	if deltaRows >= 8 {
		uncommitted = 2
	}
	committed := deltaRows - 2*uncommitted
	writeHalf := func(n int) {
		tx := e.Begin()
		for i := 0; i < n; i++ {
			// A third of the delta rows are new versions of a visible
			// row, which leaves the old version dead in its partition.
			if ch == churnRandom && rng.Intn(3) == 0 {
				if row, ok := victim(tx); ok {
					_, err := tx.Update(tbl, row, diffRow(nextU, deltaK[rng.Intn(len(deltaK))]))
					must(err)
					nextU++
					continue
				}
			}
			insert(tx, deltaK)
		}
		// Deletes add no row: dead versions in the main even when the
		// delta stays empty.
		for i := 0; ch == churnRandom && i < 1+mainRows/20; i++ {
			if row, ok := victim(tx); ok {
				must(tx.Delete(tbl, row))
			}
		}
		must(tx.Commit())
	}
	writeHalf(committed / 2)
	old := reader{name: "old", tx: e.Begin()} // must not see the second half
	writeHalf(committed - committed/2)
	if ch == churnOne && tbl.Rows() > 7 {
		tx := e.Begin()
		must(tx.Delete(tbl, 7))
		must(tx.Commit())
	}

	// A bystander holds uncommitted inserts and deletes open.
	other := e.Begin()
	for i := 0; i < uncommitted; i++ {
		insert(other, deltaK)
	}
	for i := 0; i < 3; i++ {
		if row, ok := victim(other); ok {
			must(other.Delete(tbl, row))
		}
	}
	t.Cleanup(func() { other.Abort() })

	// The transaction under test reads its own inserts and not its own
	// deletes — among them one of its own inserts.
	self := reader{name: "self", tx: e.Begin(), dead: map[uint64]bool{}}
	for i := 0; i < uncommitted; i++ {
		insert(self.tx, deltaK)
	}
	if uncommitted > 0 {
		row := tbl.Rows() - 1 // its own last insert
		must(self.tx.Delete(tbl, row))
		self.dead[row] = true
	}
	for i := 0; i < 4; i++ {
		row, ok := victim(self.tx)
		if !ok {
			break
		}
		// A row the bystander has claimed is a conflict, not a delete.
		if err := self.tx.Delete(tbl, row); err == nil {
			self.dead[row] = true
		} else if !errors.Is(err, txn.ErrConflict) {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() { self.tx.Abort() })

	f.readers = []reader{old, self, {name: "fresh", tx: e.Begin()}}
	if firstLoad != 0 {
		// Time travel to the first loading commit: the rest of the main
		// partition is not there yet.
		early := reader{name: "early", tx: e.Manager().BeginAt(firstLoad)}
		t.Cleanup(func() { early.tx.Abort() })
		f.readers = append(f.readers, early)
	}
	if got, want := tbl.MainRows(), uint64(mainRows); got != want {
		t.Fatalf("fixture has %d main rows, want %d", got, want)
	}
	if got, want := tbl.DeltaRows(), uint64(deltaRows); got != want {
		t.Fatalf("fixture has %d delta rows, want %d", got, want)
	}
	return f
}

func eqGroups(a, b []exec.Group) bool {
	return slices.EqualFunc(a, b, func(x, y exec.Group) bool {
		return x.Key.Equal(y.Key) && x.Count == y.Count && x.Sum == y.Sum
	})
}

// check compares every operator of ex with the oracle, for every reader.
func (f *diffFixture) check(t *testing.T, ex *exec.Executor) {
	t.Helper()
	ctx := context.Background()
	v := f.tbl.View() // nothing writes or merges while check runs
	o := newOracle(v)
	for _, r := range f.readers {
		visible := o.visible(r)
		one := func(preds ...exec.Pred) {
			t.Helper()
			want := o.selectRows(visible, preds)
			got, err := ex.Select(ctx, r.tx, f.tbl, preds...)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("reader %s, Select(%v): %d rows %v, oracle %d rows %v", r.name, preds, len(got), head(got), len(want), head(want))
			}
			n, err := ex.Count(ctx, r.tx, f.tbl, preds...)
			if err != nil {
				t.Fatal(err)
			}
			if n != len(want) {
				t.Fatalf("reader %s, Count(%v) = %d, oracle %d", r.name, preds, n, len(want))
			}
		}
		one()
		// Every operator against every probe where a table is a few blocks
		// long; a table of morsels is there for its boundaries, and is held
		// to every sixth of them.
		stride := 1
		if v.Rows() > 4*exec.BlockRows {
			stride = 6
		}
		var all []exec.Pred
		for _, col := range []int{dK, dS, dF, dT} {
			for _, val := range probes(col) {
				for _, op := range allOps {
					p := exec.Pred{Col: col, Op: op, Val: val}
					if len(all)%stride == 0 {
						one(p)
					}
					all = append(all, p)
				}
			}
		}
		// The unique column is indexed: Eq goes through the index, for
		// Count as for Select; the other operators scan it.
		for _, u := range []int64{-1, 0, int64(v.MainRows()) - 1, int64(v.MainRows()), int64(v.Rows()) - 1, int64(v.Rows()) + 7} {
			for _, op := range allOps {
				one(exec.Pred{Col: dU, Op: op, Val: storage.Int(u)})
			}
		}
		rng := rand.New(rand.NewSource(int64(len(all))))
		for i := 0; i < 40; i++ {
			one(all[rng.Intn(len(all))], all[rng.Intn(len(all))], all[rng.Intn(len(all))])
		}

		for _, cols := range [][2]int{{dK, dF}, {dS, dU}, {dF, -1}, {dT, dK}} {
			want := o.groupBy(f.tbl, visible, cols[0], cols[1])
			got, err := ex.GroupBy(ctx, r.tx, f.tbl, cols[0], cols[1])
			if err != nil {
				t.Fatal(err)
			}
			if !eqGroups(got, want) {
				t.Fatalf("reader %s, GroupBy(%d, %d) = %v, oracle %v", r.name, cols[0], cols[1], got, want)
			}
		}

		joinCols := []int{dU}
		if v.Rows() <= 2*exec.BlockRows+2 {
			joinCols = append(joinCols, dK) // quadratic in the rows per key
		}
		for _, col := range joinCols {
			want := o.join(visible, col)
			got, err := ex.HashJoin(ctx, r.tx, f.tbl, col, f.tbl, col)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("reader %s, HashJoin on %d: %d pairs, oracle %d", r.name, col, len(got), len(want))
			}
		}
	}
}

func head(rows []uint64) []uint64 { return rows[:min(len(rows), 8)] }

// TestKernelMatchesOracle runs the comparison over tables whose
// partitions are empty, end just before, on and after a bitmap word, a
// block and a morsel, on both backends, serial and parallel — the second
// executor over blocks whose frozen records the first one's scans left
// behind. The churned shapes have dead versions in every block. The calm
// ones are the four a frozen record meets: blocks all settled; one dead
// row, in the first block; the reader's own uncommitted deletes inside
// settled blocks (reader "self", in each of them); and settled blocks of
// a delta, behind a main that ends on a block boundary and behind one
// that does not. Reader "old" sees only the first half of such a delta
// and reader "early" only the first 1500 main rows: frozen blocks read
// from below their maxStamp. Column t's keys tie in their first 8 bytes,
// which the delta's order predicates settle on whole keys, and the
// probes include the extreme Int64s and Float64's signed zeros and
// infinities.
func TestKernelMatchesOracle(t *testing.T) {
	const b, m = exec.BlockRows, exec.MorselRows
	shapes := []struct {
		main, delta int
		churn       churn
		nvm         bool // also on the NVM backend
	}{
		{0, 0, churnRandom, true}, {0, 1, churnRandom, true}, {1, 0, churnRandom, true},
		{63, 65, churnRandom, true}, {64, 64, churnRandom, false}, {65, 63, churnRandom, true},
		{b - 1, 1, churnRandom, false}, {b, b + 1, churnRandom, true}, {b + 1, b - 1, churnRandom, false}, {0, b, churnRandom, false},
		{m - 1, 2, churnRandom, false}, {m, 0, churnRandom, false}, {m + 1, 65, churnRandom, true}, {100, m + 1, churnRandom, false},
		{3 * b, 0, churnNone, true}, {3*b + 9, 0, churnOne, true},
		{b, 2*b + 8, churnNone, true}, {100, 3*b + 8, churnNone, false},
	}
	for i, sh := range shapes {
		modes := []txn.Mode{txn.ModeNone}
		if sh.nvm {
			modes = append(modes, txn.ModeNVM)
		}
		for _, mode := range modes {
			t.Run(fmt.Sprintf("%s/main=%d/delta=%d%s", subtest(mode), sh.main, sh.delta, sh.churn.suffix()), func(t *testing.T) {
				f := buildDiffFixture(t, mode, sh.main, sh.delta, sh.churn, int64(1000+i))
				for _, par := range []int{1, 3} {
					f.check(t, exec.New(par))
				}
			})
		}
	}
}

// TestKernelMatchesOracleUnderWrites repeats the Select and Count
// comparison while a writer commits inserts, updates and deletes and the
// table is merged again and again. Each scan is compared on the very
// view it read (ScanOn): under snapshot isolation neither a later commit
// nor a later generation may change what that view shows the reader.
func TestKernelMatchesOracleUnderWrites(t *testing.T) {
	for _, mode := range []txn.Mode{txn.ModeNone, txn.ModeLog, txn.ModeNVM} {
		t.Run(subtest(mode), func(t *testing.T) {
			e, tbl := openDiffEngine(t, mode)
			ctx := context.Background()
			var nextU int64
			load := e.Begin()
			for ; nextU < 3*exec.BlockRows/2; nextU++ {
				if _, err := load.Insert(tbl, diffRow(nextU, mainK[nextU%int64(len(mainK))])); err != nil {
					t.Fatal(err)
				}
			}
			if err := load.Commit(); err != nil {
				t.Fatal(err)
			}

			// A merge needs a table no transaction owns a row of, so writer
			// and merger take turns through gate; the scans race with both.
			var (
				gate            sync.Mutex
				commits, merges atomic.Int64
				wg              sync.WaitGroup
			)
			stop := make(chan struct{})
			background := func(step func() error) {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						gate.Lock()
						err := step()
						gate.Unlock()
						if err != nil {
							t.Error(err)
							return
						}
						time.Sleep(100 * time.Microsecond) // let the other one in
					}
				}()
			}
			wrng := rand.New(rand.NewSource(7))
			background(func() error { // the committing writer
				tx := e.Begin()
				for i := 0; i < 4; i++ {
					if _, err := tx.Insert(tbl, diffRow(nextU, deltaK[wrng.Intn(len(deltaK))])); err != nil {
						return err
					}
					nextU++
				}
				rows, err := exec.Serial.Select(ctx, tx, tbl, exec.Pred{Col: dK, Op: exec.Eq, Val: storage.Int(mainK[wrng.Intn(len(mainK))])})
				if err != nil {
					return err
				}
				if len(rows) >= 2 {
					if _, err := tx.Update(tbl, rows[0], diffRow(nextU, 50)); err != nil {
						return err
					}
					nextU++
					if err := tx.Delete(tbl, rows[len(rows)-1]); err != nil {
						return err
					}
				}
				commits.Add(1)
				return tx.Commit()
			})
			background(func() error { // the merger
				_, err := e.Merge("diff")
				merges.Add(1)
				return err
			})

			par := exec.New(3)
			rng := rand.New(rand.NewSource(11))
			for i := 0; (i < 150 || commits.Load() < 50 || merges.Load() < 5) && !t.Failed(); i++ {
				r := reader{name: "snapshot", tx: e.Begin()}
				col := []int{dK, dS, dF, dT}[rng.Intn(4)]
				vals := probes(col)
				preds := []exec.Pred{{Col: col, Op: allOps[rng.Intn(len(allOps))], Val: vals[rng.Intn(len(vals))]}}
				if i%3 == 0 {
					preds = append(preds, exec.Pred{Col: dU, Op: exec.Ge, Val: storage.Int(rng.Int63n(2 * exec.BlockRows))})
				}
				rows, n, v, err := par.ScanOn(ctx, r.tx, tbl, preds...)
				r.tx.Abort()
				if err != nil {
					t.Error(err) // not Fatal: the goroutines must stop before the engine closes
					break
				}
				o := newOracle(v)
				if want := o.selectRows(o.visible(r), preds); !slices.Equal(rows, want) || n != len(want) {
					t.Errorf("scan %d (%v): %d rows %v, count %d, oracle %d rows %v", i, preds, len(rows), head(rows), n, len(want), head(want))
				}
			}
			close(stop)
			wg.Wait()
		})
	}
}
