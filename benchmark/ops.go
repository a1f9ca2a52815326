package main

import (
	"fmt"
	"sort"
	"time"

	"hyrisenv"
)

// opFunc runs the next op of a seeded stream against some boundary and
// verifies the answer. Any error, refused request or wrong answer makes
// the op a failed one.
type opFunc func() error

// wrongf reports an answer that differs from what the generator says it
// must be.
func wrongf(format string, args ...any) error {
	return fmt.Errorf("wrong answer: "+format, args...)
}

func idEq(k int64) pred { return pred{Col: "id", Op: hyrisenv.Eq, Val: hyrisenv.Int(k)} }

// pointOps is the point-read stream: look a uniformly drawn id up
// through the index, then fetch its row.
func pointOps(t target, d dataset) opFunc {
	i := uint64(0)
	return func() error {
		k := int64(d.hash(2, i) % uint64(d.rows))
		i++
		rids, err := t.selectRows(idEq(k))
		if err != nil {
			return err
		}
		if len(rids) != 1 {
			return wrongf("id %d matches %d rows", k, len(rids))
		}
		vals, err := t.row(rids[0])
		if err != nil {
			return err
		}
		if !d.row(k).equal(vals) {
			return wrongf("id %d reads %v", k, vals)
		}
		return nil
	}
}

// scanOps is the scan stream: one op is the cycle of four queries over
// columns without an index, each checked against the brute-force answer.
// Timing the cycle, not the single query, keeps the median off the
// boundary between two query shapes.
func scanOps(t target, d dataset, exp scanExpect) opFunc {
	i := uint64(0)
	return func() error {
		h := d.hash(3, i)
		i++
		reg, cut, q, reg2 := int(h%numRegions), int((h>>8)%uint64(len(amountCuts))), int((h>>16)%uint64(customerCuts)), int((h>>24)%numRegions)
		check := func(what string, want int) func(int, error) error {
			return func(got int, err error) error {
				if err == nil && got != want {
					err = wrongf("%s: %d rows, want %d", what, got, want)
				}
				return err
			}
		}
		amount := func(cents int64) pred {
			return pred{Col: "amount", Op: hyrisenv.Lt, Val: hyrisenv.Float(float64(cents) / 100)}
		}
		if err := check("count(region =)", exp.region[reg])(
			t.count(pred{Col: "region", Op: hyrisenv.Eq, Val: hyrisenv.Str(regionName(reg))})); err != nil {
			return err
		}
		if err := check("count(amount <)", exp.amountBelow[cut])(t.count(amount(amountCuts[cut]))); err != nil {
			return err
		}
		if err := check("count(customer >=, region !=)", exp.custNotReg[q][reg2])(
			t.count(pred{Col: "customer", Op: hyrisenv.Ge, Val: hyrisenv.Int(d.customerCut(q))},
				pred{Col: "region", Op: hyrisenv.Ne, Val: hyrisenv.Str(regionName(reg2))})); err != nil {
			return err
		}
		rids, err := t.selectRows(amount(selectCents))
		return check("select(amount <)", exp.selected)(len(rids), err)
	}
}

// ownRow is a row a write stream inserted, under its current row ID.
type ownRow struct {
	rid uint64
	r   row
}

// writer is one write stream. Each transaction inserts a run of fresh
// ids; with mutate it also updates one of the stream's earlier rows and
// deletes its oldest. It keeps the ledger of what the database must hold:
// the transactions acknowledged and, for a mutating stream, the rows
// alive and gone.
type writer struct {
	t       target
	d       dataset
	base    int64
	inserts int
	mutate  bool

	next     int      // next transaction number
	acked    []int    // transactions whose commit was acknowledged
	own      []ownRow // mutate: rows alive, oldest first
	gone     []int64  // mutate: ids deleted
	appended int      // row versions appended by acknowledged transactions
	pending  *plan    // the transaction sent but not yet acknowledged
}

// plan is what one transaction intends, fixed before it is sent, so that
// after a crash the ledger can tell "applied" from "not applied".
type plan struct {
	n       int
	mutates bool
	mid     int   // index in own of the row it updates
	cents   int64 // that row's new amount
}

func (w *writer) firstID(txn int) int64 { return w.base + int64(txn*w.inserts) }

// op runs one transaction. The ledger changes only once the commit is
// acknowledged.
func (w *writer) op() error {
	p := &plan{n: w.next, mutates: w.mutate && len(w.own) >= 2*w.inserts, mid: len(w.own) / 2}
	w.next++
	w.pending = p
	tx, err := w.t.begin()
	if err != nil {
		return err
	}
	fresh := make([]ownRow, w.inserts)
	for j := range fresh {
		r := w.d.row(w.firstID(p.n) + int64(j))
		rid, err := tx.insert(r.values())
		if err != nil {
			return err
		}
		fresh[j] = ownRow{rid, r}
	}
	var updated ownRow
	if p.mutates {
		updated = w.own[p.mid]
		p.cents = (updated.r.cents + int64(p.n) + 1) % amountCents
		updated.r.cents = p.cents
		if updated.rid, err = tx.update(updated.rid, updated.r.values()); err != nil {
			return err
		}
		if err := tx.delete(w.own[0].rid); err != nil {
			return err
		}
	}
	if err := tx.commit(); err != nil {
		return err
	}
	w.pending = nil
	w.acked = append(w.acked, p.n)
	w.appended += w.inserts
	if p.mutates {
		w.appended++
		w.own[p.mid] = updated
		w.gone = append(w.gone, w.own[0].r.id)
		w.own = w.own[1:]
	}
	if w.mutate {
		w.own = append(w.own, fresh...)
	}
	return nil
}

// insertedBy returns how many of transaction n's inserts are visible.
func (w *writer) insertedBy(t target, n int) (int, error) {
	lo := w.firstID(n)
	rids, err := t.rangeRows(lo, lo+int64(w.inserts))
	return len(rids), err
}

// readsAs checks that id is visible exactly once and reads as want.
func readsAs(t target, want row) error {
	rids, err := t.selectRows(idEq(want.id))
	if err != nil {
		return err
	}
	if len(rids) != 1 {
		return wrongf("id %d matches %d rows", want.id, len(rids))
	}
	vals, err := t.row(rids[0])
	if err == nil && !want.equal(vals) {
		err = wrongf("id %d reads %v", want.id, vals)
	}
	return err
}

// verifyInFlight checks the transaction a crash interrupted: all of its
// effects are visible or none is.
func (w *writer) verifyInFlight(t target) error {
	p := w.pending
	if p == nil {
		return nil
	}
	n, err := w.insertedBy(t, p.n)
	if err != nil {
		return err
	}
	applied := n == w.inserts
	if !applied && n != 0 {
		return wrongf("interrupted transaction %d shows %d of its %d rows", p.n, n, w.inserts)
	}
	if !p.mutates {
		return nil
	}
	updated := w.own[p.mid].r
	deletedRows := 1
	if applied {
		updated.cents, deletedRows = p.cents, 0
	}
	if err := readsAs(t, updated); err != nil {
		return fmt.Errorf("interrupted transaction %d, applied=%v: %w", p.n, applied, err)
	}
	got, err := t.count(idEq(w.own[0].r.id))
	if err == nil && got != deletedRows {
		err = wrongf("interrupted transaction %d, applied=%v: its deleted id matches %d rows", p.n, applied, got)
	}
	return err
}

// verifyLedger checks the database against the ledger, on a sample of
// up to sample entries of each kind spread evenly over it: for a
// mutating stream the live rows (where and what they read) and the
// deleted ids, otherwise that each acknowledged transaction shows all of
// its rows.
func (w *writer) verifyLedger(t target, sample int) (attempted, failed int64, first error) {
	note := func(err error) {
		attempted++
		if err != nil {
			failed++
			if first == nil {
				first = err
			}
		}
	}
	if !w.mutate {
		for _, i := range evenly(len(w.acked), sample) {
			n, err := w.insertedBy(t, w.acked[i])
			if err == nil && n != w.inserts {
				err = wrongf("acknowledged transaction %d shows %d of its %d rows", w.acked[i], n, w.inserts)
			}
			note(err)
		}
		return attempted, failed, first
	}
	for _, i := range evenly(len(w.own), sample) {
		o := w.own[i]
		err := readsAs(t, o.r)
		if err == nil {
			if rids, _ := t.selectRows(idEq(o.r.id)); len(rids) != 1 || rids[0] != o.rid {
				err = wrongf("live id %d moved to rows %v from %d", o.r.id, rids, o.rid)
			}
		}
		note(err)
	}
	for _, i := range evenly(len(w.gone), sample) {
		n, err := t.count(idEq(w.gone[i]))
		if err == nil && n != 0 {
			err = wrongf("deleted id %d still matches %d rows", w.gone[i], n)
		}
		note(err)
	}
	return attempted, failed, first
}

// evenly returns up to k indexes evenly spread over [0, n).
func evenly(n, k int) []int {
	if k > n {
		k = n
	}
	out := make([]int, k)
	for i := range out {
		out[i] = i * n / k
	}
	return out
}

// The sandbox this benchmark must run in shares its hardware: its two
// CPUs are one core's two threads, and what else runs on that core takes
// up to half of its speed away, for milliseconds or for whole seconds.
// Such interference only ever slows. So a run does not report from all
// of its ops. It cuts each stretch of back-to-back ops into windows of
// about windowLen, ranks the windows by the time they took, and reports
// from the fastest tenth: the speed of the system while nothing else had
// the core. A change to the system moves every window, those included.
const (
	windowLen   = 20 * time.Millisecond
	fastestPart = 10 // the fastest 1/fastestPart of the windows
)

// samples collects what closed loops observed.
type samples struct {
	seqs   [][]time.Duration // latencies of successful ops, one slice per back-to-back stretch
	failed int64
	first  error // the first failure, for the report
}

func (s *samples) add(o *samples) {
	s.seqs = append(s.seqs, o.seqs...)
	s.failed += o.failed
	if s.first == nil {
		s.first = o.first
	}
}

// all returns every latency, sorted.
func (s *samples) all() []time.Duration {
	var lat []time.Duration
	for _, seq := range s.seqs {
		lat = append(lat, seq...)
	}
	sortDurations(lat)
	return lat
}

func (s *samples) attempted() int64 {
	n := s.failed
	for _, seq := range s.seqs {
		n += int64(len(seq))
	}
	return n
}

// quantileUS returns the q-quantile of sorted latencies in µs.
func quantileUS(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return float64(sorted[int(q*float64(len(sorted)-1))].Nanoseconds()) / 1e3
}

// undisturbed returns the throughput and the median latency of the ops
// in the fastest tenth of the windows.
func (s *samples) undisturbed() (opsPerSec, p50US float64) {
	all := s.all()
	if len(all) == 0 {
		return 0, 0
	}
	// Windows hold a fixed number of ops: as many as take windowLen at
	// the run's median latency.
	per := max(1, int(windowLen/max(all[len(all)/2], 1)))
	type window struct {
		ops  []time.Duration
		took time.Duration
	}
	var windows []window
	for _, seq := range s.seqs {
		for ; len(seq) >= per; seq = seq[per:] {
			w := window{ops: seq[:per]}
			for _, l := range w.ops {
				w.took += l
			}
			windows = append(windows, w)
		}
	}
	if len(windows) == 0 { // fewer ops than one window holds
		windows = []window{{ops: all}}
		for _, l := range all {
			windows[0].took += l
		}
	}
	sort.Slice(windows, func(i, j int) bool { return windows[i].took < windows[j].took })
	var pool []time.Duration
	var took time.Duration
	for _, w := range windows[:(len(windows)+fastestPart-1)/fastestPart] {
		pool = append(pool, w.ops...)
		took += w.took
	}
	sortDurations(pool)
	return float64(len(pool)) / took.Seconds(), quantileUS(pool, 0.5)
}

// closedLoop sends op after op, the next only when the previous one has
// been answered, until maxOps ops or dur have passed (zero means no
// limit). onOp, when not nil, sees every successful op's interval; it is
// how the traced run records spans.
func closedLoop(op opFunc, dur time.Duration, maxOps int, onOp func(i int, start, end time.Time)) *samples {
	s := &samples{seqs: make([][]time.Duration, 1)}
	start := time.Now()
	for i := 0; maxOps == 0 || i < maxOps; i++ {
		t0 := time.Now()
		if dur > 0 && t0.Sub(start) >= dur {
			break
		}
		err := op()
		t1 := time.Now()
		if err != nil {
			s.failed++
			if s.first == nil {
				s.first = fmt.Errorf("op %d: %w", i, err)
			}
			continue
		}
		s.seqs[0] = append(s.seqs[0], t1.Sub(t0))
		if onOp != nil {
			onOp(i, t0, t1)
		}
	}
	return s
}

func sortDurations(d []time.Duration) {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
}

// lowerQuartile returns the value a quarter of the way up the sorted xs:
// for timings that interference can only lengthen, the level the faster
// quarter of the samples reached.
func lowerQuartile(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[(len(s)-1)/4]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
