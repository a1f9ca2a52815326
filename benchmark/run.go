package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"hyrisenv/client"
)

// Workload names are permanent: later changes cite them.
const (
	wPointRead = "point-read"
	wScan      = "scan"
	wOLTPWrite = "oltp-write"
	wRestart   = "restart"
)

var workloadNames = []string{wPointRead, wScan, wOLTPWrite, wRestart}

// sizes fixes how much data and how many samples a run uses. They are
// constants of the benchmark, not arguments: the only other value is the
// toy set the smoke test runs with.
type sizes struct {
	rows       map[string]int // rows loaded and merged into main
	warmOps    map[string]int // ops before measuring
	trials     int            // independent trials per run, each with its own set-up
	cycles     int            // kill/restart cycles in each of the two batches around a trial's traffic
	minCycles  int            // least cycles a trial of the restart workload measures
	sample     int            // rows checked per ledger when verifying the end state
	smallDiv   int            // the traced run's reference database has rows/smallDiv rows
	shadowRows int            // rows preloaded for the shadow crash check
	shadowCuts int            // barriers the shadow crash check cuts power at
}

var fullSizes = sizes{
	// scan and restart take the most rows set-up time allows (loading
	// runs at about 60k rows/s): 200k rows are 4.8 MB of MVCC vectors
	// plus the bit-packed columns, more than the core's 2 MiB of L2.
	rows:       map[string]int{wPointRead: 100_000, wScan: 200_000, wOLTPWrite: 50_000, wRestart: 200_000},
	warmOps:    map[string]int{wPointRead: 4000, wScan: 8, wOLTPWrite: 500, wRestart: 1},
	trials:     3,
	cycles:     6,
	minCycles:  3,
	sample:     300,
	smallDiv:   10,
	shadowRows: 1000,
	shadowCuts: 20,
}

// Transaction shapes.
const (
	oltpInserts    = 6 // plus one update and one delete
	restartInserts = 8
)

// run is one workload's run, traced or not.
type run struct {
	w       string
	d       dataset
	sz      sizes
	seconds time.Duration
	work    string // scratch directory of this run, removed at the end
	dir     string // database directory

	srv  *server
	cl   *client.Client
	wire *wireCounts
	exp  scanExpect
	load loadReport

	attempted, failed int64
	firstErr          error
	metrics           map[string]float64
}

func newRun(w string, seed int64, seconds time.Duration, sz sizes, outDir string) (*run, error) {
	rows, ok := sz.rows[w]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %v)", w, workloadNames)
	}
	work, err := os.MkdirTemp(outDir, w+"-")
	if err != nil {
		return nil, err
	}
	r := &run{
		w: w, d: dataset{seed: seed, rows: rows}, sz: sz, seconds: seconds,
		work: work, dir: filepath.Join(work, "db"),
		wire: &wireCounts{}, metrics: map[string]float64{},
	}
	if w == wScan {
		r.exp = r.d.scanExpected()
	}
	if r.srv, err = newServer(r.dir, work); err != nil {
		return nil, err
	}
	return r, nil
}

// close stops the child, drops the client and removes the scratch
// directory. Safe on every exit path.
func (r *run) close() {
	if r.cl != nil {
		r.cl.Close()
	}
	r.srv.kill()
	os.RemoveAll(r.work)
}

// note counts one verified operation.
func (r *run) note(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if r.firstErr == nil {
			r.firstErr = err
		}
	}
}

// noteLedger verifies a write stream's ledger and counts the checks.
func (r *run) noteLedger(w *writer, sample int) {
	a, f, first := w.verifyLedger(w.t, sample)
	r.attempted, r.failed = r.attempted+a, r.failed+f
	if r.firstErr == nil {
		r.firstErr = first
	}
}

func (r *run) noteSamples(s *samples) *samples {
	r.attempted += s.attempted()
	r.failed += s.failed
	if r.firstErr == nil {
		r.firstErr = s.first
	}
	return s
}

// setup builds the workload's database from nothing and brings a server
// up on it: load under the zero latency model, merge, close, reopen
// under the workload's model in a fresh process, first correct answer.
func (r *run) setup() (time.Duration, error) {
	if r.cl != nil {
		r.cl.Close()
	}
	r.srv.kill()
	if err := os.RemoveAll(r.dir); err != nil {
		return 0, err
	}
	t0 := time.Now()
	report := filepath.Join(r.work, "load.json")
	err := runChild(childConfig{Role: "load", Dir: r.dir, Seed: r.d.seed, Rows: r.d.rows, Updates: r.w == wScan, Out: report}, r.srv.log)
	if err != nil {
		return 0, err
	}
	if err := readReport(report, &r.load); err != nil {
		return 0, err
	}
	if err := r.connect(); err != nil {
		return 0, err
	}
	return time.Since(t0), nil
}

// connect starts the server on the database and waits for its first
// correct answer through a fresh client.
func (r *run) connect() error {
	if err := r.srv.start(); err != nil {
		return err
	}
	var err error
	if r.cl, err = dial(r.srv, r.wire.wrap); err != nil {
		return err
	}
	_, err = awaitAnswer(r.cl, r.srv)
	return err
}

// stream builds the workload's op stream against t. A write stream
// takes its ids from stream number n (and is returned as a writer too).
func (r *run) stream(t target, n int) (opFunc, *writer) {
	switch r.w {
	case wPointRead:
		return pointOps(t, r.d), nil
	case wScan:
		return scanOps(t, r.d, r.exp), nil
	case wOLTPWrite:
		w := &writer{t: t, d: r.d, base: writeBase(n), inserts: oltpInserts, mutate: true}
		return w.op, w
	default:
		w := &writer{t: t, d: r.d, base: writeBase(n), inserts: restartInserts}
		return w.op, w
	}
}

// cycleTimes splits one kill-to-first-answer interval.
type cycleTimes struct {
	totalMS, killMS, spawnMS, openMS, answerMS float64
	rolledBack                                 int
}

// cycle crashes the server with SIGKILL, starts a new one on the same
// directory and address, and times from just before the kill to the
// first correct answer through the same pooled client.
func (r *run) cycle() (cycleTimes, error) {
	var ct cycleTimes
	t0 := time.Now()
	r.srv.kill()
	killed := time.Now()
	if err := r.srv.start(); err != nil {
		return ct, err
	}
	t1, err := awaitAnswer(r.cl, r.srv)
	if err != nil {
		return ct, err
	}
	// The child reports once Serve has returned, which the first answer
	// can beat.
	var rep serveReport
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(200 * time.Microsecond) {
		err := readReport(r.srv.report, &rep)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			return ct, err
		}
	}
	ms := func(from, to int64) float64 { return float64(to-from) / 1e6 }
	ct = cycleTimes{
		totalMS:    ms(t0.UnixNano(), t1.UnixNano()),
		killMS:     ms(t0.UnixNano(), killed.UnixNano()),
		spawnMS:    ms(r.srv.spawned.UnixNano(), rep.MainNS),
		openMS:     ms(rep.MainNS, rep.OpenedNS),
		answerMS:   ms(rep.ListenNS, t1.UnixNano()),
		rolledBack: rep.RolledBack,
	}
	return ct, nil
}

// idleCycles runs k kill/restart cycles with no traffic in flight.
func (r *run) idleCycles(k int) ([]cycleTimes, error) {
	out := make([]cycleTimes, 0, k)
	for i := 0; i < k; i++ {
		ct, err := r.cycle()
		r.note(err)
		if err != nil {
			return out, err
		}
		out = append(out, ct)
	}
	return out, nil
}

// trafficCycles is the restart workload: a writer commits transactions
// back to back and keeps a ledger of every acknowledged commit; the
// server is killed mid-traffic after a seeded dwell, restarted and timed
// to its first correct answer; then, outside the timed window, every
// transaction acknowledged since the last restart must show all of its
// rows and the interrupted one all or none. It runs until dur has passed
// and at least minCycles cycles are in, after one unmeasured cycle.
func (r *run) trafficCycles(w *writer, dur time.Duration, minCycles int, onCycle func(i int, start, end time.Time)) ([]cycleTimes, *samples, error) {
	// The writer runs in bursts: from resume until the kill fails an op.
	resume, bursts := make(chan struct{}), make(chan []time.Duration)
	go func() {
		for range resume {
			var lat []time.Duration
			for {
				s := time.Now()
				if w.op() != nil {
					break // the kill; w.pending is the transaction it interrupted
				}
				lat = append(lat, time.Since(s))
			}
			bursts <- lat
		}
	}()
	defer close(resume)

	var cycles []cycleTimes
	traffic := &samples{}
	start := time.Now()
	for i := -1; ; i++ { // cycle -1 is the warm-up
		ackedBefore := len(w.acked)
		resume <- struct{}{}
		time.Sleep(time.Duration(100+r.d.hash(4, uint64(i+1))%100) * time.Millisecond)
		c0 := time.Now()
		ct, err := r.cycle()
		c1 := time.Now()
		burst := <-bursts
		r.note(err)
		if err != nil {
			return cycles, traffic, err
		}
		recent := *w
		recent.acked = w.acked[ackedBefore:]
		r.noteLedger(&recent, len(recent.acked))
		r.note(w.verifyInFlight(w.t))
		if i < 0 {
			start = time.Now()
			continue
		}
		if onCycle != nil {
			onCycle(i, c0, c1)
		}
		cycles = append(cycles, ct)
		traffic.seqs = append(traffic.seqs, burst)
		if time.Since(start) >= dur && len(cycles) >= minCycles {
			break
		}
	}
	r.attempted += traffic.attempted()
	return cycles, traffic, nil
}

// restartMS is the restart time a set of cycles shows: their lower
// quartile, because whatever else the machine does can only add to a
// cycle.
func restartMS(cycles []cycleTimes) float64 {
	return lowerQuartile(cycleValues(cycles, func(c cycleTimes) float64 { return c.totalMS }))
}

func cycleValues(cycles []cycleTimes, f func(cycleTimes) float64) []float64 {
	vals := make([]float64, len(cycles))
	for i, c := range cycles {
		vals[i] = f(c)
	}
	return vals
}

// endToEnd is the untraced run: it produces the end-to-end metrics. A
// run is a few independent trials. Each sets the database up from
// nothing in fresh processes, measures for its share of the time and
// restarts the server a few times; so every metric pools samples that
// lie seconds apart and come from separately placed processes, and one
// slow spell of the machine or one unlucky placement cannot own a run.
func (r *run) endToEnd() error {
	var setups []float64
	var cycles []cycleTimes
	meas := &samples{}
	share := r.seconds / time.Duration(r.sz.trials)
	for i := 0; i < r.sz.trials; i++ {
		d, err := r.setup()
		if err != nil {
			return fmt.Errorf("set-up %d: %w", i, err)
		}
		setups = append(setups, d.Seconds())
		op, w := r.stream(clientTarget{r.cl}, 0)
		if r.w == wRestart {
			c, m, err := r.trafficCycles(w, share, r.sz.minCycles, nil)
			if err != nil {
				return err
			}
			cycles = append(cycles, c...)
			meas.add(m)
			r.noteLedger(w, len(w.acked))
			continue
		}
		// The kill/restart cycles of a steady-state workload come in two
		// batches, before and after the trial's traffic.
		c, err := r.idleCycles(r.sz.cycles)
		if err != nil {
			return err
		}
		cycles = append(cycles, c...)
		before, err := r.cl.Stats()
		if err != nil {
			return err
		}
		r.noteSamples(closedLoop(op, 0, r.sz.warmOps[r.w], nil))
		if w != nil {
			// The warm-up is a fixed number of transactions, so the heap
			// it fills is a count that repeats from run to run.
			after, err := r.cl.Stats()
			if err != nil {
				return err
			}
			r.metrics["space_bytes_per_row"] = float64(after.NVMBytesUsed-before.NVMBytesUsed) / float64(w.appended)
		}
		meas.add(r.noteSamples(closedLoop(op, share, 0, nil)))
		if c, err = r.idleCycles(r.sz.cycles); err != nil {
			return err
		}
		cycles = append(cycles, c...)
		if w != nil {
			r.noteLedger(w, r.sz.sample)
		}
	}
	r.metrics["setup_s"] = median(setups)
	if _, ok := r.metrics["space_bytes_per_row"]; !ok {
		r.metrics["space_bytes_per_row"] = float64(r.load.BytesUsed) / float64(r.d.rows)
	}
	r.metrics["ops_per_s"], r.metrics["p50_us"] = meas.undisturbed()
	r.metrics["restart_ms"] = restartMS(cycles)
	r.finalCheck()
	return nil
}

// finalCheck crashes the server one last time and has a child run the
// structural checks that are not on the wire.
func (r *run) finalCheck() {
	r.cl.Close()
	r.cl = nil
	r.srv.kill()
	r.note(runChild(childConfig{Role: "check", Dir: r.dir}, r.srv.log))
}

// wireCounts counts what crosses the client's connections: one Write
// per request frame, so writes are round trips.
type wireCounts struct {
	writes, bytes atomic.Int64
}

func (w *wireCounts) wrap(c net.Conn) net.Conn { return &countedConn{Conn: c, w: w} }

type countedConn struct {
	net.Conn
	w *wireCounts
}

func (c *countedConn) Write(b []byte) (int, error) {
	c.w.writes.Add(1)
	c.w.bytes.Add(int64(len(b)))
	return c.Conn.Write(b)
}

func (c *countedConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.w.bytes.Add(int64(n))
	return n, err
}
