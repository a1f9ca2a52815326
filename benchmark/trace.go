package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"hyrisenv"
	"hyrisenv/client"
	"hyrisenv/internal/core"
	"hyrisenv/internal/exec"
	"hyrisenv/internal/nvm"
	"hyrisenv/internal/pstruct"
	"hyrisenv/internal/shard"
	"hyrisenv/internal/storage"
	"hyrisenv/internal/txn"
	"hyrisenv/internal/wire"
)

// The traced run prices the layers. It replays the workload's seeded op
// stream at successive boundaries of the stack, bottom to top, timing
// every op from the benchmark's side of the call; a layer's self time is
// the median, over ops, of its boundary's span minus the same op's span
// one boundary down. The engine itself is not instrumented.
//
//	storage -> txn (writes) or exec (reads) -> shard -> hyrisenv
//	        -> server (DB.Serve and a client over loopback, one process)
//	        -> client (the server in its own process: the untraced run)
var boundaries = []string{"nvm", "storage", "txn", "exec", "shard", "hyrisenv", "server", "client"}

// span is one op at one boundary. Spans of the same op at different
// boundaries share OpID; Parent names the boundary one up.
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start"`
	EndNS   int64  `json:"end"`
	OpID    int    `json:"op_id"`
	Parent  string `json:"parent,omitempty"`
}

// tracer keeps spans in memory until the run ends. Only the goroutine
// that drives the run records.
type tracer struct {
	base  time.Time
	spans []span
}

func (t *tracer) record(name, parent string, op int, start, end time.Time) {
	t.spans = append(t.spans, span{Name: name, Parent: parent, OpID: op, StartNS: start.Sub(t.base).Nanoseconds(), EndNS: end.Sub(t.base).Nanoseconds()})
}

// write stores the spans as JSON lines and reads them back, so a file
// that does not parse fails the run that wrote it.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	f, err = os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	n := 0
	for dec := json.NewDecoder(f); dec.More(); n++ {
		var s span
		if err := dec.Decode(&s); err != nil {
			return fmt.Errorf("%s: span %d: %w", path, n, err)
		}
	}
	if n != len(t.spans) {
		return fmt.Errorf("%s: %d spans read back, %d written", path, n, len(t.spans))
	}
	return nil
}

// rungResult is what one boundary measured: its median span, the median
// step up from the boundary below (taken op by op where both ran the same
// ops, so what varies from op to op cancels), and the modelled price of
// the NVM barriers issued per op while it ran.
type rungResult struct {
	name      string
	spanUS    float64
	stepUS    float64
	barrierUS float64
}

// stepsUS returns the median of upper[i]-lower[i] in µs; with no lower,
// the median of upper.
func stepsUS(upper, lower []time.Duration) float64 {
	diffs := make([]float64, len(upper))
	for i, u := range upper {
		if lower != nil {
			u -= lower[i]
		}
		diffs[i] = float64(u.Nanoseconds()) / 1e3
	}
	return median(diffs)
}

// ladder turns the latencies of the same ops at successive boundaries,
// bottom first, into each boundary's median span and step.
func ladder(out []rungResult, lat [][]time.Duration) {
	for i := range out {
		out[i].spanUS = stepsUS(lat[i], nil)
		out[i].stepUS = out[i].spanUS
		if i > 0 {
			out[i].stepUS = stepsUS(lat[i], lat[i-1])
		}
	}
}

func barrierUS(flushes, fences uint64, ops int) float64 {
	if ops == 0 {
		return 0
	}
	return (float64(flushes)*float64(model.WriteNS) + float64(fences)*float64(model.FenceNS)) / 1e3 / float64(ops)
}

// ladderOps caps the ops replayed per boundary: enough for a steady
// median, few enough that the span file stays small and the delta a
// write workload grows stays a fraction of the main partition.
var ladderOps = map[string]int{wPointRead: 5000, wScan: 100, wOLTPWrite: 500}

// traced is the traced run: it produces the per-layer metrics.
func (r *run) traced(outDir string) error {
	tr := &tracer{base: time.Now()}
	m := r.metrics
	if _, err := r.setup(); err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	m["storage.merge_s"] = r.load.MergeS
	r.cl.Close()
	r.cl = nil
	r.srv.kill()

	opens, err := r.openLadder(tr)
	if err != nil {
		return fmt.Errorf("open ladder: %w", err)
	}
	budget := r.seconds / 10
	rungs, err := r.inProcessRungs(tr, budget)
	if err != nil {
		return err
	}
	if err := scratchMicro(filepath.Join(r.work, "scratch.nvm"), m); err != nil {
		return fmt.Errorf("scratch heap: %w", err)
	}

	// The outermost boundary: the server in its own process. It is
	// measured twice, without and with span recording; the first is the
	// untraced run in small, the difference is what tracing costs.
	if err := r.connect(); err != nil {
		return err
	}
	small, err := r.smallReference()
	if err != nil {
		return fmt.Errorf("reference database: %w", err)
	}
	defer small.close()

	op, w := r.stream(clientTarget{r.cl}, len(boundaries))
	var ref []time.Duration // latencies of the untraced reference
	var cycles, smallCycles []cycleTimes
	if r.w == wRestart {
		refCycles, traffic, err := r.trafficCycles(w, 0, r.sz.minCycles, nil)
		if err != nil {
			return err
		}
		ref = traffic.all()
		cycles, _, err = r.trafficCycles(w, 0, r.sz.minCycles, func(i int, s, e time.Time) { tr.record("client", "", i, s, e) })
		if err != nil {
			return err
		}
		_, sw := small.stream(clientTarget{small.cl}, 0)
		if smallCycles, _, err = small.trafficCycles(sw, 0, r.sz.minCycles, nil); err != nil {
			return err
		}
		// The counts per op of this workload are those of one writer
		// transaction, here on the wire as in inProcessRungs on the heap.
		const burst = 50
		w0, b0 := r.wire.writes.Load(), r.wire.bytes.Load()
		for i := 0; i < burst; i++ {
			r.note(op())
		}
		m["wire.roundtrips_per_op"] = float64(r.wire.writes.Load()-w0) / burst
		m["wire.bytes_per_op"] = float64(r.wire.bytes.Load()-b0) / burst
		refMS, gotMS := restartMS(refCycles), restartMS(cycles)
		m["client.untraced_p50_us"] = refMS * 1e3
		m["trace.overhead_pct"] = (gotMS/refMS - 1) * 100
		rungs = append(opens, rungResult{name: "client", spanUS: gotMS * 1e3, stepUS: gotMS*1e3 - opens[len(opens)-1].spanUS})
	} else {
		r.noteSamples(closedLoop(op, 0, r.sz.warmOps[r.w], nil))
		untraced := r.noteSamples(closedLoop(op, 2*budget, 0, nil))
		ref = untraced.all()
		before, err := r.cl.Stats()
		if err != nil {
			return err
		}
		w0, b0 := r.wire.writes.Load(), r.wire.bytes.Load()
		traced := r.noteSamples(closedLoop(op, budget, ladderOps[r.w], func(i int, s, e time.Time) { tr.record("client", "", i, s, e) }))
		after, err := r.cl.Stats()
		if err != nil {
			return err
		}
		top := traced.all()
		n := len(top)
		if n == 0 {
			return fmt.Errorf("boundary client: no op succeeded: %v", r.firstErr)
		}
		m["wire.roundtrips_per_op"] = float64(r.wire.writes.Load()-w0-1) / float64(n) // less the Stats call
		m["wire.bytes_per_op"] = float64(r.wire.bytes.Load()-b0) / float64(n)
		// Both sides of the overhead are read the way p50_us is.
		_, refP50 := untraced.undisturbed()
		_, gotP50 := traced.undisturbed()
		m["client.untraced_p50_us"] = refP50
		m["trace.overhead_pct"] = (gotP50/refP50 - 1) * 100
		rungs = append(rungs, rungResult{name: "client", spanUS: quantileUS(top, 0.5), stepUS: quantileUS(top, 0.5) - rungs[len(rungs)-1].spanUS,
			barrierUS: barrierUS(after.NVMFlushes-before.NVMFlushes, after.NVMFences-before.NVMFences, n)})
		if cycles, err = r.idleCycles(2 * r.sz.cycles); err != nil {
			return err
		}
		if smallCycles, err = small.idleCycles(2 * r.sz.cycles); err != nil {
			return err
		}
	}
	m["client.p95_us"] = quantileUS(ref, 0.95)
	m["client.p99_us"] = quantileUS(ref, 0.99)
	m["client.samples"] = float64(len(ref))
	m["proc.rss_mb"] = r.srv.rssMB()
	if tables, err := r.cl.Tables(); err == nil && len(tables) == 1 && tables[0].Rows > 0 {
		m["storage.delta_share"] = float64(tables[0].DeltaRows) / float64(tables[0].Rows)
	}

	selfTimes(rungs, m)
	m["restart.ms"], m["restart.small_ms"] = restartMS(cycles), restartMS(smallCycles)
	m["restart.size_ratio"] = m["restart.ms"] / m["restart.small_ms"]
	m["proc.kill_ms"] = median(cycleValues(cycles, func(c cycleTimes) float64 { return c.killMS }))
	m["proc.spawn_ms"] = median(cycleValues(cycles, func(c cycleTimes) float64 { return c.spawnMS }))
	m["proc.open_ms"] = median(cycleValues(cycles, func(c cycleTimes) float64 { return c.openMS }))
	m["client.first_answer_ms"] = median(cycleValues(cycles, func(c cycleTimes) float64 { return c.answerMS }))
	m["txn.rolled_back_per_restart"] = median(cycleValues(cycles, func(c cycleTimes) float64 { return float64(c.rolledBack) }))

	r.finalCheck()
	if err := r.shadowCheck(); err != nil {
		return fmt.Errorf("shadow crash check: %w", err)
	}
	m["trace.spans"] = float64(len(tr.spans))
	return tr.write(filepath.Join(outDir, "trace-"+r.w+".jsonl"))
}

// selfTimes turns the boundaries' steps into per-layer self times. A
// layer's own time is its boundary's step up from the one below, less
// the modelled NVM barriers that step added; the barriers themselves are
// the nvm layer's, priced from the counts at the outermost boundary.
func selfTimes(rungs []rungResult, m map[string]float64) {
	for _, name := range boundaries {
		m[name+".self_us"] = 0
	}
	below := 0.0
	for _, rg := range rungs {
		m[rg.name+".self_us"] += rg.stepUS - (rg.barrierUS - below)
		below = rg.barrierUS
	}
	top := rungs[len(rungs)-1]
	m["nvm.self_us"] += top.barrierUS
	m["client.span_us"] = top.spanUS
}

// smallReference sets up the same workload on a database a fraction of
// the size, to show how restart time moves with data size.
func (r *run) smallReference() (*run, error) {
	sz := r.sz
	sz.rows = map[string]int{r.w: max(r.d.rows/r.sz.smallDiv, 100)}
	small, err := newRun(r.w, r.d.seed, r.seconds, sz, r.work)
	if err != nil {
		return nil, err
	}
	if _, err := small.setup(); err != nil {
		small.close()
		return nil, err
	}
	return small, nil
}

// --- opening, boundary by boundary ---

// openLadder reopens the closed database at each boundary in turn, a
// few times over, and returns the median time to open at each: the heap
// alone, plus its tables, plus the transaction manager's recovery, the
// shard engine, the public DB with a first answer, and DB.Serve with a
// first answer through a client on loopback. The database was closed
// cleanly, so recovery finds nothing in flight; what a crash leaves is
// measured by the kill/restart cycles.
func (r *run) openLadder(tr *tracer) ([]rungResult, error) {
	const reps = 11
	heapPath := filepath.Join(r.dir, "heap.nvm")
	lat := nvm.WithLatency(model)
	probe := idEq(probeKey)
	var listenMS []float64

	openTables := func(h *nvm.Heap) (map[uint32]*storage.Table, error) {
		tables := map[uint32]*storage.Table{}
		for _, root := range h.Roots() {
			name, ok := strings.CutPrefix(root, "tbl:")
			if !ok {
				continue
			}
			p, _, _ := h.Root(root)
			t, err := storage.OpenNVMTable(h, name, p)
			if err != nil {
				return nil, err
			}
			tables[t.ID] = t
		}
		return tables, nil
	}
	levels := []struct {
		name string
		open func() (func(), error) // opens and answers; returns the clean-up
	}{
		{"nvm", func() (func(), error) {
			h, err := nvm.Open(heapPath, lat)
			if err != nil {
				return nil, err
			}
			return func() { h.Close() }, nil
		}},
		{"storage", func() (func(), error) {
			h, err := nvm.Open(heapPath, lat)
			if err != nil {
				return nil, err
			}
			_, err = openTables(h)
			return func() { h.Close() }, err
		}},
		{"txn", func() (func(), error) {
			h, err := nvm.Open(heapPath, lat)
			if err != nil {
				return nil, err
			}
			tables, err := openTables(h)
			if err == nil {
				_, _, err = txn.OpenNVMManagerDecider(h, func(id uint32) *storage.Table { return tables[id] }, nil)
			}
			return func() { h.Close() }, err
		}},
		{"shard", func() (func(), error) {
			e, err := shard.Open(shard.Config{Config: core.Config{Mode: txn.ModeNVM, Dir: r.dir, NVMLatency: model}})
			if err != nil {
				return nil, err
			}
			return func() { e.Close() }, nil
		}},
		{"hyrisenv", func() (func(), error) {
			db, err := hyrisenv.Open(engineConfig(r.dir, model))
			if err != nil {
				return nil, err
			}
			tbl, err := db.Table(tableName)
			if err == nil {
				var rids []uint64
				if rids, err = db.Begin().SelectContext(bg, tbl, probe); err == nil && len(rids) != 1 {
					err = wrongf("first answer: %d rows", len(rids))
				}
			}
			return func() { db.Close() }, err
		}},
		{"server", func() (func(), error) {
			db, err := hyrisenv.Open(engineConfig(r.dir, model))
			if err != nil {
				return nil, err
			}
			t0 := time.Now()
			srv, err := db.Serve("127.0.0.1:0", hyrisenv.ServerConfig{})
			if err != nil {
				db.Close()
				return nil, err
			}
			listenMS = append(listenMS, float64(time.Since(t0).Nanoseconds())/1e6)
			cleanup := func() { srv.Close(); db.Close() }
			cl, err := client.Dial(srv.Addr(), client.Options{PoolSize: 1})
			if err != nil {
				return cleanup, err
			}
			rids, err := cl.Select(tableName, probe)
			if err == nil && len(rids) != 1 {
				err = wrongf("first answer: %d rows", len(rids))
			}
			return func() { cl.Close(); cleanup() }, err
		}},
	}
	spans := make([][]time.Duration, len(levels))
	for rep := 0; rep < reps; rep++ {
		for i, lv := range levels {
			t0 := time.Now()
			cleanup, err := lv.open()
			t1 := time.Now()
			if cleanup != nil {
				cleanup()
			}
			r.note(err)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", lv.name, err)
			}
			spans[i] = append(spans[i], t1.Sub(t0))
			if r.w == wRestart {
				parent := "client"
				if i+1 < len(levels) {
					parent = levels[i+1].name
				}
				tr.record(lv.name, parent, rep, t0, t1)
			}
		}
	}
	out := make([]rungResult, len(levels))
	for i, lv := range levels {
		out[i].name = lv.name
	}
	ladder(out, spans)
	m := r.metrics
	m["nvm.open_ms"] = out[0].spanUS / 1e3
	m["storage.open_table_ms"] = out[1].stepUS / 1e3
	m["txn.recover_ms"] = out[2].stepUS / 1e3
	m["shard.open_ms"] = out[3].spanUS / 1e3
	m["hyrisenv.open_ms"] = out[4].spanUS / 1e3
	m["server.listen_ms"] = median(listenMS)
	return out, nil
}

// --- the op ladder inside this process ---

// inProcessRungs opens the database in this process and replays the op
// stream at every boundary up to a server on loopback. Each boundary
// gets its own write stream, so ids never collide.
func (r *run) inProcessRungs(tr *tracer, budget time.Duration) ([]rungResult, error) {
	db, err := hyrisenv.Open(engineConfig(r.dir, model))
	if err != nil {
		return nil, err
	}
	defer db.Close()
	tbl, err := db.Table(tableName)
	if err != nil {
		return nil, err
	}
	if err := r.micro(db, tbl); err != nil {
		return nil, err
	}
	if r.w == wRestart {
		// No op ladder here: this workload's ladder is the open ladder.
		// Its counts per op are those of one writer transaction.
		op, _ := r.stream(dbTarget{db, tbl}, 0)
		before := db.Sharded().NVMStats()
		const n = 50
		for i := 0; i < n; i++ {
			r.note(op())
		}
		r.nvmPerOp(before, db.Sharded().NVMStats(), n)
		return nil, nil
	}
	srv, err := db.Serve("127.0.0.1:0", hyrisenv.ServerConfig{})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	cl, err := client.Dial(srv.Addr(), clientOptions(nil))
	if err != nil {
		return nil, err
	}
	defer cl.Close()

	second := "exec"
	if r.w == wOLTPWrite {
		second = "txn"
	}
	levels := []struct {
		name string
		t    target
	}{
		{"storage", newStorageTarget(db.Engine(), tbl.Internal())},
		{second, coreTarget{db.Engine(), tbl.Internal()}},
		{"shard", shardTarget{db.Sharded(), tbl.Sharded()}},
		{"hyrisenv", dbTarget{db, tbl}},
		{"server", clientTarget{cl}},
	}
	// First a serial pass per boundary, which warms it and counts the NVM
	// barriers its ops issue (counts repeat, so a few ops are enough).
	out := make([]rungResult, len(levels))
	ops := make([]opFunc, len(levels))
	warm := max(10, min(r.sz.warmOps[r.w], ladderOps[r.w]/10))
	for i, lv := range levels {
		ops[i], _ = r.stream(lv.t, i)
		before := db.Sharded().NVMStats()
		s := r.noteSamples(closedLoop(ops[i], 0, warm, nil))
		after := db.Sharded().NVMStats()
		n := len(s.seqs[0])
		if n == 0 {
			return nil, fmt.Errorf("boundary %s: no op succeeded: %v", lv.name, s.first)
		}
		out[i] = rungResult{name: lv.name, barrierUS: barrierUS(after.Flushes-before.Flushes, after.Fences-before.Fences, n)}
		if lv.name == "hyrisenv" {
			r.nvmPerOp(before, after, n)
			if r.w != wOLTPWrite && after.Fences != before.Fences {
				r.note(wrongf("%d fences during a read-only workload", after.Fences-before.Fences))
			}
		}
	}

	// Then the timed pass. Op i runs at every boundary in turn before op
	// i+1 runs anywhere, so whatever drifts while the pass runs -- the
	// delta a write stream grows, the machine's speed -- reaches every
	// boundary alike and cancels in the differences.
	lat := make([][]time.Duration, len(levels))
	round := 0
	s := closedLoop(func() error {
		for k := range levels {
			// Start each round one boundary further up, so none is always
			// the one that runs on caches another left cold.
			i := (round + k) % len(levels)
			t0 := time.Now()
			if err := ops[i](); err != nil {
				return fmt.Errorf("boundary %s: %w", levels[i].name, err)
			}
			t1 := time.Now()
			parent := "client"
			if i+1 < len(levels) {
				parent = levels[i+1].name
			}
			tr.record(levels[i].name, parent, round, t0, t1)
			lat[i] = append(lat[i], t1.Sub(t0))
		}
		round++
		return nil
	}, budget*time.Duration(len(levels)), ladderOps[r.w], nil)
	r.attempted += s.attempted() * int64(len(levels))
	r.failed += s.failed
	if s.first != nil {
		return nil, s.first
	}
	// Every round ran every boundary, so the latencies pair up by index.
	ladder(out, lat)
	return out, nil
}

// nvmPerOp records what n ops cost the heap.
func (r *run) nvmPerOp(before, after nvm.Stats, n int) {
	m := r.metrics
	m["nvm.flushes_per_op"] = float64(after.Flushes-before.Flushes) / float64(n)
	m["nvm.fences_per_op"] = float64(after.Fences-before.Fences) / float64(n)
	m["nvm.allocs_per_op"] = float64(after.Allocs-before.Allocs) / float64(n)
	m["nvm.barrier_us_per_op"] = barrierUS(after.Flushes-before.Flushes, after.Fences-before.Fences, n)
}

// timeNS returns the median over reps of fn's duration divided by n.
func timeNS(reps, n int, fn func()) float64 {
	var xs []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		fn()
		xs = append(xs, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return median(xs)
}

// micro times single calls into the read-side layers on the workload's
// own data: what one row costs in each of them.
func (r *run) micro(db *hyrisenv.DB, tbl *hyrisenv.Table) error {
	const reps = 5
	m := r.metrics
	st, e := tbl.Internal(), db.Engine()
	v := st.View()
	rows := int(v.Rows())
	snap := e.Manager().LastCID()

	sink := uint64(0)
	m["pstruct.bitpacked_scan_ns_per_row"] = timeNS(reps, int(v.MainRows()), func() {
		v.MainColumnAt(colRegion).ScanIDs(func(_, id uint64) bool { sink += id; return true })
	})
	mm := v.MainMVCC()
	m["mvcc.visible_ns_per_row"] = timeNS(reps, int(v.MainRows()), func() {
		for i := uint64(0); i < v.MainRows(); i++ {
			if mm.Visible(i, snap, 0) {
				sink++
			}
		}
	})
	const probes = 20000
	m["index.lookup_ns"] = timeNS(reps, probes, func() {
		for i := uint64(0); i < probes; i++ {
			k := hyrisenv.Int(int64(r.d.hash(5, i) % uint64(r.d.rows)))
			v.LookupRows(colID, k.EncodeKey(nil), func(row uint64) bool { sink += row; return true })
		}
	})
	m["storage.row_fetch_ns"] = timeNS(reps, probes, func() {
		for i := uint64(0); i < probes; i++ {
			row := r.d.hash(6, i) % v.MainRows()
			for c := 0; c < numCols; c++ {
				sink += uint64(v.Value(c, row).T)
			}
		}
	})

	tx := e.Manager().BeginAt(snap)
	region := exec.Pred{Col: colRegion, Op: exec.Eq, Val: hyrisenv.Str(regionName(3))}
	count := func(ex *exec.Executor) (float64, error) {
		var err error
		ns := timeNS(reps, rows, func() {
			if _, cerr := ex.Count(bg, tx, st, region); cerr != nil {
				err = cerr
			}
		})
		return ns, err
	}
	par1, err := count(exec.New(1))
	if err != nil {
		return err
	}
	parN, err := count(e.Exec())
	if err != nil {
		return err
	}
	m["exec.count_ns_per_row_par1"], m["exec.count_ns_per_row"], m["exec.par_speedup"] = par1, parN, par1/parN
	m["exec.select_ns_per_row"] = timeNS(reps, rows, func() {
		_, cerr := e.Exec().Select(bg, tx, st, exec.Pred{Col: colAmount, Op: exec.Lt, Val: hyrisenv.Float(float64(selectCents) / 100)})
		err = errors.Join(err, cerr)
	})
	// GROUP BY is not on the wire, so this is the only place it is timed.
	m["exec.groupby_ns_per_row"] = timeNS(reps, rows, func() {
		_, cerr := e.Exec().GroupBy(bg, tx, st, colRegion, colAmount)
		err = errors.Join(err, cerr)
	})
	if sink == 0 {
		err = errors.Join(err, errors.New("micro measurements read nothing"))
	}
	return err
}

// scratchMicro times the write-side primitives on a heap of their own,
// under the workloads' latency model, and the wire codec on a buffer.
func scratchMicro(path string, m map[string]float64) error {
	h, err := nvm.Create(path, 64<<20, nvm.WithLatency(model))
	if err != nil {
		return err
	}
	defer os.Remove(path)
	defer h.Close()
	const n = 20000
	var ptrs [n]nvm.PPtr
	m["nvm.alloc_ns"] = timeNS(1, n, func() {
		for i := range ptrs {
			if ptrs[i], err = h.Alloc(64); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	m["nvm.persist_line_ns"] = timeNS(1, n, func() {
		for _, p := range ptrs {
			h.SetU64(p, uint64(p))
			h.Persist(p, 8)
		}
	})
	vec, err := pstruct.NewVector(h, 8, 10)
	if err != nil {
		return err
	}
	m["pstruct.vector_append_ns"] = timeNS(1, n, func() {
		for i := uint64(0); i < n; i++ {
			if _, err = vec.Append(i); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	sl, err := pstruct.NewSkipList(h)
	if err != nil {
		return err
	}
	m["pstruct.skiplist_insert_ns"] = timeNS(1, n, func() {
		for i := uint64(0); i < n; i++ {
			if _, err = sl.Insert(hyrisenv.Int(int64(mix(i)>>1)).EncodeKey(nil), i); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	vals := dataset{seed: 1, rows: 1000}.row(7).values()
	m["wire.codec_ns_per_frame"] = timeNS(5, n, func() {
		for i := uint64(0); i < n; i++ {
			buf := wire.AppendFrame(nil, wire.Frame{Type: wire.TypeInsert, ReqID: i, Payload: wire.InsertReq{Txn: i, Table: tableName, Vals: vals}.Encode()})
			f, _, derr := wire.DecodeFrame(buf, 0)
			if derr == nil {
				_, derr = wire.DecodeInsertReq(f.Payload)
			}
			if derr != nil {
				err = derr
			}
		}
	})
	return err
}
