package bench

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"hyrisenv/internal/core"
	"hyrisenv/internal/exec"
	"hyrisenv/internal/storage"
	"hyrisenv/internal/txn"
	"hyrisenv/internal/workload"
)

// E9ScanParallel measures morsel-parallel scan scaling: the same
// full-table predicate scan and GROUP BY executed at Parallelism 1, 2,
// 4 and 8 on a DRAM-resident merged table. The quantity of interest is
// throughput relative to serial — on a machine with ≥ 4 cores the par=4
// row should reach ≥ 2× the par=1 baseline; on fewer cores the curve is
// flat (GOMAXPROCS caps the usable workers and the note records it).
func E9ScanParallel(workDir string, rows int) (*Report, error) {
	r := &Report{
		ID:    "E9",
		Title: "morsel-parallel scan scaling (throughput vs Parallelism)",
		Headers: []string{"parallelism", "pred scan", "rows/s", "speedup",
			"group by", "rows/s", "speedup"},
	}

	eng, err := openFleet(core.Config{Mode: txn.ModeNone})
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	spec := workload.DefaultSpec(rows)
	stbl, err := workload.Load(eng, "orders", spec)
	if err != nil {
		return nil, err
	}
	e, tbl := eng.Shard(0), stbl.Part(0)
	if _, err := e.Merge("orders"); err != nil {
		return nil, err
	}

	ctx := context.Background()
	preds := []exec.Pred{
		{Col: workload.ColRegion, Op: exec.Ne, Val: storage.Str("region-0")},
		{Col: workload.ColAmount, Op: exec.Lt, Val: storage.Float(10000)},
	}
	const iters = 5
	var scanBase, groupBase time.Duration
	for _, par := range []int{1, 2, 4, 8} {
		ex := exec.New(par)
		tx := e.Begin()

		start := time.Now()
		for it := 0; it < iters; it++ {
			if _, err := ex.Count(ctx, tx, tbl, preds...); err != nil {
				return nil, err
			}
		}
		scanT := time.Since(start) / iters

		start = time.Now()
		for it := 0; it < iters; it++ {
			if _, err := ex.GroupBy(ctx, tx, tbl, workload.ColRegion, workload.ColAmount); err != nil {
				return nil, err
			}
		}
		groupT := time.Since(start) / iters

		if par == 1 {
			scanBase, groupBase = scanT, groupT
		}
		r.AddRow(fmt.Sprintf("%d", par),
			fmtDur(scanT), fmtF(float64(rows)/scanT.Seconds()),
			fmt.Sprintf("%.2fx", float64(scanBase)/float64(scanT)),
			fmtDur(groupT), fmtF(float64(rows)/groupT.Seconds()),
			fmt.Sprintf("%.2fx", float64(groupBase)/float64(groupT)))
	}
	r.AddNote("GOMAXPROCS on this host: %d (speedups plateau at the core count)", runtime.GOMAXPROCS(0))
	r.AddNote("expected shape: near-linear scaling to the core count, then flat; " +
		"par=4 >= 2x par=1 on a >= 4-core machine")
	return r, nil
}
