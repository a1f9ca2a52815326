package bench

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"hyrisenv/internal/core"
	"hyrisenv/internal/disk"
	"hyrisenv/internal/nvm"
	"hyrisenv/internal/pstruct"
	"hyrisenv/internal/storage"
	"hyrisenv/internal/txn"
	"hyrisenv/internal/workload"
)

// Ablations isolate the cost/benefit of individual design choices of the
// architecture (DESIGN.md "ablation benches").

// A1GroupKeyIndex compares indexed point lookups against full scans —
// the case for maintaining group-key indexes and delta postings at all.
func A1GroupKeyIndex(workDir string, rows int) (*Report, error) {
	r := &Report{
		ID:      "A1",
		Title:   "ablation: group-key index + delta postings vs full scan (point lookup)",
		Headers: []string{"rows", "indexed lookup", "scan lookup", "speedup"},
	}
	for _, n := range []int{rows / 10, rows} {
		dir := filepath.Join(workDir, fmt.Sprintf("a1-%d", n))
		eng, err := openNVM(dir, heapFor(n*2), nvm.LatencyModel{})
		if err != nil {
			return nil, err
		}
		spec := workload.DefaultSpec(n)
		stbl, err := workload.Load(eng, "orders", spec)
		if err != nil {
			return nil, err
		}
		e, tbl := eng.Shard(0), stbl.Part(0)
		if _, err := e.Merge("orders"); err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(11))
		tx := e.Begin()
		const iters = 300
		// ColID is indexed; ColAmount is not, forcing the scan path on a
		// same-cardinality predicate.
		idxT := timeIt(iters, func(i int) {
			selectEq(tx, tbl, workload.ColID, storage.Int(int64(rng.Intn(n))))
		})
		scanT := timeIt(iters, func(i int) {
			selectEq(tx, tbl, workload.ColAmount, storage.Float(float64(rng.Intn(100000))/100))
		})
		e.Close()
		os.RemoveAll(dir)
		r.AddRow(fmt.Sprintf("%d", n), fmtDur(idxT), fmtDur(scanT),
			fmt.Sprintf("%.0fx", float64(scanT)/float64(idxT)))
	}
	r.AddNote("expected shape: scan lookup grows linearly with rows; indexed lookup stays ~flat")
	return r, nil
}

// A2GroupCommit measures how group commit amortizes log syncs: with more
// concurrent committers, syncs per commit must drop well below 1.
func A2GroupCommit(workDir string, commits int) (*Report, error) {
	r := &Report{
		ID:      "A2",
		Title:   "ablation: group commit (log mode, modelled SSD sync)",
		Headers: []string{"committers", "commits/s", "syncs", "syncs/commit"},
	}
	for _, threads := range []int{1, 4, 16} {
		dir := filepath.Join(workDir, fmt.Sprintf("a2-%d", threads))
		// A sync latency makes batching matter, as on real hardware.
		eng, err := openFleet(core.Config{Mode: txn.ModeLog, Dir: dir,
			DiskModel: disk.Model{SyncLatency: 200 * time.Microsecond}})
		if err != nil {
			return nil, err
		}
		spec := workload.DefaultSpec(1000)
		stbl, err := workload.Load(eng, "orders", spec)
		if err != nil {
			return nil, err
		}
		e, tbl := eng.Shard(0), stbl.Part(0)
		// A log-mode commit group is one append and one sync.
		groupsBefore, _ := e.Manager().GroupCommitStats()
		start := time.Now()
		var wg sync.WaitGroup
		per := commits / threads
		for th := 0; th < threads; th++ {
			wg.Add(1)
			go func(th int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(th)))
				for i := 0; i < per; i++ {
					tx := e.Begin()
					tx.Insert(tbl, spec.Row(rng, 10000+th*per+i))
					tx.Commit()
				}
			}(th)
		}
		wg.Wait()
		elapsed := time.Since(start)
		groups, _ := e.Manager().GroupCommitStats()
		syncs := groups - groupsBefore
		total := per * threads
		e.Close()
		os.RemoveAll(dir)
		r.AddRow(fmt.Sprintf("%d", threads),
			fmtF(float64(total)/elapsed.Seconds()),
			fmt.Sprintf("%d", syncs),
			fmt.Sprintf("%.2f", float64(syncs)/float64(total)))
	}
	r.AddNote("expected shape: syncs/commit ~1 single-threaded, dropping well below 1 " +
		"with concurrency; commits/s rises accordingly")
	return r, nil
}

// A3Compression sweeps dictionary cardinality to show the bit-packed
// main format's space/scan trade-off.
func A3Compression(workDir string, rows int) (*Report, error) {
	r := &Report{
		ID:      "A3",
		Title:   "ablation: dictionary compression (main partition, int column)",
		Headers: []string{"distinct values", "bits/value", "vector bytes", "scan"},
	}
	path := filepath.Join(workDir, "a3-heap")
	if err := os.MkdirAll(path, 0o755); err != nil {
		return nil, err
	}
	h, err := nvm.Create(filepath.Join(path, "h.nvm"), heapFor(rows*4))
	if err != nil {
		return nil, err
	}
	defer func() {
		h.Close()
		os.RemoveAll(path)
	}()
	for _, card := range []int{2, 256, 65536} {
		keys := make([][]byte, rows)
		for i := range keys {
			keys[i] = storage.Int(int64(i % card)).EncodeKey(nil)
		}
		m, err := storage.BuildNVMMain(h, storage.TypeInt64, keys)
		if err != nil {
			return nil, err
		}
		bits := pstruct.BitsFor(uint64(card - 1))
		vecBytes := (uint64(rows)*bits + 63) / 64 * 8
		start := time.Now()
		var sum uint64
		m.ScanIDs(func(_, id uint64) bool { sum += id; return true })
		scanT := time.Since(start)
		_ = sum
		r.AddRow(fmt.Sprintf("%d", card), fmt.Sprintf("%d", bits),
			fmtBytes(vecBytes), fmtDur(scanT))
	}
	r.AddNote("expected shape: vector bytes grow with log2(cardinality); "+
		"an uncompressed u32 vector would take %s regardless", fmtBytes(uint64(rows)*4))
	return r, nil
}

// A4CommitBatching shows how the fixed commit-protocol barriers
// (context CID + lastCID) amortize over transaction size.
func A4CommitBatching(workDir string) (*Report, error) {
	r := &Report{
		ID:      "A4",
		Title:   "ablation: NVM barriers per row vs transaction size",
		Headers: []string{"rows/txn", "flushes/txn", "flushes/row", "fences/row"},
	}
	dir := filepath.Join(workDir, "a4")
	eng, err := openNVM(dir, heapFor(200000), nvm.LatencyModel{})
	if err != nil {
		return nil, err
	}
	defer func() {
		eng.Close()
		os.RemoveAll(dir)
	}()
	spec := workload.DefaultSpec(1000)
	stbl, err := workload.Load(eng, "orders", spec)
	if err != nil {
		return nil, err
	}
	e, tbl := eng.Shard(0), stbl.Part(0)
	h := e.Heap()
	rng := rand.New(rand.NewSource(4))
	next := 10000
	for _, batch := range []int{1, 10, 100, 1000} {
		const txns = 30
		h.ResetStats()
		for i := 0; i < txns; i++ {
			tx := e.Begin()
			for j := 0; j < batch; j++ {
				tx.Insert(tbl, spec.Row(rng, next))
				next++
			}
			tx.Commit()
		}
		s := h.Stats()
		perTxn := float64(s.Flushes) / txns
		r.AddRow(fmt.Sprintf("%d", batch),
			fmt.Sprintf("%.0f", perTxn),
			fmt.Sprintf("%.1f", perTxn/float64(batch)),
			fmt.Sprintf("%.1f", float64(s.Fences)/txns/float64(batch)))
	}
	r.AddNote("expected shape: flushes/row falls toward the per-row floor as the " +
		"per-transaction costs (context registration, CID, lastCID) amortize")
	return r, nil
}

// A6CheckpointCompression measures flate-compressed checkpoints under a
// bandwidth-limited disk: smaller checkpoint I/O vs decompression CPU.
func A6CheckpointCompression(workDir string, rows int) (*Report, error) {
	r := &Report{
		ID:      "A6",
		Title:   "ablation: checkpoint compression (log mode, 2016-era SSD model)",
		Headers: []string{"checkpoints", "ckpt bytes", "ckpt load", "recovery total"},
	}
	for _, compress := range []bool{false, true} {
		name := "plain"
		if compress {
			name = "flate"
		}
		dir := filepath.Join(workDir, fmt.Sprintf("a6-%v", compress))
		cfg := core.Config{Mode: txn.ModeLog, Dir: dir,
			DiskModel: disk.SSD2016, CompressCheckpoints: compress}
		eng, err := openFleet(cfg)
		if err != nil {
			return nil, err
		}
		spec := workload.DefaultSpec(rows)
		if _, err := workload.Load(eng, "orders", spec); err != nil {
			return nil, err
		}
		e := eng.Shard(0)
		if err := e.Checkpoint(); err != nil {
			return nil, err
		}
		if err := e.Close(); err != nil {
			return nil, err
		}
		e, err = core.Open(cfg)
		if err != nil {
			return nil, err
		}
		st := e.RecoveryStats()
		e.Close()
		os.RemoveAll(dir)
		r.AddRow(name, fmtBytes(st.CheckpointBytes), fmtDur(st.CheckpointLoad), fmtDur(st.Total))
	}
	r.AddNote("expected shape: flate shrinks checkpoint bytes severalfold; on a " +
		"bandwidth-limited disk the load time shrinks with them")
	return r, nil
}
