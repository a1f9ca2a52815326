package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"hyrisenv/internal/disk"
	"hyrisenv/internal/nvm"
	"hyrisenv/internal/txn"
	"hyrisenv/internal/workload"
)

// RecoveryModel is the analytical restart-cost model: log-based restart
// time decomposes into checkpoint ingest (linear in bytes), log replay
// (linear in records) and index rebuild (linear in rows), while the NVM
// restart is a constant. Calibrating the three coefficients at one small
// size predicts every other size — the linearity argument behind the
// paper's "53 s for 92.2 GB" extrapolation.
type RecoveryModel struct {
	PerCkptByte     float64 // seconds per checkpoint byte
	PerReplayRecord float64 // seconds per log record
	PerIndexRow     float64 // seconds per row of index rebuild
	NVMConstant     time.Duration
}

// CalibrateRecoveryModel fits the model from one measured recovery.
func CalibrateRecoveryModel(logStats txn.RecoveryStats, nvmStats txn.RecoveryStats, rows int) RecoveryModel {
	m := RecoveryModel{NVMConstant: nvmStats.Total}
	if logStats.CheckpointBytes > 0 {
		m.PerCkptByte = logStats.CheckpointLoad.Seconds() / float64(logStats.CheckpointBytes)
	}
	if logStats.ReplayRecords > 0 {
		m.PerReplayRecord = logStats.LogReplay.Seconds() / float64(logStats.ReplayRecords)
	}
	if rows > 0 {
		m.PerIndexRow = logStats.IndexRebuild.Seconds() / float64(rows)
	}
	return m
}

// PredictLog estimates the log-based restart time for a dataset.
func (m RecoveryModel) PredictLog(ckptBytes uint64, replayRecords, rows int) time.Duration {
	s := m.PerCkptByte*float64(ckptBytes) +
		m.PerReplayRecord*float64(replayRecords) +
		m.PerIndexRow*float64(rows)
	return time.Duration(s * float64(time.Second))
}

// M1RecoveryModel calibrates the analytical model at the smallest size
// and validates its predictions against measurements at larger sizes —
// the methodological counterpart of extrapolating the paper's headline
// number to arbitrary dataset sizes.
func M1RecoveryModel(workDir string, sizes []int, model disk.Model) (*Report, error) {
	r := &Report{
		ID:      "M1",
		Title:   "analytical recovery model: predicted vs measured (calibrated at smallest size)",
		Headers: []string{"rows", "measured log", "predicted log", "pred/meas", "measured nvm"},
	}
	type sample struct {
		rows     int
		logStats txn.RecoveryStats
		nvmStats txn.RecoveryStats
	}
	run := func(n int) (sample, error) {
		s := sample{rows: n}
		spec := workload.DefaultSpec(n)
		dirL := filepath.Join(workDir, fmt.Sprintf("m1-log-%d", n))
		e, err := openLog(dirL, model)
		if err != nil {
			return s, err
		}
		tbl, err := workload.Load(e, "orders", spec)
		if err != nil {
			return s, err
		}
		if err := e.Checkpoint(); err != nil {
			return s, err
		}
		workload.RunMixed(e, tbl, spec, workload.Mix{InsertPct: 100}, n/5, 1)
		e.Close()
		if e, err = openLog(dirL, model); err != nil {
			return s, err
		}
		s.logStats = e.RecoveryStats()
		e.Close()
		os.RemoveAll(dirL)

		dirN := filepath.Join(workDir, fmt.Sprintf("m1-nvm-%d", n))
		en, err := openNVM(dirN, heapFor(n*2), nvm.LatencyModel{})
		if err != nil {
			return s, err
		}
		if _, err := workload.Load(en, "orders", spec); err != nil {
			return s, err
		}
		en.Close()
		if en, err = openNVM(dirN, heapFor(n*2), nvm.LatencyModel{}); err != nil {
			return s, err
		}
		s.nvmStats = en.RecoveryStats()
		en.Close()
		os.RemoveAll(dirN)
		return s, nil
	}

	var cal RecoveryModel
	for i, n := range sizes {
		s, err := run(n)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			cal = CalibrateRecoveryModel(s.logStats, s.nvmStats, n+n/5)
			r.AddRow(fmt.Sprintf("%d (cal)", n), fmtDur(s.logStats.Total), "—", "—",
				fmtDur(s.nvmStats.Total))
			continue
		}
		pred := cal.PredictLog(s.logStats.CheckpointBytes, s.logStats.ReplayRecords, n+n/5)
		ratio := float64(pred) / float64(s.logStats.Total)
		r.AddRow(fmt.Sprintf("%d", n), fmtDur(s.logStats.Total), fmtDur(pred),
			fmt.Sprintf("%.2f", ratio), fmtDur(s.nvmStats.Total))
	}
	r.AddNote("expected shape: pred/meas near 1 (linear cost model holds); " +
		"nvm stays ~constant, unexplainable by any per-byte model")
	return r, nil
}
