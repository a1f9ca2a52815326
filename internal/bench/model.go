package bench

import (
	"fmt"
	"time"

	"hyrisenv/internal/txn"
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

// M1RecoveryModel calibrates the analytical model on the restart
// sweep's smallest size and validates its predictions against the
// larger ones — the methodological counterpart of extrapolating the
// paper's headline number to arbitrary dataset sizes.
func M1RecoveryModel(env *Env) (*Report, error) {
	sweep, err := env.restarts()
	if err != nil {
		return nil, err
	}
	r := &Report{
		ID:      "M1",
		Title:   "analytical recovery model: predicted vs measured (calibrated at smallest size)",
		Headers: []string{"rows", "measured log", "predicted log", "pred/meas", "measured nvm"},
	}
	var cal RecoveryModel
	for i, s := range sweep {
		rows := s.Rows + s.Rows/10
		if i == 0 {
			cal = CalibrateRecoveryModel(s.Log, s.NVM, rows)
			r.AddRow(fmt.Sprintf("%d (cal)", s.Rows), fmtDur(s.Log.Total), "—", "—", fmtDur(s.NVM.Total))
			continue
		}
		pred := cal.PredictLog(s.Log.CheckpointBytes, s.Log.ReplayRecords, rows)
		r.AddRow(fmt.Sprintf("%d", s.Rows), fmtDur(s.Log.Total), fmtDur(pred),
			fmt.Sprintf("%.2f", float64(pred)/float64(s.Log.Total)), fmtDur(s.NVM.Total))
	}
	r.AddNote("expected shape: pred/meas near 1 (linear cost model holds); " +
		"nvm stays ~constant, unexplainable by any per-byte model")
	r.AddNote("the samples are E1's restart sweep")
	return r, nil
}
