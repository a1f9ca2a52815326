package bench

import (
	"fmt"
	"os"
	"path/filepath"

	"hyrisenv/internal/core"
	"hyrisenv/internal/disk"
	"hyrisenv/internal/txn"
	"hyrisenv/internal/workload"
)

// A6CheckpointCompression measures flate-compressed checkpoints under a
// bandwidth-limited disk: smaller checkpoint I/O vs decompression CPU.
// It loads the restart sweep's second size.
func A6CheckpointCompression(env *Env) (*Report, error) {
	rows := env.Scale.E1Sizes[1]
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
		dir := filepath.Join(env.Dir, fmt.Sprintf("a6-%v", compress))
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
