package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"hyrisenv/internal/core"
	"hyrisenv/internal/nvm"
	"hyrisenv/internal/shard"
	"hyrisenv/internal/storage"
	"hyrisenv/internal/txn"
)

// shadowCheck is the durability check SIGKILL cannot make: a killed
// process leaves its unflushed stores in the page cache, so every store
// survives. Here the workload's write stream runs in this process on a
// heap in shadow mode, which keeps only what a persist barrier covered;
// power is cut at a seeded barrier, the image is reopened, checked and
// compared with the ledger. Read-only workloads issue no barrier to cut
// at, so they report zero crash points.
func (r *run) shadowCheck() error {
	m := r.metrics
	m["shadow.crash_points"], m["shadow.violations"] = 0, 0
	if r.w != wOLTPWrite && r.w != wRestart {
		return nil
	}
	for p := 0; p < r.sz.shadowCuts; p++ {
		dir := filepath.Join(r.work, fmt.Sprintf("shadow-%02d", p))
		violation, err := r.shadowPoint(dir, p)
		os.RemoveAll(dir)
		if err != nil {
			return fmt.Errorf("crash point %d: %w", p, err)
		}
		m["shadow.crash_points"]++
		r.note(violation)
		if violation != nil {
			m["shadow.violations"]++
		}
	}
	return nil
}

func shadowConfig(dir string, shadow bool) shard.Config {
	return shard.Config{Config: core.Config{Mode: txn.ModeNVM, Dir: dir, NVMHeapSize: 64 << 20, NVMShadow: shadow}}
}

// shadowPoint runs one crash point. The first error is a failure of the
// check itself; violation is what the check found.
func (r *run) shadowPoint(dir string, point int) (violation, err error) {
	e, err := shard.Open(shadowConfig(dir, true))
	if err != nil {
		return nil, err
	}
	h := e.Heaps()[0]
	// After a simulated crash the engine is mid-protocol and may hold its
	// own locks, so it is dropped, not closed; the heap mapping holds
	// exactly what power loss would have left.
	defer h.Close()
	defs := make([]storage.ColumnDef, len(schema))
	for i, c := range schema {
		defs[i] = storage.ColumnDef{Name: c.Name, Type: c.Type}
	}
	sch, err := storage.NewSchema(defs...)
	if err != nil {
		return nil, err
	}
	tbl, err := e.CreateTable(tableName, sch, "id")
	if err != nil {
		return nil, err
	}
	d := dataset{seed: r.d.seed, rows: r.sz.shadowRows}
	tx := e.Begin()
	for i := 0; i < d.rows; i++ {
		if _, err := tx.Insert(tbl, d.row(int64(i)).values()); err != nil {
			return nil, err
		}
	}
	if err := tx.Commit(); err != nil {
		return nil, err
	}
	if _, err := e.Merge(tableName); err != nil {
		return nil, err
	}

	w := &writer{t: shardTarget{e, tbl}, d: d, base: writeBase(0), inserts: oltpInserts, mutate: r.w == wOLTPWrite}
	if r.w == wRestart {
		w.inserts = restartInserts
	}
	// A few transactions first, so that updates and deletes have rows to
	// work on; the last of them sizes a transaction in barriers.
	var perTxn uint64
	for i := 0; i < 4; i++ {
		before := h.Stats().Fences
		if err := w.op(); err != nil {
			return nil, err
		}
		perTxn = h.Stats().Fences - before
	}
	h.SetTearSeed(int64(point % 2 * (point + 1))) // odd points also tear the unflushed lines
	h.FailAfter(1 + int64(d.hash(7, uint64(point))%(3*perTxn)))
	crashed := false
	func() {
		defer func() {
			if p := recover(); p != nil {
				if perr, ok := p.(error); !ok || !errors.Is(perr, nvm.ErrSimulatedCrash) {
					panic(p)
				}
				crashed = true
			}
		}()
		for i := 0; i < 4 && err == nil; i++ {
			err = w.op()
		}
	}()
	if err != nil {
		return nil, err
	}
	if !crashed {
		return nil, errors.New("the write stream ended before the barrier")
	}
	if err := h.Close(); err != nil {
		return nil, err
	}

	re, err := shard.Open(shadowConfig(dir, false))
	if err != nil {
		return fmt.Errorf("reopen: %w", err), nil
	}
	defer re.Close()
	if err := re.Fsck(); err != nil {
		return fmt.Errorf("fsck: %w", err), nil
	}
	if err := re.Check(); err != nil {
		return fmt.Errorf("check: %w", err), nil
	}
	rtbl, err := re.Table(tableName)
	if err != nil {
		return err, nil
	}
	after := shardTarget{re, rtbl}
	if err := w.verifyInFlight(after); err != nil {
		return err, nil
	}
	_, _, first := w.verifyLedger(after, len(w.acked)*w.inserts)
	return first, nil
}
