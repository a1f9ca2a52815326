//go:build crosscheck_horizon

package shard

import (
	"errors"
	"fmt"

	"hyrisenv/internal/txn"
)

// commitCross — SEEDED BUG (crosscheck_horizon): the decided CID is
// retired to the snapshot horizon before any part is finished with it.
// Nothing durable changes order, so no crash sweep or barrier analyzer
// sees it; but a reader that takes its snapshot in between sees the CID
// as visible while one shard's rows are stamped and another's are not,
// and sums half a transfer. TestBankTransferInvariantSharded must
// observe it at four shards.
func (t *Tx) commitCross(writers []*txn.Txn, writerShards []int) error {
	// Phase one: durably prepare every writing part. A failure here
	// aborts the whole transaction (no decision was recorded, so even a
	// crash now resolves to abort everywhere).
	var gtid uint64
	if t.e.coord != nil {
		gtid = t.e.coord.NextGTID()
	} else {
		gtid = gtidSrc.Add(1)
	}
	for i, w := range writers {
		if err := w.Prepare(gtid); err != nil {
			for _, p := range writers[:i] {
				p.AbortPrepared() //nolint:errcheck — already failing
			}
			t.abortRemaining(writers[i:])
			return fmt.Errorf("shard %d prepare: %w", writerShards[i], err)
		}
	}

	// The commit point: one globally ordered CID, durably bound to the
	// gtid at the coordinator. Everything after this must (and, after a
	// crash, will) complete.
	cid := t.e.clock.Next()
	if t.e.coord != nil {
		if err := t.e.coord.Decide(gtid, cid); err != nil {
			t.e.clock.Done(cid, 1)
			for _, w := range writers {
				w.AbortPrepared() //nolint:errcheck — decision was never recorded
			}
			t.abortRemaining(nil)
			return err
		}
	}

	// BUG: the horizon moves before the parts are finished.
	t.e.clock.Done(cid, 1)
	var errs []error
	for i, w := range writers {
		if err := w.CommitPrepared(cid); err != nil {
			errs = append(errs, fmt.Errorf("shard %d finish: %w", writerShards[i], err))
		}
	}
	if t.e.coord != nil && len(errs) == 0 {
		t.e.coord.Forget(gtid)
	}
	for _, p := range t.parts {
		if p != nil && p.Status() == txn.StatusActive {
			if err := p.Commit(); err != nil { // read-only parts: trivial
				errs = append(errs, err)
			}
		}
	}
	return errors.Join(errs...)
}
