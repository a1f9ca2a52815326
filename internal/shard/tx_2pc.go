//go:build !crosscheck_swap && !crosscheck_horizon

package shard

import (
	"errors"
	"fmt"

	"hyrisenv/internal/txn"
)

// commitCross runs the two-phase commit for a transaction with two or
// more writing parts. It is the module's 2PC driver: protocheck
// verifies every path through it keeps the barrier order
// prepare-all → decide → finish-all → forget.
//
// The seeded crosscheck_swap variant of this file records the decision
// before any participant prepared; `make crosscheck` proves protocheck
// flags the reordering statically and the 2PC crash sweep observes the
// resulting partial commits. The seeded crosscheck_horizon variant
// retires the CID before the parts are finished; `make crosscheck`
// proves the sharded bank invariant observes a reader seeing half a
// transfer.
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

	// Phase two: finish every part with the decided CID, retire the CID
	// (publishing it to the snapshot horizon), then drop the decision
	// record — no prepared context references the gtid anymore.
	var errs []error
	for i, w := range writers {
		if err := w.CommitPrepared(cid); err != nil {
			errs = append(errs, fmt.Errorf("shard %d finish: %w", writerShards[i], err))
		}
	}
	t.e.clock.Done(cid, 1)
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
