package txn

import (
	"errors"
	"fmt"

	"hyrisenv/internal/nvm"
)

// Two-phase commit for cross-shard transactions (ModeNVM).
//
// A cross-shard transaction has one writing part per participating
// shard. The router prepares every part, persists a commit decision in
// the coordinator heap (the commit point), then finishes every part:
//
//	prepare:  the part's persistent context CID field is stamped with
//	          prepareBit|gtid and drained. From here recovery will not
//	          touch the part on its own authority — it asks the
//	          coordinator's decider.
//	decide:   coordinator persists {gtid -> cid} and drains (see
//	          internal/shard's coordinator). Crossing this barrier is
//	          what makes the whole transaction durable.
//	finish:   each part stamps its rows with the decided cid, advances
//	          its shard's lastCID to at least cid, drains, and releases
//	          the context. Presumed abort: a prepared part whose gtid
//	          has no decision record was never decided — undo.
//
// The prepared marker stays in the context until release. That ordering
// is what keeps recovery sound when the decided cid is *below* the
// shard's lastCID (another single-shard commit got a later cid first):
// the plain classification "cid <= lastCID means fully stamped" does not
// hold for such a context, so recovery must check the prepared bit
// before the lastCID rule and redo the stamps from the decision record,
// which is idempotent.

// prepareBit marks a persistent context CID field as a 2PC prepared
// marker: the low 63 bits are the global transaction ID, not a CID.
// Ordinary CIDs are counters and can never reach bit 63.
const prepareBit = uint64(1) << 63

// ErrNotPrepared is returned by CommitPrepared/AbortPrepared on a
// transaction that is not in the prepared state.
var ErrNotPrepared = errors.New("txn: transaction is not prepared")

// TwoPCDecider resolves a prepared-but-undecided transaction found
// during restart: it reports whether gtid was durably decided to commit
// and, if so, the commit CID recorded in the decision. A missing
// decision means presumed abort.
type TwoPCDecider func(gtid uint64) (cid uint64, commit bool)

// Prepare durably marks the transaction as prepared under gtid: phase
// one of cross-shard commit. After Prepare returns nil the transaction
// can only be finished by CommitPrepared or AbortPrepared. Parts with an
// empty write set prepare trivially (nothing to persist, nothing to
// decide).
func (t *Txn) Prepare(gtid uint64) error {
	if t.status != StatusActive {
		return ErrNotActive
	}
	if gtid == 0 || gtid&prepareBit != 0 {
		return fmt.Errorf("txn: invalid gtid %#x", gtid)
	}
	if t.m.mode == ModeNVM && len(t.writes) > 0 {
		// The marker write is the one commit issues; the drain is the
		// prepare promise — every context entry (persisted during
		// execution) and the marker itself are on stable media before
		// the coordinator may decide.
		t.m.pctxSetCID(t, prepareBit|gtid)
		t.m.h.Drain()
	}
	t.status = StatusPrepared
	return nil
}

// CommitPrepared finishes a prepared transaction with the decided commit
// CID: phase two. The caller (the shard router) has already persisted
// the {gtid -> cid} decision; this stamps the part's rows, advances the
// shard's commit horizon to at least cid, and retires the context.
//
// In ModeLog the part's records go to this shard's WAL, which has no
// prepared state: the finish is not crash-atomic across shards (see
// shard.Tx.Commit).
func (t *Txn) CommitPrepared(cid uint64) error {
	if t.status != StatusPrepared {
		return ErrNotPrepared
	}
	if len(t.writes) == 0 {
		t.status = StatusCommitted
		t.m.releasePctx(t)
		return nil
	}
	// Stamps must be durable before the context is released: a released
	// context can no longer route recovery to the decision record that
	// would redo them. The prepared marker is left in place for the same
	// reason — until the release persists, a crash must find the context
	// still claiming "prepared, ask the coordinator".
	return t.m.commit([]*Txn{t}, cid)
}

// AbortPrepared rolls back a prepared transaction (the decision was
// abort, or prepare failed on a sibling shard). Inserted rows stay
// permanently invisible, exactly like Abort.
func (t *Txn) AbortPrepared() error {
	if t.status != StatusPrepared {
		return ErrNotPrepared
	}
	t.rollback()
	return nil
}

// redoContext re-stamps the rows listed in a prepared context chain with
// the decided commit CID — idempotent, so recovery can crash and rerun.
func (m *Manager) redoContext(head nvm.PPtr, resolve TableResolver, cid uint64) (int, error) {
	h := m.h
	redone := 0
	for blk := head; !blk.IsNil(); blk = nvm.PPtr(h.U64(blk.Add(pcOffNext))) {
		count := h.U64(blk.Add(pcOffCount))
		if count > pcEntriesMax {
			return redone, fmt.Errorf("txn: corrupt context block (count %d)", count)
		}
		for e := uint64(0); e < count; e++ {
			meta := h.U64(blk.Add(pcOffEntries + e*16))
			row := h.U64(blk.Add(pcOffEntries + e*16 + 8))
			kind := meta >> 32
			tableID := uint32(meta)
			tbl := resolve(tableID)
			if tbl == nil {
				return redone, fmt.Errorf("txn: context references unknown table %d", tableID)
			}
			if row >= tbl.Rows() {
				// Prepare drained every append before the decision could
				// be written, so a decided-commit context can never list a
				// row the table lost.
				return redone, fmt.Errorf("txn: decided context references missing row %d of table %d", row, tableID)
			}
			switch kind {
			case kindInsertEntry:
				tbl.StampBegin(row, cid)
			case kindInvalidateEntry:
				tbl.StampEnd(row, cid)
			default:
				return redone, fmt.Errorf("txn: corrupt context entry kind %d", kind)
			}
			redone++
		}
	}
	return redone, nil
}
