package txn

import (
	"errors"
	"fmt"

	"hyrisenv/internal/nvm"
	"hyrisenv/internal/wal"
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
func (t *Txn) CommitPrepared(cid uint64) error {
	if t.status != StatusPrepared {
		return ErrNotPrepared
	}
	if len(t.writes) == 0 {
		t.status = StatusCommitted
		t.m.releasePctx(t)
		return nil
	}
	m := t.m
	if m.mode == ModeLog {
		return t.commitPreparedLog(cid)
	}
	m.commitMu.Lock()
	switch m.mode {
	case ModeNVM:
		// Stamps must be durable before the context is released below: a
		// released context can no longer route recovery to the decision
		// record that would redo them. The prepared marker is left in
		// place for the same reason — until the release persists, a crash
		// must find the context still claiming "prepared, ask the
		// coordinator". The fence keeps the rule every commit obeys —
		// stamps durable before lastCID may cover them.
		t.stampLocked(cid)
		m.h.Fence()
		if cid > m.lastCID.Load() {
			m.h.SetU64(m.pRoot.Add(crOffLastCID), cid)
			m.h.Flush(m.pRoot.Add(crOffLastCID), 8)
			m.lastCID.Store(cid)
		}
		m.h.Drain()
	default:
		t.stampLocked(cid)
		if cid > m.lastCID.Load() {
			m.lastCID.Store(cid)
		}
	}
	m.commitMu.Unlock()
	m.releasePctx(t)
	t.status = StatusCommitted
	return nil
}

// AbortPrepared rolls back a prepared transaction (the decision was
// abort, or prepare failed on a sibling shard). Inserted rows stay
// permanently invisible, exactly like Abort.
func (t *Txn) AbortPrepared() error {
	if t.status != StatusPrepared {
		return ErrNotPrepared
	}
	for _, op := range t.writes {
		s, local := op.table.MVCCFor(op.row)
		s.ReleaseRow(local, t.tid)
	}
	t.m.releasePctx(t)
	t.status = StatusAborted
	return nil
}

// commitPreparedLog is the ModeLog finish path: the part's redo records
// and a commit record carrying the decided cid go to this shard's WAL.
// Cross-shard commits in ModeLog are visibility-atomic (the shared clock
// withholds the cid until every part publishes) but not crash-atomic —
// the log format has no prepared state, so a crash between two shards'
// WAL syncs splits the transaction. The sharding documentation calls
// this out; the crash-atomic configuration is ModeNVM.
func (t *Txn) commitPreparedLog(cid uint64) error {
	m := t.m
	w := m.LogWriter()
	if w == nil {
		return errors.New("txn: ModeLog manager has no log writer")
	}
	var recs []byte
	for _, op := range t.writes {
		switch op.kind {
		case writeInsert:
			recs = append(recs, wal.EncodeInsert(t.tid, op.table.ID, op.row, op.vals)...)
		case writeInvalidate:
			recs = append(recs, wal.EncodeInvalidate(t.tid, op.table.ID, op.row)...)
		}
	}
	recs = append(recs, wal.EncodeCommit(t.tid, cid)...)

	m.commitMu.Lock()
	lsn, err := w.Append(recs)
	if err != nil {
		m.commitMu.Unlock()
		return err
	}
	t.stampLocked(cid)
	if cid > m.lastCID.Load() {
		m.lastCID.Store(cid)
	}
	m.commitMu.Unlock()
	if err := w.WaitDurable(lsn); err != nil {
		return err
	}
	t.status = StatusCommitted
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
