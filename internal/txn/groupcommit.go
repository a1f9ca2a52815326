package txn

import "hyrisenv/internal/wal"

// Group commit: the one commit body of every durability mode. Members
// commit at consecutive CIDs under one hold of commitMu; the modes differ
// only in the step that makes the group durable, which N concurrent
// commits share. Log and NVM commits reach the body through the
// manager's batcher, ModeNone commits call it directly (nothing to
// share), and the 2PC finish runs it for one prepared member at its
// decided CID. ModeLog appends every member's redo and commit records in
// one write and syncs once after commitMu is released, before any member
// is acknowledged. ModeNVM batches the paper's three ordered persists:
//
//	fence 1: every context's CID flushed          (commit intents ordered)
//	fence 2: every begin/end stamp flushed        (effects ordered)
//	drain 3: lastCID advanced by the batch size   (the atomic commit point)
//
// The drain — on flash-backed NVDIMMs the expensive device-level flush
// (nvm.LatencyModel.DrainNS) — is the commit's last barrier: the
// contexts are parked, not retired (see pctx.go).
//
// The ordering argument is the paper's, batched. CIDs must be durable
// before any stamp: a stamp whose context CID was lost would survive a
// crash with no context claiming it, and once lastCID later advanced
// past the stamp's CID the row would resurrect as a phantom. Stamps must
// be durable before lastCID: recovery classifies cid <= lastCID as
// "committed, stamps all present", so advancing lastCID over
// partially-durable stamps would break atomicity. The batch's lastCID
// advance is one 8-byte persist, so the whole group commits or aborts as
// a unit: a crash anywhere before fence 3 leaves every member's
// cid > lastCID and recovery undoes them all.

// CommitGroup commits txns as one group, sharing the mode's durability
// step; on NVM the group is all-or-nothing under crashes. Members with
// empty write sets commit trivially and consume no CID. Every member
// must be active and owned by this manager: a non-active member fails
// the whole batch with ErrNotActive before anything commits. Safe for
// concurrent use; Txn.Commit reaches it through the manager's batcher.
func (m *Manager) CommitGroup(txns []*Txn) error {
	for _, t := range txns {
		if t.status != StatusActive {
			return ErrNotActive
		}
	}
	// Partition out read-only/empty members: they need no CID and no
	// durability, exactly like the fast path in Commit.
	writers := txns[:0:0]
	for _, t := range txns {
		if len(t.writes) == 0 {
			t.status = StatusCommitted
			m.releasePctx(t)
			continue
		}
		writers = append(writers, t)
	}
	if len(writers) == 0 {
		return nil
	}
	return m.commit(writers, 0)
}

// commit is the commit body. It commits writers — each with a non-empty
// write set — at consecutive CIDs drawn from the clock or, when decided is
// non-zero, the one prepared member of a 2PC finish at the decided CID.
// If the log append fails, the group's CIDs are retired and its members
// stay active, so Abort releases their rows.
func (m *Manager) commit(writers []*Txn, decided uint64) error {
	var w *wal.Writer
	m.commitMu.Lock()
	first := decided
	if decided == 0 {
		first = m.clock.NextN(len(writers))
	}
	last := first + uint64(len(writers)) - 1
	switch m.mode {
	case ModeNVM:
		// (1) Every commit intent under one fence. A prepared member's
		// marker is already durable (Prepare drained it) and must stay
		// until the context is released.
		if decided == 0 {
			for i, t := range writers {
				m.pctxSetCID(t, first+uint64(i))
			}
			m.h.Fence()
		}
	case ModeLog:
		var recs []byte
		for i, t := range writers {
			recs = t.appendRedo(recs, first+uint64(i))
		}
		w = m.LogWriter()
		if err := w.Append(recs); err != nil {
			m.commitMu.Unlock()
			if decided == 0 {
				m.clock.Done(first, len(writers))
			}
			return err
		}
	}

	// (2) Stamp every member's begin/end CIDs; on NVM one fence makes
	// all effects durable.
	for i, t := range writers {
		t.stampLocked(first + uint64(i))
	}
	advance := last > m.lastCID.Load()
	if m.mode == ModeNVM {
		m.h.Fence()
		// (3) One 8-byte flush advances the horizon over the whole batch
		// and one drain makes it durable. A decided CID may lie below the
		// horizon (a later single-shard commit got there first): the
		// horizon only advances.
		if advance {
			m.h.SetU64(m.pRoot.Add(crOffLastCID), last)
			m.h.Flush(m.pRoot.Add(crOffLastCID), 8)
		}
		m.h.Drain()
	}
	if advance {
		m.lastCID.Store(last)
	}
	m.commitMu.Unlock()
	if decided == 0 {
		m.clock.Done(first, len(writers))
	}

	if w != nil {
		if err := w.Sync(); err != nil {
			return err
		}
	}
	for _, t := range writers {
		if decided != 0 {
			// Retire the prepared marker now that the stamps are durable.
			m.releasePctx(t)
		} else {
			m.parkPctx(t)
		}
		t.status = StatusCommitted
	}
	return nil
}

// appendRedo appends t's redo records, then its commit record at cid,
// to recs.
func (t *Txn) appendRedo(recs []byte, cid uint64) []byte {
	for _, op := range t.writes {
		switch op.kind {
		case writeInsert:
			recs = append(recs, wal.EncodeInsert(t.tid, op.table.ID, op.row, op.vals)...)
		case writeInvalidate:
			recs = append(recs, wal.EncodeInvalidate(t.tid, op.table.ID, op.row)...)
		}
	}
	return append(recs, wal.EncodeCommit(t.tid, cid)...)
}

// maxGroup bounds the transactions per commit group, so one group's
// commit-mutex hold time stays bounded under a backlog.
const maxGroup = 64

// Close rejects further commits of writing transactions with ErrClosed
// and waits for the in-flight group, so the caller can release the heap
// or close the log afterwards. Idempotent; a no-op in ModeNone.
func (m *Manager) Close() {
	if m.gc != nil {
		m.gc.Close()
	}
}

// GroupCommitStats reports (groups, items) committed through the
// batcher; their ratio is the achieved group size. In ModeLog a group is
// one log sync. Zero in ModeNone.
func (m *Manager) GroupCommitStats() (uint64, uint64) {
	if m.gc == nil {
		return 0, 0
	}
	return m.gc.Stats()
}
