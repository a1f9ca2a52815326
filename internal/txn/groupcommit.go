package txn

// Persist-group commit: the ModeNVM commit protocol.
//
// The paper's commit is three ordered persists: the context CID, the row
// stamps, and the lastCID advance. All three are ordering points, not
// per-row or per-transaction work, so N concurrent commits share them —
// the NVM analog of WAL group commit — and a lone commit is simply a
// group of one. CommitGroup commits a batch of transactions with exactly
// three barriers total:
//
//	fence 1: every context's CID flushed          (commit intents ordered)
//	fence 2: every begin/end stamp flushed        (effects ordered)
//	drain 3: lastCID advanced by the batch size   (the atomic commit point)
//
// The drain is the last barrier of a commit: the contexts are parked, not
// retired (see pctx.go), so nothing separates the commit point from the
// acknowledgement.
//
// The first two are cheap ordering fences; the third is the durability
// drain — on flash-backed NVDIMMs the expensive device-level flush (see
// nvm.LatencyModel.DrainNS) — shared by the whole batch.
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

// CommitGroup atomically commits txns as one persist group, sharing the
// three commit fences across the whole batch. On NVM the group is
// all-or-nothing under crashes: either every member is durably committed
// (after the single lastCID persist) or recovery rolls every member
// back. Transactions with empty write sets commit trivially and consume
// no CID.
//
// In ModeNone and ModeLog — which have no commit-time persist barriers
// to share (the WAL already group-commits via WaitDurable) — the batch
// degenerates to committing each transaction in order, stopping at the
// first error.
//
// Every member must be active and owned by this manager; a non-active
// member fails the whole batch with ErrNotActive before anything
// commits. CommitGroup is safe to call concurrently with itself (calls
// serialize on the commit mutex); Txn.Commit reaches it through the
// manager's batcher.
func (m *Manager) CommitGroup(txns []*Txn) error {
	for _, t := range txns {
		if t.status != StatusActive {
			return ErrNotActive
		}
	}
	if m.mode != ModeNVM {
		for _, t := range txns {
			if err := t.Commit(); err != nil {
				return err
			}
		}
		return nil
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

	h := m.h
	m.commitMu.Lock()
	first := m.clock.NextN(len(writers))

	// (1) Assign consecutive CIDs and durably record every commit intent
	// under one fence. From here recovery can tell each member was
	// committing.
	for i, t := range writers {
		m.pctxSetCID(t, first+uint64(i))
	}
	h.Fence()

	// (2) Stamp and flush every member's begin/end CIDs; one fence makes
	// all effects durable.
	for i, t := range writers {
		t.stampLocked(first + uint64(i))
	}
	h.Fence()

	// (3) One 8-byte flush advances the commit horizon over the whole
	// batch, and one durability drain — the expensive device-level
	// barrier on flash-backed NVDIMMs — makes the group's atomic commit
	// point durable. The drain is the cost being amortized: one per
	// batch, however many members it has.
	last := first + uint64(len(writers)) - 1
	h.SetU64(m.pRoot.Add(crOffLastCID), last)
	h.Flush(m.pRoot.Add(crOffLastCID), 8)
	h.Drain()
	m.lastCID.Store(last)
	m.commitMu.Unlock()
	m.clock.Done(first, len(writers))

	for _, t := range writers {
		m.parkPctx(t)
		t.status = StatusCommitted
	}
	return nil
}

// maxGroup bounds the transactions per persist group, so one group's
// commit-mutex hold time stays bounded under a backlog.
const maxGroup = 64

// Close rejects further commits of writing transactions with ErrClosed
// and waits for the in-flight group, so the caller can release the heap
// afterwards. Idempotent; a no-op outside ModeNVM.
func (m *Manager) Close() {
	if m.gc != nil {
		m.gc.Close()
	}
}

// GroupCommitStats reports (groups, items) committed through the
// batcher; their ratio is the achieved group size. Zero outside ModeNVM.
func (m *Manager) GroupCommitStats() (uint64, uint64) {
	if m.gc == nil {
		return 0, 0
	}
	return m.gc.Stats()
}
