package txn

import (
	"errors"
	"fmt"
	"sync"

	"hyrisenv/internal/group"
	"hyrisenv/internal/mvcc"
	"hyrisenv/internal/nvm"
	"hyrisenv/internal/storage"
)

// Persistent transaction contexts (ModeNVM).
//
// During execution every write appends a {kind, table, row} entry to the
// transaction's NVM-resident context: a fixed-size block that belongs to
// one slot of a persistent directory and stays there from transaction to
// transaction, plus overflow blocks chained behind it while one
// transaction needs more entries than it holds. A context with a count
// of zero is idle. At commit the context receives the CID before any row
// stamp is persisted; the global lastCID is persisted after all stamps.
// Restart therefore classifies every context that counts entries
// unambiguously:
//
//	cid == 0            — never reached commit; nothing stamped.
//	0 < cid <= lastCID  — durably committed; stamps are all persisted.
//	cid > lastCID       — commit was in flight; stamps may be partial
//	                      and are reset (begin→Inf for inserts,
//	                      end→Inf for invalidations).
//
// Undo touches only the rows listed in live contexts, so restart cost is
// proportional to in-flight writes — the size-independence the paper
// demonstrates.
//
// An entry is written in the two halves of package pstruct: staged past
// the count and flushed, then, after a fence, counted. An insert's entry
// rides the two fences of its row append (storage.Table.AppendRowLogged);
// an invalidation's entry is fenced here and its count rides the next
// fence — the next write's or commit's first — which is early enough,
// since the stamp the entry would undo is written after that fence.
// Retiring a context zeroes the count under one fence and leaves the
// CID behind: an idle context's CID means nothing. The next transaction
// to take the context zeroes the CID in the stage half of its first
// entry, before the fence that precedes the count — a count that met a
// stale prepared marker would make restart ask the coordinator about the
// wrong transaction. A committed transaction does not retire its own
// context: its commit point — the lastCID drain — is the last barrier of
// Commit, so an acknowledgement follows it without another fence in
// between, and restart classifies what it leaves (count > 0, cid <=
// lastCID) as done. The next transaction to take the slot retires the
// context before its first entry; aborts and two-phase finishes, which
// leave states restart would act on, retire at once.

const (
	// defaultTxnSlots sizes the persistent context directory of a fresh
	// heap — the cap on concurrent writing transactions. Sized for the
	// serving path, where 1000+ pipelined connections can all be inside
	// a writing transaction at once.
	defaultTxnSlots = 4096

	// Commit root block: lastCID u64 | slot[numSlots] u64. The slot
	// count is recorded in the commit root's aux word.
	crOffLastCID = 0
	crOffSlots   = 8

	// Context block: count u64 | next u64 | cid u64 | pad u64 | entries.
	// The 16-byte records — count with next, and each entry — lie on
	// 16-byte boundaries, so none straddles a cache line and costs a
	// second flushed line.
	pcOffCount   = 0
	pcOffNext    = 8
	pcOffCID     = 16
	pcOffEntries = 32
	pcBlockSize  = 512
	pcEntriesMax = (pcBlockSize - pcOffEntries) / 16

	kindInsertEntry     = 1
	kindInvalidateEntry = 2
)

// ErrTooManyTxns is returned when all persistent context slots are taken.
var ErrTooManyTxns = errors.New("txn: too many concurrent writing transactions")

// commitRootName is the heap root anchoring the commit state.
const commitRootName = "txn:commitroot"

// pctxHandle is a transaction's hold on its context: head is nil until
// the first write. The next entry goes to tail at index tailCount.
type pctxHandle struct {
	head      nvm.PPtr
	tail      nvm.PPtr
	tailCount uint64
	slot      int
}

type slotPool struct {
	mu   sync.Mutex
	free []int
}

func (p *slotPool) get() (int, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.free) == 0 {
		return 0, false
	}
	s := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	return s, true
}

func (p *slotPool) put(s int) {
	p.mu.Lock()
	p.free = append(p.free, s)
	p.mu.Unlock()
}

// TableResolver maps persistent table IDs to open tables during restart.
type TableResolver func(tableID uint32) *storage.Table

// OpenNVMManager creates or re-attaches the ModeNVM transaction manager
// on heap h. On re-attach it runs the in-flight transaction fixup —
// the *only* data-dependent work of a Hyrise-NV restart. Prepared 2PC
// contexts are presumed aborted; a sharded engine passes its
// coordinator's decider via OpenNVMManagerDecider instead. The returned
// stats hold the fixup's counters only.
func OpenNVMManager(h *nvm.Heap, resolve TableResolver) (*Manager, RecoveryStats, error) {
	return OpenNVMManagerDecider(h, resolve, nil)
}

// OpenNVMManagerDecider is OpenNVMManager with a 2PC decider consulted
// for prepared contexts (see TwoPCDecider; nil presumes abort).
func OpenNVMManagerDecider(h *nvm.Heap, resolve TableResolver, decide TwoPCDecider) (*Manager, RecoveryStats, error) {
	var stats RecoveryStats
	m := &Manager{mode: ModeNVM, h: h}
	m.nextTID.Store(1)
	m.gc = group.New[*Txn](maxGroup, m.CommitGroup)

	root, aux, ok := h.Root(commitRootName)
	switch {
	case !ok:
		m.numSlots = defaultTxnSlots
		crSize := uint64(8 + m.numSlots*8)
		var err error
		root, err = h.Alloc(crSize)
		if err != nil {
			return nil, stats, err
		}
		for i := 0; i < m.numSlots+1; i++ {
			h.PutU64(root.Add(uint64(i)*8), 0)
		}
		h.Persist(root, crSize)
		if err := h.SetRoot(commitRootName, root, uint64(m.numSlots)); err != nil {
			return nil, stats, err
		}
	case aux == 0:
		// Every heap format nvm.Open accepts records the slot count.
		return nil, stats, fmt.Errorf("txn: commit root %q records no context slot count", commitRootName)
	default:
		m.numSlots = int(aux)
	}
	m.pRoot = root
	lastCID := h.U64(root.Add(crOffLastCID))
	m.lastCID.Store(lastCID)

	// Restart fixup: resolve every live context. The prepared-bit check
	// runs BEFORE the lastCID classification: a decided cross-shard cid
	// may lie below this shard's lastCID with its stamps only partially
	// persisted, so "cid <= lastCID means fully stamped" does not apply
	// to prepared contexts — their truth lives in the coordinator.
	m.slots = &slotPool{}
	maxRedone := uint64(0)
	for i := 0; i < m.numSlots; i++ {
		m.slots.free = append(m.slots.free, i)
		head := nvm.PPtr(h.U64(root.Add(crOffSlots + uint64(i)*8)))
		if head.IsNil() {
			continue
		}
		if h.U64(head.Add(pcOffCount)) > 0 {
			cid := h.U64(head.Add(pcOffCID))
			switch {
			case cid&prepareBit != 0:
				stats.LiveContexts++
				gtid := cid &^ prepareBit
				var dcid uint64
				var commit bool
				if decide != nil {
					dcid, commit = decide(gtid)
				}
				if commit {
					stats.Committed2PC++
					n, err := m.redoContext(head, resolve, dcid)
					if err != nil {
						return nil, stats, err
					}
					stats.EntriesRedone += n
					if dcid > maxRedone {
						maxRedone = dcid
					}
				} else {
					stats.Aborted2PC++
					stats.InFlightRolledBack++
					n, err := m.undoContext(head, resolve)
					if err != nil {
						return nil, stats, err
					}
					stats.EntriesUndone += n
				}
			case cid != 0 && cid <= lastCID:
				stats.CommittedDone++
			default:
				stats.LiveContexts++
				stats.InFlightRolledBack++
				n, err := m.undoContext(head, resolve)
				if err != nil {
					return nil, stats, err
				}
				stats.EntriesUndone += n
			}
		}
		// An idle context, too, may carry the overflow chain of a
		// retirement the crash cut short.
		m.retireContext(head)
	}
	if maxRedone > lastCID {
		// Redone commits must sit at or below the shard's horizon, both
		// so fresh local snapshots see them and so the shared clock —
		// seeded from the maximum lastCID across shards — can never hand
		// their cid out again.
		h.SetU64(root.Add(crOffLastCID), maxRedone)
		h.Flush(root.Add(crOffLastCID), 8)
		h.Drain()
		m.lastCID.Store(maxRedone)
	}
	m.clock = NewClock(m.lastCID.Load())
	return m, stats, nil
}

// undoContext resets the row stamps listed in the context chain.
func (m *Manager) undoContext(head nvm.PPtr, resolve TableResolver) (int, error) {
	h := m.h
	undone := 0
	for blk := head; !blk.IsNil(); blk = nvm.PPtr(h.U64(blk.Add(pcOffNext))) {
		count := h.U64(blk.Add(pcOffCount))
		if count > pcEntriesMax {
			return undone, fmt.Errorf("txn: corrupt context block (count %d)", count)
		}
		for e := uint64(0); e < count; e++ {
			meta := h.U64(blk.Add(pcOffEntries + e*16))
			row := h.U64(blk.Add(pcOffEntries + e*16 + 8))
			kind := meta >> 32
			tableID := uint32(meta)
			tbl := resolve(tableID)
			if tbl == nil {
				return undone, fmt.Errorf("txn: context references unknown table %d", tableID)
			}
			if row >= tbl.Rows() {
				// The row append itself was torn away by the table-level
				// restart fixup; nothing to undo.
				continue
			}
			switch kind {
			case kindInsertEntry:
				tbl.StampBegin(row, mvcc.Inf)
			case kindInvalidateEntry:
				tbl.StampEnd(row, mvcc.Inf)
			default:
				return undone, fmt.Errorf("txn: corrupt context entry kind %d", kind)
			}
			undone++
		}
	}
	return undone, nil
}

func (m *Manager) freeChain(head nvm.PPtr) {
	h := m.h
	for !head.IsNil() {
		next := nvm.PPtr(h.U64(head.Add(pcOffNext)))
		h.Free(head)
		head = next
	}
}

// newPctxBlock allocates and persists an empty context block.
func (m *Manager) newPctxBlock() (nvm.PPtr, error) {
	blk, err := m.h.Alloc(pcBlockSize)
	if err != nil {
		return 0, err
	}
	m.h.PutU64(blk.Add(pcOffCID), 0)
	m.h.PutU64(blk.Add(pcOffCount), 0)
	m.h.PutU64(blk.Add(pcOffNext), 0)
	m.h.Persist(blk, pcOffEntries)
	return blk, nil
}

// pctxAcquire gives t a context on its first write: a free slot and the
// block that lives in it, allocated and linked the first time the slot
// is used and kept from then on.
func (m *Manager) pctxAcquire(t *Txn) error {
	slot, ok := m.slots.get()
	if !ok {
		return ErrTooManyTxns
	}
	slotP := m.pRoot.Add(crOffSlots + uint64(slot)*8)
	blk := nvm.PPtr(m.h.U64(slotP))
	if blk.IsNil() {
		var err error
		if blk, err = m.newPctxBlock(); err != nil {
			m.slots.put(slot)
			return err
		}
		m.h.SetU64(slotP, uint64(blk))
		m.h.Persist(slotP, 8)
	}
	// The previous holder, if it committed, left its entries counted.
	m.retireContext(blk)
	if m.h.U64(blk.Add(pcOffCID)) != 0 {
		// And its CID; flushed here, fenced with the entry that follows,
		// so durably zero before the context counts again.
		m.h.SetU64(blk.Add(pcOffCID), 0)
		m.h.Flush(blk.Add(pcOffCID), 8)
	}
	t.pctx = pctxHandle{head: blk, tail: blk, slot: slot}
	return nil
}

// pctxStage is the stage half of recording a write: it writes the entry
// past the context's count and flushes it. The entry counts — restart
// acts on it — only after pctxPublish, which the caller separates from
// this by a fence.
func (m *Manager) pctxStage(t *Txn, kind writeKind, tableID uint32, row uint64) error {
	h := m.h
	if t.pctx.head.IsNil() {
		if err := m.pctxAcquire(t); err != nil {
			return err
		}
	}
	if t.pctx.tailCount == pcEntriesMax {
		blk, err := m.newPctxBlock()
		if err != nil {
			return err
		}
		nextP := t.pctx.tail.Add(pcOffNext)
		h.SetU64(nextP, uint64(blk))
		h.Persist(nextP, 8)
		t.pctx.tail = blk
		t.pctx.tailCount = 0
	}
	var k uint64
	switch kind {
	case writeInsert:
		k = kindInsertEntry
	case writeInvalidate:
		k = kindInvalidateEntry
	}
	e := t.pctx.tail.Add(pcOffEntries + t.pctx.tailCount*16)
	h.PutU64(e, k<<32|uint64(tableID))
	h.PutU64(e.Add(8), row)
	h.Flush(e, 16)
	return nil
}

// pctxPublish is the publish half of recording a write: the count covers
// the staged entry, and its line is flushed for the caller's next fence.
func (m *Manager) pctxPublish(t *Txn) {
	t.pctx.tailCount++
	cp := t.pctx.tail.Add(pcOffCount)
	m.h.SetU64(cp, t.pctx.tailCount)
	m.h.Flush(cp, 8)
}

// rowLog rides a row append with the inserting transaction's undo record
// (see storage.RowLog): one entry staged and published under the row's
// two fences.
type rowLog struct{ t *Txn }

// StageRow implements storage.RowLog.
func (l rowLog) StageRow(tbl *storage.Table, row uint64) error {
	return l.t.m.pctxStage(l.t, writeInsert, tbl.ID, row)
}

// PublishRow implements storage.RowLog.
//
//nvm:nopersist publish half: the count is flushed, not fenced; the row append's second fence covers it
func (l rowLog) PublishRow() { l.t.m.pctxPublish(l.t) }

// UnstageRow has nothing to take back: an entry past the count is not
// part of the context.
func (l rowLog) UnstageRow() {}

// pctxInvalidate records that t invalidates row of tbl: the entry under a
// fence of its own, the count riding the next one (see the comment at the
// top of the file).
func (m *Manager) pctxInvalidate(t *Txn, tbl *storage.Table, row uint64) error {
	if err := m.pctxStage(t, writeInvalidate, tbl.ID, row); err != nil {
		return err
	}
	m.h.Fence()
	m.pctxPublish(t)
	return nil
}

// pctxSetCID marks the context as committing with cid (or, at Prepare,
// as prepared) and flushes the CID line without fencing: the caller
// issues the barrier that orders it.
func (m *Manager) pctxSetCID(t *Txn, cid uint64) {
	if t.pctx.head.IsNil() {
		return
	}
	p := t.pctx.head.Add(pcOffCID)
	m.h.SetU64(p, cid)
	m.h.Flush(p, 8)
}

// retireContext makes the context at head idle — a count of zero, under
// one fence — and frees its overflow blocks, which the same fence cut
// off first.
func (m *Manager) retireContext(head nvm.PPtr) {
	h := m.h
	over := nvm.PPtr(h.U64(head.Add(pcOffNext)))
	if h.U64(head.Add(pcOffCount)) != 0 || !over.IsNil() {
		h.SetU64(head.Add(pcOffCount), 0)
		h.SetU64(head.Add(pcOffNext), 0)
		h.Persist(head.Add(pcOffCount), 16)
	}
	m.freeChain(over)
}

// releasePctx retires t's persistent context and returns its slot.
func (m *Manager) releasePctx(t *Txn) {
	if m.mode != ModeNVM || t.pctx.head.IsNil() {
		return
	}
	m.retireContext(t.pctx.head)
	m.parkPctx(t)
}

// parkPctx returns the slot of t's context without retiring it, after a
// commit whose CID lastCID durably covers: restart takes the context for
// done, and the slot's next holder retires it (pctxAcquire).
func (m *Manager) parkPctx(t *Txn) {
	if t.pctx.head.IsNil() {
		return
	}
	m.slots.put(t.pctx.slot)
	t.pctx = pctxHandle{}
}

// Blocks yields the heap blocks owned by the transaction manager: the
// commit root and every slot's context block, with its overflow chain
// while a transaction has one (ModeNVM).
func (m *Manager) Blocks(yield func(nvm.PPtr)) {
	if m.mode != ModeNVM {
		return
	}
	yield(m.pRoot)
	for i := 0; i < m.numSlots; i++ {
		blk := nvm.PPtr(m.h.U64(m.pRoot.Add(crOffSlots + uint64(i)*8)))
		for ; !blk.IsNil(); blk = nvm.PPtr(m.h.U64(blk.Add(pcOffNext))) {
			yield(blk)
		}
	}
}
