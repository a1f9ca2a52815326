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
// transaction's NVM-resident context, a chain of fixed-size blocks
// registered in a persistent directory. At commit the context receives
// the CID before any row stamp is persisted; the global lastCID is
// persisted after all stamps. Restart therefore classifies every context
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

const (
	// defaultTxnSlots sizes the persistent context directory of a fresh
	// heap — the cap on concurrent writing transactions. Sized for the
	// serving path, where 1000+ pipelined connections can all be inside
	// a writing transaction at once. Heaps written before the directory
	// became sized (root aux 0) carry legacyTxnSlots.
	defaultTxnSlots = 4096
	legacyTxnSlots  = 256

	// Commit root block: lastCID u64 | slot[numSlots] u64. The slot
	// count is recorded in the commit root's aux word.
	crOffLastCID = 0
	crOffSlots   = 8

	// Context block: cid u64 | count u64 | next u64 | entries.
	pcOffCID     = 0
	pcOffCount   = 8
	pcOffNext    = 16
	pcOffEntries = 24
	pcBlockSize  = 512
	pcEntriesMax = (pcBlockSize - pcOffEntries) / 16

	kindInsertEntry     = 1
	kindInvalidateEntry = 2
)

// ErrTooManyTxns is returned when all persistent context slots are taken.
var ErrTooManyTxns = errors.New("txn: too many concurrent writing transactions")

// commitRootName is the heap root anchoring the commit state.
const commitRootName = "txn:commitroot"

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

// NVMRecoveryStats reports the (tiny) amount of restart work performed.
type NVMRecoveryStats struct {
	LiveContexts  int // contexts found in the directory
	CommittedDone int // contexts that were already durably committed
	RolledBack    int // in-flight transactions undone
	EntriesUndone int // row stamps reset
	Committed2PC  int // prepared contexts redone from a commit decision
	Aborted2PC    int // prepared contexts undone by presumed abort
	EntriesRedone int // row stamps re-applied from decided contexts
}

// OpenNVMManager creates or re-attaches the ModeNVM transaction manager
// on heap h. On re-attach it runs the in-flight transaction fixup —
// the *only* data-dependent work of a Hyrise-NV restart. Prepared 2PC
// contexts are presumed aborted; a sharded engine passes its
// coordinator's decider via OpenNVMManagerDecider instead.
func OpenNVMManager(h *nvm.Heap, resolve TableResolver) (*Manager, NVMRecoveryStats, error) {
	return OpenNVMManagerDecider(h, resolve, nil)
}

// OpenNVMManagerDecider is OpenNVMManager with a 2PC decider consulted
// for prepared contexts (see TwoPCDecider; nil presumes abort).
func OpenNVMManagerDecider(h *nvm.Heap, resolve TableResolver, decide TwoPCDecider) (*Manager, NVMRecoveryStats, error) {
	var stats NVMRecoveryStats
	m := &Manager{mode: ModeNVM, h: h}
	m.nextTID.Store(1)
	m.gc = group.New[*Txn](maxGroup, m.CommitGroup)

	root, aux, ok := h.Root(commitRootName)
	if !ok {
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
	} else {
		m.numSlots = legacyTxnSlots
		if aux != 0 {
			m.numSlots = int(aux)
		}
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
		slotP := root.Add(crOffSlots + uint64(i)*8)
		head := nvm.PPtr(h.U64(slotP))
		if !head.IsNil() {
			stats.LiveContexts++
			cid := h.U64(head.Add(pcOffCID))
			switch {
			case cid&prepareBit != 0:
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
					stats.RolledBack++
					n, err := m.undoContext(head, resolve)
					if err != nil {
						return nil, stats, err
					}
					stats.EntriesUndone += n
				}
			case cid != 0 && cid <= lastCID:
				stats.CommittedDone++
			default:
				stats.RolledBack++
				n, err := m.undoContext(head, resolve)
				if err != nil {
					return nil, stats, err
				}
				stats.EntriesUndone += n
			}
			h.SetU64(slotP, 0)
			h.Persist(slotP, 8)
			m.freeChain(head)
		}
		m.slots.free = append(m.slots.free, i)
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

// pctxRecord appends op to t's persistent context, creating and
// registering the context on the first write.
func (m *Manager) pctxRecord(t *Txn, op writeOp) error {
	h := m.h
	if t.pctx.head.IsNil() {
		blk, err := m.newPctxBlock()
		if err != nil {
			return err
		}
		slot, ok := m.slots.get()
		if !ok {
			h.Free(blk)
			return ErrTooManyTxns
		}
		slotP := m.pRoot.Add(crOffSlots + uint64(slot)*8)
		h.SetU64(slotP, uint64(blk))
		h.Persist(slotP, 8)
		t.pctx = pctxHandle{head: blk, tail: blk, tailCount: 0, slot: slot}
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
	var kind uint64
	switch op.kind {
	case writeInsert:
		kind = kindInsertEntry
	case writeInvalidate:
		kind = kindInvalidateEntry
	}
	e := t.pctx.tail.Add(pcOffEntries + t.pctx.tailCount*16)
	h.PutU64(e, kind<<32|uint64(op.table.ID))
	h.PutU64(e.Add(8), op.row)
	h.Persist(e, 16)
	t.pctx.tailCount++
	cp := t.pctx.tail.Add(pcOffCount)
	h.SetU64(cp, t.pctx.tailCount)
	h.Persist(cp, 8)
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

// releasePctx unregisters and recycles t's persistent context.
func (m *Manager) releasePctx(t *Txn) {
	if m.mode != ModeNVM || t.pctx.head.IsNil() {
		return
	}
	slotP := m.pRoot.Add(crOffSlots + uint64(t.pctx.slot)*8)
	m.h.SetU64(slotP, 0)
	m.h.Persist(slotP, 8)
	m.freeChain(t.pctx.head)
	m.slots.put(t.pctx.slot)
	t.pctx = pctxHandle{}
}

// Blocks yields the heap blocks owned by the transaction manager: the
// commit root and every live context chain (ModeNVM).
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
