// Package shard implements the N-way hash-partitioned engine: a router
// over N independent core.Engines (one NVM heap, MVCC store, WAL and
// group-commit batcher each) sharing one global commit-ID clock. Rows
// route to a shard by hash of their first column; transactions writing
// one shard commit on that shard's ordinary group-commit path without
// 2PC, transactions writing several commit with two-phase commit against
// a coordinator NVM region. N = 1 is a fleet of one: same clock, same
// Open, same Begin; only the directory layout is special-cased. Restart fans shard recovery out across a worker pool, so
// restart-to-serve stays flat as shards are added — each shard's
// recovery is O(its in-flight writes), and they run concurrently.
package shard

import (
	"errors"
	"fmt"
	"io/fs"
	"sync"

	"hyrisenv/internal/nvm"
)

// Coordinator is the cross-shard commit authority: a small dedicated NVM
// heap holding durable {gtid -> cid} decision records and the persistent
// global-transaction-ID high-water mark. Its restart cost is O(decision
// slots) — a single fixed-size region scan — so the coordinator restarts
// instantly regardless of database size or shard count.
//
// Decision protocol (the 2PC commit point): Decide writes the slot's cid
// word, persists it, then writes the gtid word, persists it and drains.
// Under the 8-byte tear model the gtid store is atomic, so a decision is
// durably visible exactly when its gtid word is — a crash can never
// expose a slot whose gtid names one transaction and whose cid belongs
// to another. Forget zeroes the gtid word and persists before the slot
// can be reused, preserving that ordering for the next occupant.
type Coordinator struct {
	h *nvm.Heap

	mu        sync.Mutex
	root      nvm.PPtr
	slots     int
	free      []int          // volatile free-slot stack
	slotOf    map[uint64]int // gtid -> occupied slot
	decisions map[uint64]uint64

	nextGTID uint64
	highGTID uint64 // persisted reservation bound (exclusive)
}

const (
	coordHeapName = "coord.nvm"
	coordRootName = "2pc:coord"

	// Root block layout: the GTID high-water mark, the slot count, then
	// slots of {gtid, cid} pairs.
	coOffHighWater = 0
	coOffSlotCount = 8
	coOffSlots     = 16
	coSlotSize     = 16

	// Slot layout: cid is persisted first; the gtid word, persisted
	// second, publishes the decision (see Decide).
	coSlotGTID = 0
	coSlotCID  = 8

	// defaultCoordSlots bounds concurrently in-flight cross-shard
	// decisions (a decision lives only from its commit point until every
	// participant released its context).
	defaultCoordSlots = 1024

	// gtidBatch is the high-water reservation granularity: one persist
	// per gtidBatch allocations, and at most gtidBatch IDs skipped per
	// restart.
	gtidBatch = 4096
)

// ErrCoordFull means too many cross-shard commits are between their
// decision and their finish at once.
var ErrCoordFull = errors.New("shard: coordinator decision slots exhausted")

// openCoordinator creates or re-attaches the coordinator heap at path.
// shards is persisted in the root's aux word on creation and verified on
// re-open: a database partitioned N ways cannot be re-opened with a
// different N (the hash routing would scatter every table).
func openCoordinator(path string, shards int, opts ...nvm.Option) (*Coordinator, error) {
	h, err := nvm.Open(path, opts...)
	if errors.Is(err, fs.ErrNotExist) {
		h, err = nvm.Create(path, 1<<20, opts...)
	}
	if err != nil {
		return nil, err
	}
	c := &Coordinator{h: h, slotOf: map[uint64]int{}, decisions: map[uint64]uint64{}}
	if root, aux, ok := h.Root(coordRootName); ok {
		if int(aux) != shards {
			h.Close()
			return nil, fmt.Errorf("shard: database is partitioned %d ways, not %d", aux, shards)
		}
		c.root = root
		if err := c.recover(); err != nil {
			h.Close()
			return nil, err
		}
		return c, nil
	}
	c.slots = defaultCoordSlots
	root, err := h.Alloc(coOffSlots + uint64(c.slots)*coSlotSize)
	if err != nil {
		h.Close()
		return nil, err
	}
	h.PutU64(root.Add(coOffSlotCount), uint64(c.slots))
	h.Persist(root, coOffSlots) // header; slots are zero (free)
	if err := h.SetRoot(coordRootName, root, uint64(shards)); err != nil {
		h.Close()
		return nil, err
	}
	c.root = root
	for i := c.slots - 1; i >= 0; i-- {
		c.free = append(c.free, i)
	}
	return c, nil
}

// NextGTID allocates a globally unique transaction ID. IDs never repeat
// across restarts: allocation draws from a persistently reserved batch,
// and a restart resumes above the last reservation.
func (c *Coordinator) NextGTID() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.nextGTID >= c.highGTID {
		c.highGTID = c.nextGTID + gtidBatch
		c.h.PutU64(c.root.Add(coOffHighWater), c.highGTID)
		c.h.Persist(c.root.Add(coOffHighWater), 8)
		c.h.Drain()
	}
	c.nextGTID++
	return c.nextGTID
}

// Forget retires a decision once every participant has finished (their
// contexts no longer name gtid, so recovery will never ask about it).
// The gtid word is zeroed and persisted before the slot returns to the
// free list, so a reused slot can never pair a stale gtid with a new
// cid.
func (c *Coordinator) Forget(gtid uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	slot, ok := c.slotOf[gtid]
	if !ok {
		return
	}
	p := c.root.Add(coOffSlots + uint64(slot)*coSlotSize)
	c.h.PutU64(p.Add(coSlotGTID), 0)
	c.h.Persist(p.Add(coSlotGTID), 8)
	delete(c.slotOf, gtid)
	delete(c.decisions, gtid)
	c.free = append(c.free, slot)
}

// Lookup is the TwoPCDecider the shards' recovery consults for prepared
// contexts: it reports the decided cid for gtid, or commit=false
// (presumed abort) when no decision record exists.
func (c *Coordinator) Lookup(gtid uint64) (cid uint64, commit bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cid, ok := c.decisions[gtid]
	return cid, ok
}

// Decisions returns how many decision records are live.
func (c *Coordinator) Decisions() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.decisions)
}

// Clear forgets every decision record. Called after all shards finished
// recovery: each prepared context has been resolved and released, so no
// future restart can ask about these gtids.
func (c *Coordinator) Clear() {
	c.mu.Lock()
	gtids := make([]uint64, 0, len(c.decisions))
	for g := range c.decisions {
		gtids = append(gtids, g)
	}
	c.mu.Unlock()
	for _, g := range gtids {
		c.Forget(g)
	}
}

// Heap exposes the coordinator's NVM heap (crash testing, stats).
func (c *Coordinator) Heap() *nvm.Heap { return c.h }

// Close detaches the coordinator heap.
func (c *Coordinator) Close() error { return c.h.Close() }
