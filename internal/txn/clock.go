package txn

import (
	"sync"
	"sync/atomic"
)

// Clock is the commit-ID clock: one CID space across every Manager that
// shares it, so a single snapshot CID denotes one consistent cut through
// all of them. Every Manager owns a private one from construction; a
// shard fleet — of one or of many — swaps in a shared one (SetClock).
//
// Correctness rests on two invariants:
//
//   - Per-shard monotonicity. A Manager assigns CIDs (Next/NextN) while
//     holding its own commitMu, so the CIDs any one shard publishes are
//     strictly increasing in its commit order and the shard's persisted
//     lastCID remains the "everything at or below is durably stamped"
//     bound its recovery relies on. (The one
//     exception — cross-shard CIDs applied after later single-shard
//     commits — is covered by the 2PC prepared marker, which recovery
//     classifies before the lastCID rule; see twopc.go.)
//
//   - Watermark visibility. A CID becomes readable only once every CID
//     at or below it has published its stamps. Next registers the CID as
//     in-flight; Done retires it; Visible returns the largest CID with
//     no in-flight CID at or below it. Snapshots taken at Visible can
//     therefore never observe a half-published commit on any shard.
type Clock struct {
	mu       sync.Mutex
	last     uint64            // last assigned CID
	inflight map[uint64]uint64 // first CID -> count of consecutive CIDs
	visible  atomic.Uint64
}

// NewClock creates a clock whose next assigned CID is seed+1. Seed with
// the maximum lastCID across all shards (after recovery), so fresh CIDs
// can never collide with ones already stamped into any heap.
func NewClock(seed uint64) *Clock {
	c := &Clock{last: seed, inflight: make(map[uint64]uint64)}
	c.visible.Store(seed)
	return c
}

// Next assigns one CID. The caller must already hold its shard's commit
// mutex (see the monotonicity invariant) and must call Done exactly once
// after the commit is published — or abandoned.
func (c *Clock) Next() uint64 { return c.NextN(1) }

// NextN assigns n consecutive CIDs (a group-commit batch) and returns
// the first. Done must be called with the same (first, n).
func (c *Clock) NextN(n int) uint64 {
	c.mu.Lock()
	first := c.last + 1
	c.last += uint64(n)
	c.inflight[first] = uint64(n)
	c.mu.Unlock()
	return first
}

// Done retires an assignment made by NextN and advances the visibility
// watermark past every published prefix. Abandoned CIDs (a commit that
// errored after assignment) must be retired too: they stamp nothing, so
// a snapshot crossing them sees a harmless gap.
func (c *Clock) Done(first uint64, n int) {
	c.mu.Lock()
	delete(c.inflight, first)
	min := c.last + 1
	for f := range c.inflight {
		if f < min {
			min = f
		}
	}
	c.visible.Store(min - 1)
	c.mu.Unlock()
}

// Visible returns the snapshot horizon: the largest CID v such that
// every commit with CID <= v, on every shard, has published its stamps.
func (c *Clock) Visible() uint64 { return c.visible.Load() }

// SetClock replaces the manager's private clock with a shared one, seeded
// at or above this manager's lastCID. Attach before the manager commits
// anything — switching clocks mid-stream would break per-shard CID
// monotonicity.
func (m *Manager) SetClock(c *Clock) { m.clock = c }

// Clock returns the manager's CID clock.
func (m *Manager) Clock() *Clock { return m.clock }

// BeginSnapshot starts a transaction reading at exactly cid, without
// clamping to the horizon. A shard fleet uses it to pin every shard of
// one transaction to the same global snapshot: the clock watermark
// guarantees all stamps at or below cid are published on every shard,
// even where the local lastCID lags the global clock. writable parts
// participate in cross-shard commit; read-only parts never write.
func (m *Manager) BeginSnapshot(cid uint64, readOnly bool) *Txn {
	return &Txn{
		m:        m,
		tid:      m.nextTID.Add(1),
		snapCID:  cid,
		status:   StatusActive,
		readOnly: readOnly,
	}
}
