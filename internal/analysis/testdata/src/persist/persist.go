// Package persist exercises publishcheck on the persist rule's basic
// shapes: publications and returns with pending writes, the flush/fence
// split, the waivers and their annotation, and summaries of in-package
// helpers.
package persist

import (
	"errors"
	"sync/atomic"

	"fix/nvm"
)

var errBoom = errors.New("boom")

var src = make([]byte, 16)

// publishDirty reproduces the publish-before-persist bug: the root is
// durably published while the block contents are still in the cache.
func publishDirty(h *nvm.Heap, p nvm.PPtr) {
	h.SetU64(p, 1)
	h.SetRoot(0, p) // want `Heap\.SetRoot publishes .* while its Heap\.SetU64 at .* is not persisted`
}

// publishClean is the corrected protocol: persist, then publish.
func publishClean(h *nvm.Heap, p nvm.PPtr) {
	h.SetU64(p, 1)
	h.Persist(p, 8)
	h.SetRoot(0, p)
}

// casDirty publishes through CAS with an unpersisted write pending.
func casDirty(h *nvm.Heap, p, q nvm.PPtr) {
	h.PutU64(q, 7)
	h.CasU64(p, 0, uint64(q)) // want `Heap\.CasU64 publishes .* while its Heap\.PutU64 at .* is not persisted`
}

// returnDirty leaks an unpersisted write out of the function.
func returnDirty(h *nvm.Heap, p nvm.PPtr) {
	h.PutU64(p, 2)
} // want `function returnDirty returns with unpersisted write to published`

// returnDirtyExplicit does the same through an explicit return.
func returnDirtyExplicit(h *nvm.Heap, p nvm.PPtr) uint64 {
	h.PutU32(p, 3)
	return 0 // want `function returnDirtyExplicit returns with unpersisted write to published`
}

// abortOnError must not be flagged: the error return aborts the
// construction, so the written block never becomes reachable.
func abortOnError(h *nvm.Heap, p nvm.PPtr) error {
	h.PutU64(p, 4)
	if p == 0 {
		return errBoom
	}
	h.Persist(p, 8)
	return nil
}

// copyDirty writes through a Heap.Bytes alias without a barrier.
func copyDirty(h *nvm.Heap, p nvm.PPtr) {
	b := h.Bytes(p, 16)
	copy(b, src)
} // want `function copyDirty returns with unpersisted write to published`

// copyClean persists the written alias before returning.
func copyClean(h *nvm.Heap, p nvm.PPtr) {
	b := h.Bytes(p, 16)
	copy(b, src)
	h.PersistBytes(b)
}

// vec is a stand-in for the pstruct vectors with a deferred-persist
// write path.
type vec struct{ h *nvm.Heap }

// SetNoPersist is the stub write; the analyzer classifies calls to it
// by name, so the inert stub body needs no annotation.
func (v *vec) SetNoPersist(i, val uint64) {}

// PersistAt is the matching barrier stub.
func (v *vec) PersistAt(i uint64) {}

// stampNoPersist defers the persist without declaring it.
func stampNoPersist(v *vec) {
	v.SetNoPersist(0, 1)
} // want `function stampNoPersist returns with unpersisted write to published`

// stampBatched declares the deferred persist with a reason.
//
//nvm:nopersist commit batches stamps and persists once per group
func stampBatched(v *vec) {
	v.SetNoPersist(0, 1)
}

// stampUnreasoned carries the annotation without the mandatory reason.
//
//nvm:nopersist
func stampUnreasoned(v *vec) { // want `//nvm:nopersist on stampUnreasoned must carry a reason`
	v.SetNoPersist(0, 1)
}

// stampSuppressed shows the generic line suppression with a reason.
func stampSuppressed(v *vec) {
	v.SetNoPersist(0, 1)
	//nvmcheck:ignore publishcheck fixture: caller persists the batch
}

// ---------------------------------------------------------------------------
// Flow-sensitive cases: facts join at merge points instead of events
// being scanned in source order.

// branchyClean persists through a different barrier on each branch;
// the join at the merge point is clean on both paths.
func branchyClean(h *nvm.Heap, p nvm.PPtr, wide bool) {
	if wide {
		h.PutU64(p, 1)
		h.Persist(p, 8)
	} else {
		h.PutU32(p, 2)
		h.PersistBytes(h.Bytes(p, 4))
	}
	h.SetRoot(0, p)
}

// crossBranchDirty writes on one path and persists only on the other;
// a source-order scan sees persist-after-write and misses it.
func crossBranchDirty(h *nvm.Heap, p nvm.PPtr, fast bool) {
	if fast {
		h.PutU64(p, 1)
	} else {
		h.Persist(p, 8)
	}
	h.SetRoot(0, p) // want `Heap\.SetRoot publishes .* while its Heap\.PutU64 at .* is not persisted`
}

// loopPublishDirty publishes at the top of each iteration after the
// previous iteration's unpersisted write — visible only via the loop
// back edge.
func loopPublishDirty(h *nvm.Heap, p nvm.PPtr, n int) {
	for i := 0; i < n; i++ {
		h.SetRoot(0, p) // want `Heap\.SetRoot publishes .* while its Heap\.PutU64 at .* is not persisted`
		h.PutU64(p, uint64(i))
	}
	h.Persist(p, 8)
}

// deferPersist flushes through a deferred barrier, which runs at the
// return, after the write it follows in source order.
func deferPersist(h *nvm.Heap, p nvm.PPtr) {
	defer h.Persist(p, 8)
	h.PutU64(p, 1)
}

// ---------------------------------------------------------------------------
// Interprocedural cases: persist summaries over the package callgraph.

// flush is a helper barrier: every path executes a persist, so a call
// to it discharges the caller's dirty writes.
func flush(h *nvm.Heap, p nvm.PPtr) {
	h.Persist(p, 8)
}

// stampViaHelper persists through the helper: no annotation needed.
func stampViaHelper(h *nvm.Heap, p nvm.PPtr) {
	h.PutU64(p, 1)
	flush(h, p)
}

// fill is a dirty helper: package-private with in-package callers, so
// its return-obligation transfers to the callers and it needs no
// annotation.
func fill(h *nvm.Heap, p nvm.PPtr) {
	h.PutU64(p, 1)
}

// buildClean discharges fill's writes before publishing.
func buildClean(h *nvm.Heap, p nvm.PPtr) {
	fill(h, p)
	h.Persist(p, 8)
	h.SetRoot(0, p)
}

// buildDirty publishes with fill's writes still volatile: the summary
// carries the helper's dirt to this call site.
func buildDirty(h *nvm.Heap, p nvm.PPtr) {
	fill(h, p)
	h.SetRoot(0, p) // want `Heap\.SetRoot publishes .* while its call of fill at .* is not persisted`
}

// SetStamp is exported and returns dirty: external callers can only
// learn the contract from the doc comment, so the annotation is
// mandatory.
//
//nvm:nopersist commit batches stamps and persists once per group
func SetStamp(h *nvm.Heap, p nvm.PPtr, val uint64) {
	h.SetU64(p, val)
}

// SetStampUndeclared is the same exported dirty contract without the
// annotation.
func SetStampUndeclared(h *nvm.Heap, p nvm.PPtr, val uint64) {
	h.SetU64(p, val)
} // want `function SetStampUndeclared returns with unpersisted write to published`

// stampOverDeclared carries an annotation the analysis proves inert:
// every return is clean, so the annotation is rot and is itself
// reported.
//
//nvm:nopersist stale claim, nothing stays dirty
func stampOverDeclared(h *nvm.Heap, p nvm.PPtr) { // want `//nvm:nopersist on stampOverDeclared is unnecessary`
	h.PutU64(p, 1)
	h.Persist(p, 8)
}

// poker and heapPoker give the rot report a write it sees only through
// interface dispatch.
type poker interface{ poke(p nvm.PPtr) }

type heapPoker struct{ h *nvm.Heap }

// poke is package-private with a static in-package caller (pokeDirect),
// so its own obligation transfers and it needs no annotation.
func (hp heapPoker) poke(p nvm.PPtr) {
	hp.h.PutU64(p, 9)
}

// pokeDirect is the static caller that discharges poke's write.
func pokeDirect(hp heapPoker, p nvm.PPtr) {
	hp.poke(p)
	hp.h.Persist(p, 8)
}

// StampDynamic stamps through the interface. The points-to layer
// resolves the dispatch and sees the dirty return, so the annotation is
// load-bearing and not reported as rot.
//
//nvm:nopersist callers persist the stamped batch once per group
func StampDynamic(h *nvm.Heap, p nvm.PPtr) {
	var pk poker = heapPoker{h: h}
	pk.poke(p)
}

// ---------------------------------------------------------------------------
// Flush/fence cases: the two-stage durability model of flash-backed
// NVDIMMs. Flush orders writes into the device queue; only a fence (or
// the drain, which is a fence plus device latency) makes them durable.

// flushNoFence orders the write into the queue but never fences: a
// crash can still lose it.
func flushNoFence(h *nvm.Heap, p nvm.PPtr) {
	h.SetU64(p, 1)
	h.Flush(p, 8)
} // want `function flushNoFence returns with flushed-but-unfenced write to published`

// flushFenceClean is the explicit split-barrier protocol: flush, then
// fence — together equivalent to Persist.
func flushFenceClean(h *nvm.Heap, p nvm.PPtr) {
	h.SetU64(p, 1)
	h.Flush(p, 8)
	h.Fence()
	h.SetRoot(0, p)
}

// drainClean uses the durability drain as the fence: Drain is a fence
// with device latency, so it discharges flushed writes the same way.
func drainClean(h *nvm.Heap, p nvm.PPtr) {
	h.SetU64(p, 1)
	h.Flush(p, 8)
	h.Drain()
	h.SetRoot(0, p)
}

// fenceWithoutFlush must not launder a raw dirty write: an sfence does
// not write back unflushed cache lines.
func fenceWithoutFlush(h *nvm.Heap, p nvm.PPtr) {
	h.SetU64(p, 1)
	h.Fence()
	h.SetRoot(0, p) // want `Heap\.SetRoot publishes .* while its Heap\.SetU64 at .* is not persisted`
}

// flushPublishDirty publishes between the flush and the fence: the
// write is ordered but not yet durable at the publish point.
func flushPublishDirty(h *nvm.Heap, p nvm.PPtr) {
	h.SetU64(p, 1)
	h.Flush(p, 8)
	h.SetRoot(0, p) // want `Heap\.SetRoot publishes .* while its Heap\.SetU64 at .* is flushed but not fenced`
	h.Fence()
}

// ---------------------------------------------------------------------------
// The group-commit leader/follower pattern: followers flush their own
// writes without fencing, and the leader issues one fence for the whole
// batch. The follower's summary carries "flushed, unfenced" to the
// leader, which must discharge it.

// followerFlush is the follower: flush without fence, caller owes the
// fence. Package-private with in-package callers, so the obligation
// transfers interprocedurally — no annotation needed.
func followerFlush(h *nvm.Heap, p nvm.PPtr, cid uint64) {
	h.SetU64(p, cid)
	h.Flush(p, 8)
}

// leaderCommit fences once for every follower's flushed writes.
func leaderCommit(h *nvm.Heap, ps []nvm.PPtr) {
	for i, p := range ps {
		followerFlush(h, p, uint64(i))
	}
	h.Fence()
	if len(ps) > 0 {
		h.SetRoot(0, ps[0])
	}
}

// leaderForgetsFence batches the followers but never fences: the
// flushed writes of the whole batch are still volatile at publish.
func leaderForgetsFence(h *nvm.Heap, root nvm.PPtr, ps []nvm.PPtr) {
	for i, p := range ps {
		followerFlush(h, p, uint64(i))
	}
	h.SetRoot(0, root) // want `Heap\.SetRoot publishes .* while its call of followerFlush at .* is flushed but not fenced`
}

// ---------------------------------------------------------------------------
// Constructors: a function allocates a block, writes it and hands it
// back. Nothing reaches the block yet, but the caller will link it, so
// it must be durable by then.

// Rec is the handle a constructor returns, holding its block.
type Rec struct {
	h    *nvm.Heap
	root nvm.PPtr
}

// NewRecDirty returns the block unpersisted: the caller links a torn
// record.
func NewRecDirty(h *nvm.Heap, v uint64) (*Rec, error) {
	root, err := h.Alloc(16)
	if err != nil {
		return nil, err
	}
	h.PutU64(root, v)
	return &Rec{h: h, root: root}, nil // want `function NewRecDirty returns with unpersisted write to returned block allocated at .* \(Heap\.PutU64 at .*\)`
}

// NewRec persists the block before it returns it.
func NewRec(h *nvm.Heap, v uint64) (*Rec, error) {
	root, err := h.Alloc(16)
	if err != nil {
		return nil, err
	}
	h.PutU64(root, v)
	h.Persist(root, 16)
	return &Rec{h: h, root: root}, nil
}

// NewRecChecked abandons the block after a partial write: the error
// return hands back nothing, and the scavenger reclaims the block.
func NewRecChecked(h *nvm.Heap, v uint64) (*Rec, error) {
	root, err := h.Alloc(16)
	if err != nil {
		return nil, err
	}
	h.PutU64(root, v)
	if v == 0 {
		return nil, errBoom
	}
	h.Persist(root, 16)
	return &Rec{h: h, root: root}, nil
}

// newRecLinked leaves the persist to its in-package caller.
func newRecLinked(h *nvm.Heap, v uint64) (*Rec, error) {
	root, err := h.Alloc(16)
	if err != nil {
		return nil, err
	}
	h.PutU64(root, v)
	return &Rec{h: h, root: root}, nil
}

// LinkRec persists the record newRecLinked wrote, then publishes it.
func LinkRec(h *nvm.Heap, v uint64) error {
	r, err := newRecLinked(h, v)
	if err != nil {
		return err
	}
	h.Persist(r.root, 16)
	h.SetRoot(0, r.root)
	return nil
}

// BuildRecDirty is a constructor split in two: it hands back the block
// its unexported builder wrote and never persisted, so the builder's
// obligation falls on it.
func BuildRecDirty(h *nvm.Heap, v uint64) (*Rec, error) {
	return buildRecDirty(h, v) // want `function BuildRecDirty returns with unpersisted write to returned block allocated at .* \(call of buildRecDirty at .*\)`
}

func buildRecDirty(h *nvm.Heap, v uint64) (*Rec, error) {
	root, err := h.Alloc(16)
	if err != nil {
		return nil, err
	}
	h.PutU64(root, v)
	return &Rec{h: h, root: root}, nil
}

// BuildRec is the same split with a builder that persists.
func BuildRec(h *nvm.Heap, v uint64) (*Rec, error) {
	return buildRec(h, v)
}

func buildRec(h *nvm.Heap, v uint64) (*Rec, error) {
	root, err := h.Alloc(16)
	if err != nil {
		return nil, err
	}
	h.PutU64(root, v)
	h.Persist(root, 16)
	return &Rec{h: h, root: root}, nil
}

// elems stores every element through writeElem, which writes through a
// PPtr parameter. putElem hands it its own parameter, so writeElem's
// summary also carries the type-shared PPtr extern that parameter is
// seeded with; SetElem hands it an element address and persists that,
// so it must not be charged with the extern.
type elems struct {
	h   *nvm.Heap
	len nvm.PPtr
	seg atomic.Uint64
}

func (e *elems) Grow() error {
	p, err := e.h.Alloc(64)
	if err != nil {
		return err
	}
	e.h.Persist(p, 64)
	e.seg.Store(uint64(p))
	return nil
}

func (e *elems) elem(i uint64) nvm.PPtr { return nvm.PPtr(e.seg.Load()).Add(8 * i) }

func (e *elems) writeElem(p nvm.PPtr, val uint64) { e.h.SetU64(p, val) }

func (e *elems) putElem(p nvm.PPtr, val uint64) {
	e.writeElem(p, val)
	e.h.Persist(p, 8)
}

func (e *elems) Append(val uint64) { e.putElem(e.elem(0), val) }

func (e *elems) SetElem(i, val uint64) {
	p := e.elem(i)
	e.writeElem(p, val)
	e.h.Persist(p, 8)
}

// SetElemMissed persists the length word, not the element the helper
// wrote.
func (e *elems) SetElemMissed(i, val uint64) {
	e.writeElem(e.elem(i), val)
	e.h.Persist(e.len, 8)
} // want `function SetElemMissed returns with unpersisted write to .* \(call of writeElem at .*\)`
