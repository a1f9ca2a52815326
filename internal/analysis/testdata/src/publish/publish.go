// Package publish exercises the publishcheck analyzer: alias-aware
// publish-before-persist checking over the points-to heap model. The
// dirty writes flow through a pointer alias, a slice element, an
// interface method or a stored function value, none of which a checker
// of named variables and static calls can see.
package publish

import (
	"fix/nvm"
	"fix/pstruct"
)

var src = make([]byte, 16)

// ---------------------------------------------------------------------------
// Store-publication: linking a dirty block into an already-published
// structure is as fatal as SetRoot'ing it.

// linkDirty allocates a block, writes it through a Bytes alias and
// links it into the published parent without a persist: recovery can
// follow parent -> child to torn bytes.
func linkDirty(h *nvm.Heap, parent nvm.PPtr) {
	child, _ := h.Alloc(64)
	b := h.Bytes(child, 64)
	copy(b, src)
	h.SetU64(parent, uint64(child)) // want `Heap\.SetU64 publishes block allocated at .* while its copy into Heap\.Bytes at .* is not persisted`
	h.Persist(parent, 8)
}

// linkClean persists the child before linking: the correct protocol.
func linkClean(h *nvm.Heap, parent nvm.PPtr) {
	child, _ := h.Alloc(64)
	b := h.Bytes(child, 64)
	copy(b, src)
	h.PersistBytes(b)
	h.SetU64(parent, uint64(child))
	h.Persist(parent, 8)
}

// aliasDirty writes through a *derived* slice (c := b): the points-to
// graph knows c and b are the same block.
func aliasDirty(h *nvm.Heap, parent nvm.PPtr) {
	child, _ := h.Alloc(64)
	b := h.Bytes(child, 64)
	c := b
	copy(c, src)
	h.SetU64(parent, uint64(child)) // want `Heap\.SetU64 publishes block allocated at .* while its copy into Heap\.Bytes at .* is not persisted`
	h.Persist(parent, 8)
}

// aliasClean persists through one alias what was written through the
// other — only alias-awareness avoids a false positive here.
func aliasClean(h *nvm.Heap, parent nvm.PPtr) {
	child, _ := h.Alloc(64)
	b := h.Bytes(child, 64)
	c := b
	copy(c, src)
	h.PersistBytes(b)
	h.SetU64(parent, uint64(child))
	h.Persist(parent, 8)
}

// ---------------------------------------------------------------------------
// SetRoot publication through a pointer round-trip.

// rootDirty publishes a freshly built block whose bytes are still in
// cache.
func rootDirty(h *nvm.Heap) {
	p, _ := h.Alloc(32)
	h.PutU64(p, 7)
	h.SetRoot(0, p) // want `Heap\.SetRoot publishes block allocated at .* while its Heap\.PutU64 at .* is not persisted`
}

// rootClean is the corrected protocol.
func rootClean(h *nvm.Heap) {
	p, _ := h.Alloc(32)
	h.PutU64(p, 7)
	h.Persist(p, 8)
	h.SetRoot(0, p)
}

// chainDirty links a dirty child into a parent that the function later
// publishes: the published-object fact is flow-insensitive, so the
// linking store is already a publication and carries the report — the
// reachability closure, not the published pointer itself, holds the
// pending write.
func chainDirty(h *nvm.Heap) {
	parent, _ := h.Alloc(16)
	child, _ := h.Alloc(16)
	h.PutU64(child, 9)
	h.SetU64(parent, uint64(child)) // want `Heap\.SetU64 publishes block allocated at .* while its Heap\.PutU64 at .* is not persisted`
	h.Persist(parent, 16)
	h.SetRoot(0, parent)
}

// ---------------------------------------------------------------------------
// Slice-element publication: the dirty block's pointer rides in a
// slice element, a location no variable names.

// elemDirty stashes the dirty block's pointer in a slice, publishes it
// from the element.
func elemDirty(h *nvm.Heap, parent nvm.PPtr) {
	blocks := make([]nvm.PPtr, 0, 4)
	p, _ := h.Alloc(32)
	h.PutU64(p, 1)
	blocks = append(blocks, p)
	h.SetU64(parent, uint64(blocks[0])) // want `Heap\.SetU64 publishes block allocated at .* while its Heap\.PutU64 at .* is not persisted`
	h.Persist(parent, 8)
}

// elemClean persists before the element-borne publication.
func elemClean(h *nvm.Heap, parent nvm.PPtr) {
	blocks := make([]nvm.PPtr, 0, 4)
	p, _ := h.Alloc(32)
	h.PutU64(p, 1)
	h.Persist(p, 8)
	blocks = append(blocks, p)
	h.SetU64(parent, uint64(blocks[0]))
	h.Persist(parent, 8)
}

// ---------------------------------------------------------------------------
// Interface dispatch: the dirty write happens inside a concrete method
// called through an interface — no static call edge exists.

type filler interface {
	fill(h *nvm.Heap, p nvm.PPtr)
}

type rawFiller struct{}

// fill dirties the block through the interface.
func (rawFiller) fill(h *nvm.Heap, p nvm.PPtr) {
	h.PutU64(p, 42)
}

type persistedFiller struct{}

func (persistedFiller) fill(h *nvm.Heap, p nvm.PPtr) {
	h.PutU64(p, 42)
	h.Persist(p, 8)
}

// ifaceDirty publishes after a dirtying interface call.
func ifaceDirty(h *nvm.Heap) {
	var f filler = rawFiller{}
	p, _ := h.Alloc(16)
	f.fill(h, p)
	h.SetRoot(0, p) // want `Heap\.SetRoot publishes block allocated at .* while its call of fill at .* is not persisted`
}

// ifaceClean publishes after a persisting interface call: resolving
// the dispatch proves the barrier, so no annotation is needed.
func ifaceClean(h *nvm.Heap) {
	var f filler = persistedFiller{}
	p, _ := h.Alloc(16)
	f.fill(h, p)
	h.SetRoot(0, p)
}

// ---------------------------------------------------------------------------
// Group commit through a stored function value: the follower flushes
// without fencing; the leader owes the fence before publishing. The
// call goes through a function-typed field.

type committer struct {
	h *nvm.Heap
	// stamp is the follower routine, installed at setup time.
	stamp func(h *nvm.Heap, p nvm.PPtr)
}

// followerFlush flushes its write without a fence: the leader owes the
// fence for the batch.
func followerFlush(h *nvm.Heap, p nvm.PPtr) {
	h.SetU64(p, 1)
	h.Flush(p, 8)
}

func newCommitter(h *nvm.Heap) *committer {
	return &committer{h: h, stamp: followerFlush}
}

// leaderCommit fences the follower's flushed writes before publishing.
func leaderCommit(h *nvm.Heap, p nvm.PPtr) {
	c := newCommitter(h)
	c.stamp(c.h, p)
	c.h.Fence()
	c.h.SetRoot(0, p)
}

// leaderForgetsFence publishes the batch with the follower's writes
// still sitting in the write queue.
func leaderForgetsFence(h *nvm.Heap, p nvm.PPtr) {
	c := newCommitter(h)
	c.stamp(c.h, p)
	c.h.SetRoot(0, p) // want `Heap\.SetRoot publishes .* while its call of followerFlush at .* is flushed but not fenced`
}

// ---------------------------------------------------------------------------
// Return-with-dirty-published-object and the waiver rules.

// StampExported writes a published block and returns without a barrier
// or an annotation: external callers cannot know the contract.
func StampExported(h *nvm.Heap, p nvm.PPtr, v uint64) {
	h.SetU64(p, v)
} // want `function StampExported returns with unpersisted write to published`

// StampBatched declares the deferred persist.
//
//nvm:nopersist callers batch stamps and persist the group once
func StampBatched(h *nvm.Heap, p nvm.PPtr, v uint64) {
	h.SetU64(p, v)
}

// stampHelper is package-private with an in-package caller: the
// obligation transfers to the caller through the summary.
func stampHelper(h *nvm.Heap, p nvm.PPtr) {
	h.SetU64(p, 5)
}

// callerPersists discharges the helper's dirt.
func callerPersists(h *nvm.Heap, p nvm.PPtr) {
	stampHelper(h, p)
	h.Persist(p, 8)
}

// callerPublishesDirty publishes with the helper's object still dirty.
func callerPublishesDirty(h *nvm.Heap, p nvm.PPtr) {
	stampHelper(h, p)
	h.SetRoot(0, p) // want `Heap\.SetRoot publishes .* while its call of stampHelper at .* is not persisted`
}

// abortOnError keeps the error-return exemption: the construction is
// abandoned, nothing becomes reachable.
func abortOnError(h *nvm.Heap, p nvm.PPtr, bad bool) error {
	h.PutU64(p, 4)
	if bad {
		return errAbort
	}
	h.Persist(p, 8)
	return nil
}

var errAbort = errorString("abort")

type errorString string

func (e errorString) Error() string { return string(e) }

// ---------------------------------------------------------------------------
// The two-half mutation protocol across a package boundary: Stage*
// leaves staged lines flushed and unfenced, Publish* publishes them and
// leaves the publish words flushed and unfenced, one fence settles
// either.

type column struct {
	h     *nvm.Heap
	av    *pstruct.Vector
	dict  *pstruct.Vector
	arena *pstruct.Arena
}

// appendTwoFences is the correct schedule over several structures:
// stage all, fence, publish all, fence.
func appendTwoFences(c *column, v uint64) error {
	if _, err := c.arena.Alloc(16); err != nil {
		return err
	}
	if _, err := c.dict.StageAppend(v); err != nil {
		return err
	}
	if _, err := c.av.StageAppend(v); err != nil {
		return err
	}
	c.h.Fence()
	c.dict.Publish()
	c.av.Publish()
	c.h.Fence()
	return nil
}

// publishBeforeStageFence makes the staged element reachable before the
// fence that makes it durable.
func publishBeforeStageFence(c *column, v uint64) {
	c.av.StageAppend(v)
	c.av.Publish() // want `call of Publish publishes lines staged for publication while its call of StageAppend at .* is flushed but not fenced`
	c.h.Fence()
	c.h.Fence()
}

// publishOverArenaBytes links into arena space whose cursor is still in
// the write queue.
func publishOverArenaBytes(c *column) {
	c.arena.Alloc(32)
	c.av.Publish() // want `call of Publish publishes lines staged for publication while its call of Alloc at .* is flushed but not fenced`
	c.h.Fence()
}

// stageOnly leaves staged lines unfenced at return: nothing reaches
// them, so that is not a finding.
func stageOnly(c *column, v uint64) {
	c.av.StageAppend(v)
	_ = c.av.Len()
}

// PublishNoFence returns with the publish word still in the write
// queue and no contract saying who fences it.
func PublishNoFence(c *column) {
	c.av.Publish()
} // want `function PublishNoFence returns with flushed-but-unfenced write to published publish words`

// PublishHalf is a publish half of a higher layer: the contract is in
// its annotation.
//
//nvm:nopersist publish half: the caller's second fence covers the length word
func PublishHalf(c *column) {
	c.av.Publish()
}

// stageHelper and publishHelper compose through summaries: the caller
// fences between them.
func stageHelper(c *column, v uint64) { c.av.StageAppend(v) }

func publishHelper(c *column) { c.av.Publish() }

func appendThroughHelpers(c *column, v uint64) {
	stageHelper(c, v)
	c.h.Fence()
	publishHelper(c)
	c.h.Fence()
}

func appendThroughHelpersEarly(c *column, v uint64) {
	stageHelper(c, v)
	publishHelper(c) // want `call of publishHelper publishes lines staged for publication while its call of stageHelper at .* is flushed but not fenced`
	c.h.Fence()
	c.h.Fence()
}
