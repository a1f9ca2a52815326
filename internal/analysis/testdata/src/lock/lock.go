// Package lock exercises the lockcheck analyzer.
package lock

import (
	"errors"
	"sync"
	"time"

	"fix/nvm"
	"fix/wire"
)

var errFail = errors.New("fail")

type store struct {
	mu sync.Mutex
	rw sync.RWMutex
	a  sync.Mutex
	b  sync.Mutex
	n  int
}

// leakOnEarlyReturn forgets the unlock on the error path.
func (s *store) leakOnEarlyReturn(fail bool) error {
	s.mu.Lock()
	if fail {
		return errFail // want `function leakOnEarlyReturn may return while still holding s\.mu`
	}
	s.mu.Unlock()
	return nil
}

// deferUnlockClean releases on every path through the defer.
func (s *store) deferUnlockClean(fail bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if fail {
		return errFail
	}
	s.n++
	return nil
}

// relock re-acquires a held mutex: Go mutexes are not reentrant.
func (s *store) relock() {
	s.mu.Lock()
	s.mu.Lock() // want `s\.mu is already held`
	s.mu.Unlock()
	s.mu.Unlock()
}

// rlockUnderWrite downgrades by re-acquiring, which also deadlocks.
func (s *store) rlockUnderWrite() {
	s.rw.Lock()
	s.rw.RLock() // want `s\.rw is already held`
	s.rw.RUnlock()
	s.rw.Unlock()
}

// sleepUnderLock stalls every contender for the duration.
func (s *store) sleepUnderLock() {
	s.mu.Lock()
	time.Sleep(time.Millisecond) // want `time\.Sleep may block indefinitely while holding s\.mu`
	s.mu.Unlock()
}

// frameUnderLock waits on the peer for a whole frame.
func (s *store) frameUnderLock(fr *wire.FrameReader) {
	s.mu.Lock()
	fr.Next() // want `wire\.FrameReader\.Next may block indefinitely while holding s\.mu`
	s.mu.Unlock()
}

// persistUnderRLock flushes NVM writes while holding a shared view.
func (s *store) persistUnderRLock(h *nvm.Heap, p nvm.PPtr) {
	s.rw.RLock()
	h.Persist(p, 8) // want `persist barrier Persist under read lock s\.rw`
	s.rw.RUnlock()
}

// persistUnderWriteLock is the group-commit idiom: allowed.
func (s *store) persistUnderWriteLock(h *nvm.Heap, p nvm.PPtr) {
	s.mu.Lock()
	h.Persist(p, 8)
	s.mu.Unlock()
}

// lockAB and lockBA invert each other's acquisition order; the report
// lands on the earlier site of the pair.
func (s *store) lockAB() {
	s.a.Lock()
	s.b.Lock() // want `lock order inversion: store\.b acquired while holding store\.a`
	s.b.Unlock()
	s.a.Unlock()
}

func (s *store) lockBA() {
	s.b.Lock()
	s.a.Lock()
	s.a.Unlock()
	s.b.Unlock()
}

// viewLocked intentionally returns holding the lock; the Locked suffix
// declares the hand-off to the caller.
func (s *store) viewLocked() int {
	s.mu.Lock()
	return s.n
}

// waitSuppressed documents an intentional block under the lock.
func (s *store) waitSuppressed(wg *sync.WaitGroup) {
	s.mu.Lock()
	wg.Wait() //nvmcheck:ignore lockcheck fixture: startup barrier, no contention yet
	s.mu.Unlock()
}

// branchedUnlock releases on both branches: clean under the join.
func (s *store) branchedUnlock(alt bool) {
	s.mu.Lock()
	if alt {
		s.n++
		s.mu.Unlock()
	} else {
		s.mu.Unlock()
	}
}

// ---------------------------------------------------------------------------
// The leader/follower group-commit batcher pattern: a forming group
// guarded by a mutex, a leader that lingers for followers and then runs
// the shared durability barrier, and followers blocking on the group's
// outcome.

type batcher struct {
	mu    sync.Mutex
	items []int
}

// leaderLingerUnderLock waits out the group-commit delay while still
// holding the forming-group mutex: followers cannot even enqueue during
// the linger, defeating the point of batching.
func (b *batcher) leaderLingerUnderLock(h *nvm.Heap, p nvm.PPtr) {
	b.mu.Lock()
	time.Sleep(time.Millisecond) // want `time\.Sleep may block indefinitely while holding b\.mu`
	b.items = nil
	h.Persist(p, 8)
	b.mu.Unlock()
}

// leaderLingerOutsideLock is the correct shape: seal the group under
// the mutex, release it, then linger and run the barrier — followers
// keep enqueueing into the next group meanwhile.
func (b *batcher) leaderLingerOutsideLock(h *nvm.Heap, p nvm.PPtr) {
	b.mu.Lock()
	b.items = nil
	b.mu.Unlock()
	time.Sleep(time.Millisecond)
	h.Persist(p, 8)
}

// drainUnderRLock runs the group's durability drain while holding only
// a shared view: every reader stalls for the device latency, and the
// barrier publishes state the read lock does not own.
func (s *store) drainUnderRLock(h *nvm.Heap) {
	s.rw.RLock()
	h.Drain() // want `persist barrier Drain under read lock s\.rw`
	s.rw.RUnlock()
}

// drainUnderCommitMutex is the group-commit leader idiom: the drain runs
// under the exclusive commit mutex, which is allowed — that serialization
// is exactly what the batcher amortizes.
func (s *store) drainUnderCommitMutex(h *nvm.Heap) {
	s.mu.Lock()
	h.Drain()
	s.mu.Unlock()
}
