// Package group implements a leader/follower batcher: concurrent callers
// of Do are coalesced into groups, and one commit callback runs per group
// on the first caller's goroutine (the leader) while the rest (followers)
// block until the group's outcome is broadcast.
//
// It is the orchestration half of group commit in both durable modes
// (txn.Manager.CommitGroup). The NVM commit protocol costs three fences
// regardless of how many transactions it stamps, and a log-based commit
// costs one log append and one sync, so coalescing N concurrent commits
// into one group divides that tax by N.
//
// Batching is work-conserving: a leader first waits for the commit token
// (only one group commits at a time), and followers arriving while the
// previous group is still committing join the forming group for free.
// There is no linger: an uncontended caller commits at once as a group of
// one. maxBatch bounds group size so one group cannot grow without limit
// under a backlog.
package group

import (
	"errors"
	"sync"
	"sync/atomic"
)

// Errors returned by Do.
var (
	// ErrClosed is returned by Do after Close.
	ErrClosed = errors.New("group: batcher closed")
	// ErrPanicked is returned to followers when the commit callback
	// panicked; the panic itself propagates on the leader's goroutine.
	ErrPanicked = errors.New("group: commit callback panicked")
)

// batch is one forming or committing group.
type batch[T any] struct {
	items []T
	done  chan struct{} // closed after commit; err is valid then
	err   error
}

// Batcher coalesces concurrent Do calls into groups. Safe for concurrent
// use by any number of goroutines.
type Batcher[T any] struct {
	maxBatch int
	commit   func([]T) error

	// token has capacity 1 and holds the right to run commit: at most
	// one group is committing at any moment, and the wait for the token
	// is exactly the window in which followers pile up.
	token chan struct{}

	mu     sync.Mutex
	cur    *batch[T] // forming group, nil when none
	closed bool

	groups atomic.Uint64 // groups committed
	items  atomic.Uint64 // items committed
}

// New creates a Batcher that commits groups of at most maxBatch items
// with the given callback. The callback receives every item of the group
// in arrival order; a nil error means the whole group succeeded, and its
// error (or panic) is reported to every caller of the group.
func New[T any](maxBatch int, commit func([]T) error) *Batcher[T] {
	b := &Batcher[T]{maxBatch: maxBatch, commit: commit, token: make(chan struct{}, 1)}
	b.token <- struct{}{}
	return b
}

// Do submits x and blocks until the group containing it commits,
// returning the group's outcome. The first caller of a forming group
// becomes the leader and runs the commit callback on its own goroutine;
// everyone else waits. If the callback panics, the panic propagates on
// the leader's goroutine and followers get ErrPanicked.
func (b *Batcher[T]) Do(x T) error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return ErrClosed
	}
	cur := b.cur
	leader := cur == nil
	if leader {
		cur = &batch[T]{done: make(chan struct{})}
		b.cur = cur
	}
	cur.items = append(cur.items, x)
	if len(cur.items) >= b.maxBatch {
		// Seal: later arrivals start the next group.
		b.cur = nil
	}
	b.mu.Unlock()

	if !leader {
		<-cur.done
		return cur.err
	}

	// Leader: wait for the commit token. Followers join while we wait —
	// this is where batching comes from under load.
	<-b.token
	b.mu.Lock()
	if b.cur == cur { // not sealed by a follower hitting maxBatch
		b.cur = nil
	}
	items := cur.items
	b.mu.Unlock()

	// Commit, broadcasting the outcome even if the callback panics (a
	// simulated NVM crash unwinds through here); followers must never
	// hang on a dead leader.
	completed := false
	defer func() {
		if !completed {
			cur.err = ErrPanicked
		}
		b.groups.Add(1)
		b.items.Add(uint64(len(items)))
		b.token <- struct{}{}
		close(cur.done)
	}()
	cur.err = b.commit(items)
	completed = true
	return cur.err
}

// Close rejects future Do calls and waits for the in-flight group (if
// any) to finish committing. Callers already blocked in Do complete
// normally. Close is idempotent.
func (b *Batcher[T]) Close() {
	b.mu.Lock()
	b.closed = true
	cur := b.cur
	b.mu.Unlock()
	if cur != nil {
		// A forming group exists; its leader will commit it. Wait so the
		// caller can tear down the committed-to resource afterwards.
		<-cur.done
	}
	// Drain the token: when it is available no group is committing.
	<-b.token
	b.token <- struct{}{}
}

// Stats reports groups and items committed since New; their ratio is the
// achieved batch size.
func (b *Batcher[T]) Stats() (groups, items uint64) {
	return b.groups.Load(), b.items.Load()
}
