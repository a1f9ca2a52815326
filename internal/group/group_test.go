package group

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestSingleCallerCommitsAlone(t *testing.T) {
	var got [][]int
	b := New[int](64, func(xs []int) error {
		got = append(got, append([]int(nil), xs...))
		return nil
	})
	defer b.Close()
	if err := b.Do(7); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || len(got[0]) != 1 || got[0][0] != 7 {
		t.Fatalf("got %v", got)
	}
}

func TestConcurrentCallersCoalesce(t *testing.T) {
	const n = 64
	// Block the first group's commit so every other caller piles into
	// the forming group behind the token.
	release := make(chan struct{})
	first := make(chan struct{})
	var once sync.Once
	b := New[int](n, func(xs []int) error {
		once.Do(func() { close(first); <-release })
		return nil
	})
	defer b.Close()

	go b.Do(-1) // leader of group 1, parked in commit
	<-first

	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := b.Do(i); err != nil {
				t.Errorf("Do(%d): %v", i, err)
			}
		}(i)
	}
	// Give the callers time to join the forming group, then unblock.
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()

	groups, items := b.Stats()
	if items != n+1 {
		t.Fatalf("items = %d, want %d", items, n+1)
	}
	// All n late callers must have shared far fewer than n groups; with
	// the first group parked they should coalesce into very few (usually
	// exactly one).
	if groups > 8 {
		t.Fatalf("groups = %d for %d concurrent callers: no coalescing", groups, n)
	}
}

func TestMaxBatchSealsGroup(t *testing.T) {
	release := make(chan struct{})
	first := make(chan struct{})
	var once sync.Once
	var sizes []int
	var mu sync.Mutex
	b := New[int](4, func(xs []int) error {
		once.Do(func() { close(first); <-release })
		mu.Lock()
		sizes = append(sizes, len(xs))
		mu.Unlock()
		return nil
	})
	defer b.Close()

	go b.Do(-1)
	<-first
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func(i int) { defer wg.Done(); b.Do(i) }(i)
	}
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	for _, s := range sizes {
		if s > 4 {
			t.Fatalf("group of %d exceeds MaxBatch 4 (sizes %v)", s, sizes)
		}
	}
}

func TestErrorBroadcastToWholeGroup(t *testing.T) {
	boom := errors.New("boom")
	release := make(chan struct{})
	first := make(chan struct{})
	var once sync.Once
	b := New[int](16, func(xs []int) error {
		once.Do(func() { close(first); <-release })
		if len(xs) > 1 {
			return boom
		}
		return nil
	})
	defer b.Close()

	go b.Do(-1)
	<-first
	var wg sync.WaitGroup
	var failed atomic.Int32
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := b.Do(i); errors.Is(err, boom) {
				failed.Add(1)
			}
		}(i)
	}
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()
	if failed.Load() != 8 {
		t.Fatalf("%d callers saw the group error, want 8", failed.Load())
	}
}

func TestPanicBroadcastsAndPropagates(t *testing.T) {
	b := New[int](64, func(xs []int) error { panic("crash") })
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		b.Do(1)
	}()
	if r := <-done; r == nil {
		t.Fatal("panic did not propagate on the leader goroutine")
	}
	// The batcher must stay usable: the token was returned during unwind.
	ok := New[int](64, func(xs []int) error { return nil })
	if err := ok.Do(1); err != nil {
		t.Fatal(err)
	}
	// And followers of a panicking group see ErrPanicked rather than
	// hanging: reconstruct with a parked group.
	release := make(chan struct{})
	first := make(chan struct{})
	var once sync.Once
	p := New[int](16, func(xs []int) error {
		once.Do(func() { close(first); <-release })
		if len(xs) > 1 {
			panic("group crash")
		}
		return nil
	})
	go func() {
		defer func() { recover() }()
		p.Do(-1)
	}()
	<-first
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	leaders := make(chan any, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { leaders <- recover() }()
			errs <- p.Do(i)
		}(i)
	}
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()
	close(errs)
	got := 0
	for err := range errs {
		if errors.Is(err, ErrPanicked) {
			got++
		}
	}
	// One member is the leader (its goroutine panics and never sends);
	// every follower that did send must have seen ErrPanicked.
	if got != 3 {
		t.Fatalf("%d followers saw ErrPanicked, want 3", got)
	}
}

func TestCloseRejectsAndDrains(t *testing.T) {
	var n atomic.Int32
	b := New[int](64, func(xs []int) error { n.Add(int32(len(xs))); return nil })
	if err := b.Do(1); err != nil {
		t.Fatal(err)
	}
	b.Close()
	b.Close() // idempotent
	if err := b.Do(2); !errors.Is(err, ErrClosed) {
		t.Fatalf("Do after Close = %v, want ErrClosed", err)
	}
	if n.Load() != 1 {
		t.Fatalf("committed %d items, want 1", n.Load())
	}
}
