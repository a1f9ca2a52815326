package server

import (
	"testing"
	"time"
)

// TestAdmitOne pins the admission semaphore's state machine without a
// network in the way: fast-path grant, bounded wait then reject, wait
// queue overflow reject, handoff to a parked waiter on release, and the
// disabled mode.
func TestAdmitOne(t *testing.T) {
	s := New(nil, Config{MaxConcurrent: 1, AdmissionQueue: 1, AdmissionWait: 250 * time.Millisecond})

	rel, ok := s.admitOne()
	if !ok || rel == nil {
		t.Fatal("first admit must take the free slot")
	}

	// A second request parks in the wait queue (capacity 1).
	got := make(chan bool, 1)
	go func() {
		rel2, ok2 := s.admitOne()
		got <- ok2
		if ok2 {
			rel2()
		}
	}()
	// Wait until the goroutine is registered as a waiter.
	deadline := time.Now().Add(2 * time.Second)
	for s.admitWaiting.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never registered")
		}
		time.Sleep(time.Millisecond)
	}

	// A third request overflows the wait queue: immediate reject.
	if _, ok3 := s.admitOne(); ok3 {
		t.Fatal("queue-overflow admit must be rejected")
	}
	if r := s.Rejected(); r != 1 {
		t.Fatalf("Rejected() = %d, want 1", r)
	}

	// Releasing the slot admits the parked waiter.
	rel()
	if !<-got {
		t.Fatal("parked waiter was rejected despite a freed slot")
	}
}

// TestAdmitOneTimeout checks the fast-reject path: a waiter that gets no
// slot within AdmissionWait is rejected rather than left waiting forever.
func TestAdmitOneTimeout(t *testing.T) {
	s := New(nil, Config{MaxConcurrent: 1, AdmissionQueue: 8, AdmissionWait: 5 * time.Millisecond})
	rel, ok := s.admitOne()
	if !ok {
		t.Fatal("first admit failed")
	}
	defer rel()
	start := time.Now()
	if _, ok2 := s.admitOne(); ok2 {
		t.Fatal("admit with held slot must time out")
	}
	if el := time.Since(start); el > time.Second {
		t.Fatalf("reject took %v, want ~AdmissionWait", el)
	}
	if s.Rejected() != 1 {
		t.Fatalf("Rejected() = %d, want 1", s.Rejected())
	}
}

// TestAdmitDisabled checks that a negative MaxConcurrent turns the
// admission stage off entirely.
func TestAdmitDisabled(t *testing.T) {
	s := New(nil, Config{MaxConcurrent: -1})
	for i := 0; i < 100; i++ {
		rel, ok := s.admitOne()
		if !ok {
			t.Fatal("disabled admission must always grant")
		}
		if rel != nil {
			t.Fatal("disabled admission must not hand out release funcs")
		}
	}
	if s.Rejected() != 0 {
		t.Fatalf("Rejected() = %d, want 0", s.Rejected())
	}
}
