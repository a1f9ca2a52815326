package pstruct

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestSkipListInsertGet(t *testing.T) {
	h, _ := testHeap(t)
	s, err := NewSkipList(h)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get([]byte("missing")); ok {
		t.Fatal("empty list returned a value")
	}
	const n = 500
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("key-%05d", i))
		existed, err := s.Insert(k, uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		if existed {
			t.Fatalf("fresh key %q reported as existing", k)
		}
	}
	if got := s.Len(); got != n {
		t.Fatalf("Len = %d, want %d", got, n)
	}
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("key-%05d", i))
		v, ok := s.Get(k)
		if !ok || v != uint64(i) {
			t.Fatalf("Get(%q) = %d,%v", k, v, ok)
		}
	}
}

func TestSkipListOverwrite(t *testing.T) {
	h, _ := testHeap(t)
	s, _ := NewSkipList(h)
	s.Insert([]byte("k"), 1)
	existed, err := s.Insert([]byte("k"), 2)
	if err != nil || !existed {
		t.Fatalf("overwrite: existed=%v err=%v", existed, err)
	}
	if v, _ := s.Get([]byte("k")); v != 2 {
		t.Fatalf("value = %d, want 2", v)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
}

func TestSkipListOrderedIteration(t *testing.T) {
	h, _ := testHeap(t)
	s, _ := NewSkipList(h)
	keys := []string{"pear", "apple", "zebra", "mango", "fig", "banana"}
	for i, k := range keys {
		s.Insert([]byte(k), uint64(i))
	}
	sorted := append([]string(nil), keys...)
	sort.Strings(sorted)
	var got []string
	for it := s.First(); it.Valid(); it.Next() {
		got = append(got, string(it.Key()))
	}
	if len(got) != len(sorted) {
		t.Fatalf("iterated %d keys, want %d", len(got), len(sorted))
	}
	for i := range got {
		if got[i] != sorted[i] {
			t.Fatalf("position %d: %q, want %q", i, got[i], sorted[i])
		}
	}
}

func TestSkipListSurvivesReopen(t *testing.T) {
	h, path := testHeap(t)
	s, _ := NewSkipList(h)
	for i := 0; i < 200; i++ {
		s.Insert([]byte(fmt.Sprintf("k%04d", i)), uint64(i*10))
	}
	h.SetRoot("sl", s.Root(), 0)
	h2 := reopen(t, h, path)
	root, _, _ := h2.Root("sl")
	s2 := AttachSkipList(h2, root)
	if s2.Len() != 200 {
		t.Fatalf("Len after reopen = %d", s2.Len())
	}
	for i := 0; i < 200; i++ {
		v, ok := s2.Get([]byte(fmt.Sprintf("k%04d", i)))
		if !ok || v != uint64(i*10) {
			t.Fatalf("Get after reopen: %d,%v", v, ok)
		}
	}
	// Still writable after restart.
	if _, err := s2.Insert([]byte("post-restart"), 7); err != nil {
		t.Fatal(err)
	}
	if v, ok := s2.Get([]byte("post-restart")); !ok || v != 7 {
		t.Fatal("post-restart insert lost")
	}
}

func TestSkipListCrashMidInsert(t *testing.T) {
	h, path := testHeap(t)
	s, _ := NewSkipList(h)
	h.SetRoot("sl", s.Root(), 0)
	for i := 0; i < 20; i++ {
		s.Insert([]byte(fmt.Sprintf("pre%02d", i)), uint64(i))
	}
	// Crash somewhere inside the insert protocol, at each barrier offset.
	for fail := int64(1); fail <= 6; fail++ {
		func() {
			defer func() { recover() }()
			h.FailAfter(fail)
			s.Insert([]byte(fmt.Sprintf("crash%02d", fail)), 1000+uint64(fail))
			h.FailAfter(0) // insert completed before the fail point hit
		}()
		h.FailAfter(0)
		h2 := reopen(t, h, path)
		root, _, _ := h2.Root("sl")
		s2 := AttachSkipList(h2, root)
		// Invariant: all pre-crash keys remain; iteration order intact.
		for i := 0; i < 20; i++ {
			k := fmt.Sprintf("pre%02d", i)
			if v, ok := s2.Get([]byte(k)); !ok || v != uint64(i) {
				t.Fatalf("fail=%d: key %q lost (%d,%v)", fail, k, v, ok)
			}
		}
		prev := ""
		for it := s2.First(); it.Valid(); it.Next() {
			k := string(it.Key())
			if prev != "" && k <= prev {
				t.Fatalf("fail=%d: order violated: %q after %q", fail, k, prev)
			}
			prev = k
		}
		h = h2
		s = s2
	}
}

func TestSkipListPropertyAgainstMap(t *testing.T) {
	h, _ := testHeap(t)
	s, _ := NewSkipList(h)
	model := map[string]uint64{}
	rnd := rand.New(rand.NewSource(42))
	f := func(key uint16, val uint64) bool {
		k := fmt.Sprintf("p%d", key%2000)
		if rnd.Intn(4) == 0 {
			// lookup
			v, ok := s.Get([]byte(k))
			mv, mok := model[k]
			return ok == mok && (!ok || v == mv)
		}
		if _, err := s.Insert([]byte(k), val); err != nil {
			return false
		}
		model[k] = val
		v, ok := s.Get([]byte(k))
		return ok && v == val
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	if s.Len() != uint64(len(model)) {
		t.Fatalf("Len = %d, model %d", s.Len(), len(model))
	}
}
