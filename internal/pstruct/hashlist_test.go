package pstruct

import (
	"fmt"
	"math/bits"
	"math/rand"
	"strings"
	"testing"

	"hyrisenv/internal/nvm"
)

// hlLen counts the entries on the list.
func hlLen(s *HashList) int {
	n := 0
	s.Scan(func([]byte, uint64) bool { n++; return true })
	return n
}

// hlCheckModel verifies s against model: Check is clean, every model key
// is on the list once with its value, and the list holds nothing else.
func hlCheckModel(t *testing.T, s *HashList, model map[string]uint64) {
	t.Helper()
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	s.Scan(func(key []byte, val uint64) bool {
		k := string(key)
		if want, ok := model[k]; !ok || want != val || seen[k] {
			t.Fatalf("list holds %q → %d (model %d, %v; seen before %v)", k, val, want, ok, seen[k])
		}
		seen[k] = true
		return true
	})
	if len(seen) != len(model) {
		t.Fatalf("list holds %d keys, model %d", len(seen), len(model))
	}
	for k, want := range model {
		if v, ok := s.Get([]byte(k)); !ok || v != want {
			t.Fatalf("Get(%q) = %d, %v, want %d", k, v, ok, want)
		}
	}
}

// TestHashListInsertGet inserts fresh keys, then the same keys again with
// other values: a fresh key is reported absent, a present one present, and
// every key keeps its first value.
func TestHashListInsertGet(t *testing.T) {
	h, _ := testHeap(t)
	s, err := NewHashList(h)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get([]byte("missing")); ok {
		t.Fatal("empty list returned a value")
	}
	const n = 500
	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%05d", i)) }
	for i := 0; i < n; i++ {
		existed, err := s.Insert(key(i), uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		if existed {
			t.Fatalf("fresh key %q reported as existing", key(i))
		}
	}
	for i := 0; i < n; i++ {
		existed, err := s.Insert(key(i), uint64(n+i))
		if err != nil {
			t.Fatal(err)
		}
		if !existed {
			t.Fatalf("present key %q reported as fresh", key(i))
		}
	}
	if got := hlLen(s); got != n {
		t.Fatalf("list holds %d keys, want %d", got, n)
	}
	for i := 0; i < n; i++ {
		if v, ok := s.Get(key(i)); !ok || v != uint64(i) {
			t.Fatalf("Get(%q) = %d, %v, want %d", key(i), v, ok, i)
		}
	}
	if _, err := s.Insert([]byte("wide"), 1<<32); err == nil {
		t.Fatal("a value beyond 32 bits was accepted")
	}
}

// TestHashListAgainstMap drives a hash list with random inserts and
// lookups against a Go map across four directory doublings: an insert
// reports a present key as present and keeps its value, a lookup agrees
// with the map, and after each doubling the list holds exactly the map.
func TestHashListAgainstMap(t *testing.T) {
	h, _ := testHeap(t)
	s, err := NewHashList(h)
	if err != nil {
		t.Fatal(err)
	}
	model := make(map[string]uint64)
	rnd := rand.New(rand.NewSource(42))
	for doubling := 1; doubling <= 4; doubling++ {
		for log := s.sizeLog.Load(); s.sizeLog.Load() == log; {
			k := fmt.Sprintf("key-%d", rnd.Intn(4000))
			want, present := model[k]
			if rnd.Intn(4) == 0 {
				if v, ok := s.Get([]byte(k)); ok != present || v != want {
					t.Fatalf("Get(%q) = %d, %v, model %d, %v", k, v, ok, want, present)
				}
				continue
			}
			next := uint64(len(model))
			existed, err := s.Insert([]byte(k), next)
			if err != nil {
				t.Fatal(err)
			}
			if existed != present {
				t.Fatalf("Insert(%q) existed = %v, model %v", k, existed, present)
			}
			if !present {
				model[k] = next
			}
		}
		if got, want := s.sizeLog.Load(), uint64(hlBaseLog+doubling); got != want {
			t.Fatalf("after doubling %d: 2^%d buckets, want 2^%d", doubling, got, want)
		}
		hlCheckModel(t, s, model)
	}
}

// TestHashListSurvivesReopen inserts keys until the directory doubles,
// reopens the heap and goes on inserting into the attached list, four
// times over: each reopened list has the doubled directory, a count
// within one flush interval of the keys inserted, and exactly those keys.
func TestHashListSurvivesReopen(t *testing.T) {
	h, path := testHeap(t)
	s, err := NewHashList(h)
	if err != nil {
		t.Fatal(err)
	}
	h.SetRoot("hl", s.Root(), 0)
	model := make(map[string]uint64)
	for doubling := 1; doubling <= 4; doubling++ {
		for log := s.sizeLog.Load(); s.sizeLog.Load() == log; {
			i := len(model)
			k := fmt.Sprintf("k%05d", i)
			if _, err := s.Insert([]byte(k), uint64(i*10)); err != nil {
				t.Fatal(err)
			}
			model[k] = uint64(i * 10)
		}
		h = reopen(t, h, path)
		root, _, _ := h.Root("hl")
		s = AttachHashList(h, root)
		if got, want := s.sizeLog.Load(), uint64(hlBaseLog+doubling); got != want {
			t.Fatalf("after doubling %d: 2^%d buckets, want 2^%d", doubling, got, want)
		}
		// The count is flushed every hlLoad keys.
		if n := uint64(len(model)); s.count > n || s.count+hlLoad <= n {
			t.Fatalf("after doubling %d: count %d, model %d", doubling, s.count, n)
		}
		hlCheckModel(t, s, model)
	}
}

// TestHashListCrashAtEveryBarrier cuts power at every barrier of a run
// of inserts that crosses a directory doubling and settles fingers in
// the new half, under whole-line loss and under both tearing models,
// the tearing of lines in flight under several seeds.
// After each cut the reopened list is sound, holds every key whose
// insert returned once with its value, holds the interrupted key with
// its value or not at all, and keeps each key's first value when the
// whole run is inserted again with other values.
func TestHashListCrashAtEveryBarrier(t *testing.T) {
	key := func(i int) []byte { return []byte(fmt.Sprintf("k%03d", i)) }
	// The directory doubles before insert number hlLoad<<hlBaseLog.
	const pre, run = hlLoad<<hlBaseLog - 4, 12
	type crashMode struct {
		tear    int64
		flushed bool
	}
	modes := []crashMode{{0, false}, {1, false}}
	for seed := int64(2); seed < 10; seed++ {
		modes = append(modes, crashMode{seed, true})
	}
	for _, mode := range modes {
		for barrier := int64(1); ; barrier++ {
			h, path := shadowHeap(t, mode.tear)
			h.SetTearFlushed(mode.flushed)
			s, err := NewHashList(h)
			if err != nil {
				t.Fatal(err)
			}
			h.SetRoot("s", s.Root(), 0)
			for i := 0; i < pre; i++ {
				if _, err := s.Insert(key(i), uint64(i)); err != nil {
					t.Fatal(err)
				}
			}
			done := pre
			crashed := crashAt(h, barrier, func() {
				for ; done < pre+run; done++ {
					if _, err := s.Insert(key(done), uint64(done)); err != nil {
						t.Fatal(err)
					}
				}
			})
			if !crashed {
				// The uncut run must have done what the sweep is for.
				if s.sizeLog.Load() != hlBaseLog+1 {
					t.Fatalf("the run left 2^%d buckets, want a doubling", s.sizeLog.Load())
				}
				settled := false
				for b := uint64(1) << hlBaseLog; b < 2<<hlBaseLog; b++ {
					settled = settled || h.U64(s.fingerSlot(b)) != 0
				}
				if !settled {
					t.Fatal("the run settled no finger in the new half of the directory")
				}
				h.Close()
				break
			}
			h.Close()
			h2, err := nvm.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			at := fmt.Sprintf("tear %d (flushed %v) barrier %d", mode.tear, mode.flushed, barrier)
			root, _, _ := h2.Root("s")
			s2 := AttachHashList(h2, root)
			if err := s2.Check(); err != nil {
				t.Fatalf("%s: %v", at, err)
			}
			model := make(map[string]uint64)
			for i := 0; i < done; i++ {
				model[string(key(i))] = uint64(i)
			}
			if v, ok := s2.Get(key(done)); ok {
				if v != uint64(done) {
					t.Fatalf("%s: interrupted key %d reads %d", at, done, v)
				}
				model[string(key(done))] = v
			}
			hlCheckModel(t, s2, model)
			for i := 0; i < pre+run; i++ {
				_, present := model[string(key(i))]
				existed, err := s2.Insert(key(i), uint64(1000+i))
				if err != nil {
					t.Fatal(err)
				}
				if existed != present {
					t.Fatalf("%s: re-insert of key %d existed = %v, want %v", at, i, existed, present)
				}
				if !present {
					model[string(key(i))] = uint64(1000 + i)
				}
			}
			hlCheckModel(t, s2, model)
			h2.Close()
		}
	}
}

// TestHashListCheckCatchesCorruption seeds the three faults Check looks
// for into a sound list — a finger at or past its bucket's start, a node
// out of split order, a key on the list twice — and expects each
// reported, and the list sound again once it is undone.
func TestHashListCheckCatchesCorruption(t *testing.T) {
	h, _ := testHeap(t)
	s, _ := NewHashList(h)
	for i := 0; i < 300; i++ {
		if _, err := s.Insert([]byte(fmt.Sprintf("c%d", i)), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
	expect := func(what, want string) {
		t.Helper()
		if err := s.Check(); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: Check = %v, want %q", what, err, want)
		}
	}
	first := s.next(s.head)
	second := s.next(first)

	// A finger naming a node of its own bucket: the first node whose
	// split-order key is at least bucket b's start.
	b := uint64(1)
	slot := s.fingerSlot(b)
	old := h.U64(slot)
	var past nvm.PPtr
	for cur := first; !cur.IsNil() && past.IsNil(); cur = s.next(cur) {
		if h.GetU64(cur.Add(hlOffSO)) >= bits.Reverse64(b) {
			past = cur
		}
	}
	h.SetU64(slot, uint64(past))
	expect("finger past its bucket", "not below the bucket's start")
	h.SetU64(slot, old)

	// The second node's split-order key below the first's.
	so := h.GetU64(second.Add(hlOffSO))
	h.PutU64(second.Add(hlOffSO), h.GetU64(first.Add(hlOffSO))-1)
	expect("node out of order", "out of split order")
	h.PutU64(second.Add(hlOffSO), so)

	// A copy of the first node linked right behind it.
	size := hlNodeSize(int(BlobLen(h, first.Add(hlOffKey))))
	dup, err := s.arena.Alloc(size)
	if err != nil {
		t.Fatal(err)
	}
	copy(h.Bytes(dup, size), h.Bytes(first, size))
	h.SetU64(first.Add(hlOffNext), uint64(dup))
	expect("repeated key", "repeats key")
	h.SetU64(first.Add(hlOffNext), uint64(second))

	if err := s.Check(); err != nil {
		t.Fatalf("undone corruption still reported: %v", err)
	}
}
