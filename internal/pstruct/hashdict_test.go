package pstruct

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"hyrisenv/internal/nvm"
)

// hdLen counts the entries of the dictionary.
func hdLen(s *HashDict) int {
	n := 0
	s.Scan(func([]byte, uint64) bool { n++; return true })
	return n
}

// hdCheckModel verifies s against model: Check is clean, Scan yields
// every model key once with its value and nothing else, and Get finds
// every model key.
func hdCheckModel(t testing.TB, s *HashDict, model map[string]uint64) {
	t.Helper()
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	s.Scan(func(key []byte, val uint64) bool {
		k := string(key)
		if want, ok := model[k]; !ok || want != val || seen[k] {
			t.Fatalf("dictionary holds %q → %d (model %d, %v; seen before %v)", k, val, want, ok, seen[k])
		}
		seen[k] = true
		return true
	})
	if len(seen) != len(model) {
		t.Fatalf("dictionary holds %d keys, model %d", len(seen), len(model))
	}
	for k, want := range model {
		if v, ok := s.Get([]byte(k)); !ok || v != want {
			t.Fatalf("Get(%q) = %d, %v, want %d", k, v, ok, want)
		}
	}
}

// depth returns the dictionary's directory depth.
func (s *HashDict) depth() uint64 { return s.dirWord() >> 56 }

// TestHashDictInsertGet inserts fresh keys, then the same keys again with
// other values: a fresh key is reported absent, a present one present, and
// every key keeps its first value.
func TestHashDictInsertGet(t *testing.T) {
	h, _ := testHeap(t)
	s, err := NewHashDict(h)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get([]byte("missing")); ok {
		t.Fatal("empty dictionary returned a value")
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
	if got := hdLen(s); got != n {
		t.Fatalf("dictionary holds %d keys, want %d", got, n)
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

// TestHashDictAgainstMap drives a dictionary with random inserts and
// lookups against a Go map across six directory doublings: an insert
// reports a present key as present and keeps its value, a lookup agrees
// with the map, and after each doubling the dictionary holds exactly the
// map.
func TestHashDictAgainstMap(t *testing.T) {
	h, _ := testHeap(t)
	s, err := NewHashDict(h)
	if err != nil {
		t.Fatal(err)
	}
	model := make(map[string]uint64)
	rnd := rand.New(rand.NewSource(42))
	for doubling := uint64(1); doubling <= 6; doubling++ {
		for s.depth() < doubling {
			k := fmt.Sprintf("key-%d", rnd.Intn(8000))
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
		hdCheckModel(t, s, model)
	}
}

// TestHashDictSurvivesReopen inserts keys until the directory doubles,
// reopens the heap and goes on inserting into the attached dictionary,
// five times over: each reopened dictionary has the doubled directory and
// exactly the keys inserted.
func TestHashDictSurvivesReopen(t *testing.T) {
	h, path := testHeap(t)
	s, err := NewHashDict(h)
	if err != nil {
		t.Fatal(err)
	}
	h.SetRoot("hd", s.Root(), 0)
	model := make(map[string]uint64)
	for doubling := uint64(1); doubling <= 5; doubling++ {
		for s.depth() < doubling {
			i := len(model)
			k := fmt.Sprintf("k%05d", i)
			if _, err := s.Insert([]byte(k), uint64(i*10)); err != nil {
				t.Fatal(err)
			}
			model[k] = uint64(i * 10)
		}
		h = reopen(t, h, path)
		root, _, _ := h.Root("hd")
		s = AttachHashDict(h, root)
		if got := s.depth(); got != doubling {
			t.Fatalf("after doubling %d: directory depth %d", doubling, got)
		}
		hdCheckModel(t, s, model)
	}
}

// hdRun inserts keys [from, to) of key, each with its index as value,
// and counts the splits whose publish repoints directory entries and
// those that double the directory.
func hdRun(t testing.TB, s *HashDict, key func(int) []byte, from, to int, done *int) (splits, doublings int) {
	for *done = from; *done < to; *done++ {
		_, _, err := s.StageInsert(key(*done), uint64(*done))
		if err != nil {
			t.Fatal(err)
		}
		if s.staged.dirWord != 0 {
			doublings++
		} else if s.staged.hi > s.staged.lo {
			splits++
		}
		s.h.Fence()
		s.Publish()
		s.h.Fence()
	}
	return splits, doublings
}

// TestHashDictCrashAtEveryBarrier cuts power at every barrier of a run
// of inserts that crosses splits that repoint directory entries and a
// directory doubling, under whole-line loss and under both tearing
// models, the tearing of lines in flight under several seeds. After each
// cut the reopened dictionary is sound, holds every key whose insert
// returned once with its value, holds the interrupted key with its value
// or not at all, and keeps each key's first value when the whole run is
// inserted again with other values.
func TestHashDictCrashAtEveryBarrier(t *testing.T) {
	key := func(i int) []byte { return []byte(fmt.Sprintf("k%03d", i)) }
	const pre, run = 40, 60
	type crashMode struct {
		tear    int64
		flushed bool
	}
	modes := []crashMode{{0, false}, {1, false}}
	for seed := int64(2); seed < 6; seed++ {
		modes = append(modes, crashMode{seed, true})
	}
	for _, mode := range modes {
		for barrier := int64(1); ; barrier++ {
			h, path := shadowHeap(t, mode.tear)
			h.SetTearFlushed(mode.flushed)
			s, err := NewHashDict(h)
			if err != nil {
				t.Fatal(err)
			}
			h.SetRoot("s", s.Root(), 0)
			var done int
			hdRun(t, s, key, 0, pre, &done)
			var splits, doublings int
			crashed := crashAt(h, barrier, func() { splits, doublings = hdRun(t, s, key, pre, pre+run, &done) })
			if !crashed {
				// The uncut run must have done what the sweep is for.
				if splits == 0 || doublings == 0 {
					t.Fatalf("the run made %d splits that repoint entries and %d doublings, want both", splits, doublings)
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
			s2 := AttachHashDict(h2, root)
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
			hdCheckModel(t, s2, model)
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
			hdCheckModel(t, s2, model)
			h2.Close()
		}
	}
}

// TestHashDictConcurrentReaders runs lock-free readers beside one writer
// whose inserts split buckets and double the directory: a reader's Get
// of a key whose insert has returned always finds it with its value,
// however its bucket moved during the search.
func TestHashDictConcurrentReaders(t *testing.T) {
	h, _ := testHeap(t)
	s, err := NewHashDict(h)
	if err != nil {
		t.Fatal(err)
	}
	const n = 20_000
	var done atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(int64(r)))
			for d := done.Load(); d < n; d = done.Load() {
				if d == 0 {
					continue
				}
				k := uint64(rnd.Int63n(d))
				if v, ok := s.Get(int64Key(k)); !ok || v != k {
					t.Errorf("Get(%d) = %d, %v while %d keys are in", k, v, ok, d)
					return
				}
			}
		}(r)
	}
	for i := uint64(0); i < n; i++ {
		if _, err := s.Insert(int64Key(i), i); err != nil {
			t.Fatal(err)
		}
		done.Store(int64(i + 1))
	}
	wg.Wait()
}

// TestHashDictCheckCatchesCorruption seeds four faults Check looks for
// into a sound dictionary — a slot whose hash is not its key's, a key in
// two live slots of a bucket, a full slot after an empty one and a
// directory entry naming no bucket — and expects each reported, and the
// dictionary sound again once it is undone.
func TestHashDictCheckCatchesCorruption(t *testing.T) {
	h, _ := testHeap(t)
	s, _ := NewHashDict(h)
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
	// The bucket of key c0, and the slot that holds it.
	x := hashKey([]byte("c0"))
	dw := s.dirWord()
	b := s.bucket(h.U32(entry(dw, x)))
	var slot, last nvm.PPtr
	for i := uint64(1); i < hdWords; i++ {
		w := h.U64(b.Add(8 * i))
		if w == 0 {
			break
		}
		if uint32(w>>32) == x {
			slot = b.Add(8 * i)
		}
		last = b.Add(8 * i)
	}
	if slot.IsNil() || last == slot {
		t.Fatal("no bucket with c0 and a later slot")
	}
	old, oldLast := h.U64(slot), h.U64(last)

	h.SetU64(slot, old^1<<32)
	expect("wrong hash", "has")
	h.SetU64(slot, old)

	h.SetU64(last, old)
	expect("key twice", "is in two live slots")
	h.SetU64(last, oldLast)

	h.SetU64(slot, 0)
	expect("hole", "after an empty one")
	h.SetU64(slot, old)

	p := entry(dw, x)
	e := h.U32(p)
	h.SetU32(p, 0xfffffff0)
	expect("wild entry", "bucket")
	h.SetU32(p, e)

	if err := s.Check(); err != nil {
		t.Fatalf("undone corruption still reported: %v", err)
	}
}

// int64Key is the 8-byte big-endian key of i, the shape of a delta
// column's Int64 keys.
func int64Key(i uint64) []byte { return binary.BigEndian.AppendUint64(nil, i) }

// hdFill returns a dictionary on h holding keys int64Key(2i) for i in
// [0, n), value i; the odd keys are absent.
func hdFill(tb testing.TB, h *nvm.Heap, n int) *HashDict {
	s, err := NewHashDict(h)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := s.Insert(int64Key(uint64(2*i)), uint64(i)); err != nil {
			tb.Fatal(err)
		}
	}
	return s
}

// TestDeltaDictSearchLines counts the lines the read model charges a
// search of a 200k-key dictionary: one for the bucket, one for the
// record of a present key, and one more only for a key whose 32-bit
// hash equals that of another key in its bucket — about n²/2^33 pairs.
// The average is at most 2 for a present key and 1 for an absent one.
func TestDeltaDictSearchLines(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 200k-key dictionary")
	}
	path := filepath.Join(t.TempDir(), "heap.nvm")
	h, err := nvm.Create(path, 64<<20, nvm.WithLatency(nvm.LatencyModel{ReadNS: 1}))
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	const n = 200_000
	s := hdFill(t, h, n)
	for _, absent := range []bool{false, true} {
		before := h.Stats().ReadLines
		for i := 0; i < n; i++ {
			k := uint64(2 * i)
			if absent {
				k++
			}
			if _, ok := s.Get(int64Key(k)); ok == absent {
				t.Fatalf("Get(%d) found = %v", k, ok)
			}
		}
		lines := float64(h.Stats().ReadLines-before) / n
		t.Logf("absent %v: %.5f lines a search", absent, lines)
		limit := 2.0
		if absent {
			limit = 1
		}
		// The tolerance is for the hash collisions: 5 expected pairs in
		// 200k keys add 0.00003 lines a search.
		if lines > limit+0.001 {
			t.Errorf("absent %v: %.5f lines a search, want at most %v", absent, lines, limit)
		}
	}
}

// BenchmarkDeltaDictSearch times a search of a delta dictionary of
// Int64-shaped keys for a present and an absent key, at 20k and 200k
// keys, without and with a 200 ns read latency per charged line.
func BenchmarkDeltaDictSearch(b *testing.B) {
	for _, readNS := range []int64{0, 200} {
		for _, n := range []int{20_000, 200_000} {
			path := filepath.Join(b.TempDir(), "heap.nvm")
			h, err := nvm.Create(path, 64<<20, nvm.WithLatency(nvm.LatencyModel{ReadNS: readNS}))
			if err != nil {
				b.Fatal(err)
			}
			s := hdFill(b, h, n)
			keys := make([][]byte, n)
			for _, absent := range []uint64{0, 1} {
				for i, j := range rand.New(rand.NewSource(1)).Perm(n) {
					keys[i] = int64Key(uint64(2*j) + absent)
				}
				name := map[uint64]string{0: "present", 1: "absent"}[absent]
				b.Run(fmt.Sprintf("read=%dns/keys=%dk/%s", readNS, n/1000, name), func(b *testing.B) {
					found := 0
					for i := 0; i < b.N; i++ {
						if _, ok := s.Get(keys[i%len(keys)]); ok {
							found++
						}
					}
					if want := map[uint64]int{0: b.N, 1: 0}[absent]; found != want {
						b.Fatalf("found %d of %d", found, b.N)
					}
				})
			}
			h.Close()
		}
	}
}

// FuzzDeltaDict drives a dictionary with a script of inserts, gets and
// heap reopens against a map: byte 0 reopens, a byte divisible by 5 gets
// a key, any other inserts one. The keys are drawn from a space large
// enough for a long script to split buckets and double the directory.
func FuzzDeltaDict(f *testing.F) {
	f.Add([]byte{1, 2, 3, 0, 5, 6})
	long := make([]byte, 300)
	for i := range long {
		long[i] = byte(i*37 + 1)
	}
	f.Add(long)
	f.Fuzz(func(t *testing.T, script []byte) {
		path := filepath.Join(t.TempDir(), "heap.nvm")
		h, err := nvm.Create(path, 16<<20)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { h.Close() }()
		s, err := NewHashDict(h)
		if err != nil {
			t.Fatal(err)
		}
		h.SetRoot("hd", s.Root(), 0)
		model := make(map[string]uint64)
		for i, b := range script {
			if i >= 2000 {
				break
			}
			k := fmt.Sprintf("key-%d", (i*131+int(b))%1500)
			switch {
			case b == 0:
				if err := h.Close(); err != nil {
					t.Fatal(err)
				}
				if h, err = nvm.Open(path); err != nil {
					t.Fatal(err)
				}
				root, _, _ := h.Root("hd")
				s = AttachHashDict(h, root)
			case b%5 == 0:
				want, present := model[k]
				if v, ok := s.Get([]byte(k)); ok != present || v != want {
					t.Fatalf("Get(%q) = %d, %v, model %d, %v", k, v, ok, want, present)
				}
			default:
				_, present := model[k]
				existed, err := s.Insert([]byte(k), uint64(i))
				if err != nil {
					t.Fatal(err)
				}
				if existed != present {
					t.Fatalf("Insert(%q) existed = %v, model %v", k, existed, present)
				}
				if !present {
					model[k] = uint64(i)
				}
			}
		}
		hdCheckModel(t, s, model)
	})
}
