package nvm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
)

func testHeap(t *testing.T, size uint64) (*Heap, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "heap.nvm")
	h, err := Create(path, size)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	t.Cleanup(func() { h.Close() })
	return h, path
}

func TestCreateOpenRoundTrip(t *testing.T) {
	h, path := testHeap(t, 1<<20)
	p, err := h.Alloc(64)
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	copy(h.Bytes(p, 5), "hello")
	h.Persist(p, 5)
	if err := h.SetRoot("greeting", p, 5); err != nil {
		t.Fatalf("SetRoot: %v", err)
	}
	if err := h.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	h2, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer h2.Close()
	p2, aux, ok := h2.Root("greeting")
	if !ok {
		t.Fatal("root not found after reopen")
	}
	if aux != 5 {
		t.Fatalf("aux = %d, want 5", aux)
	}
	if got := string(h2.Bytes(p2, 5)); got != "hello" {
		t.Fatalf("payload = %q, want hello", got)
	}
}

func TestOpenRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "junk")
	h, err := Create(path, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	h.putU64(hdrMagic, 0xdeadbeef)
	h.Close()
	if _, err := Open(path); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

// TestOpenRejectsBadVersion: a heap of another format version is refused
// — a later one; format 4, whose main attribute vectors are packed value
// by value where this version reads bit planes; format 5, whose
// indexed columns keep a second skip list where this version reads a
// partition set of three words per column; format 6, whose delta
// dictionaries are skip lists; and formats 7 and 8, whose delta
// dictionaries are split-ordered lists where this version reads
// extendible hashes of buckets.
func TestOpenRejectsBadVersion(t *testing.T) {
	for _, version := range []uint64{formatVersion + 100, 4, 5, 6, 7, 8} {
		path := filepath.Join(t.TempDir(), "ver") // a TempDir per call
		h, err := Create(path, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		h.putU64(hdrVersion, version)
		h.Close()
		if _, err := Open(path); !errors.Is(err, ErrBadVersion) {
			t.Fatalf("version %d: err = %v, want ErrBadVersion", version, err)
		}
	}
}

// TestOpenRejectsDamagedHeader overwrites, one at a time, each word
// Open trusts in a closed heap — the header's magic, version, size,
// arena watermark and free-list heads, and every root slot's pointer —
// with wild values, and lengthens the file past its recorded size. Open
// must refuse each with an error, ErrCorrupt for all but the magic and
// version words, and never panic, with and without the shadow model.
func TestOpenRejectsDamagedHeader(t *testing.T) {
	h, path := testHeap(t, 1<<20)
	p, err := h.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	big, err := h.Alloc(64 << 10)
	if err != nil {
		t.Fatal(err)
	}
	keep, err := h.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	h.Free(p)
	h.Free(big)
	if err := h.SetRoot("r", keep, 0); err != nil {
		t.Fatal(err)
	}
	h.Close()

	type word struct {
		name string
		off  int64
		want error
	}
	words := []word{
		{"magic", hdrMagic, ErrBadMagic},
		{"version", hdrVersion, ErrBadVersion},
		{"size", hdrSize, ErrCorrupt},
		{"arena watermark", hdrArenaNext, ErrCorrupt},
		{"large free head", hdrLargeFree, ErrCorrupt},
	}
	for c := 0; c < numClasses; c++ {
		words = append(words, word{fmt.Sprintf("free list %d head", c), hdrFreeLists + int64(c)*8, ErrCorrupt})
	}
	for i := 0; i < rootSlots; i++ {
		words = append(words, word{fmt.Sprintf("root slot %d pointer", i), rootDirOff + int64(i)*rootSlotLen + rootNameLen, ErrCorrupt})
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	open := func(what string, want error, opts ...Option) {
		t.Helper()
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("%s: Open panicked: %v", what, r)
			}
		}()
		h, err := Open(path, opts...)
		if err == nil {
			h.Close()
			t.Errorf("%s: Open accepted it", what)
		} else if !errors.Is(err, want) {
			t.Errorf("%s: err = %v, want %v", what, err, want)
		}
	}
	for _, w := range words {
		var saved [8]byte
		if _, err := f.ReadAt(saved[:], w.off); err != nil {
			t.Fatal(err)
		}
		for _, wild := range []uint64{^uint64(0), 1 << 40, 3} {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], wild)
			if _, err := f.WriteAt(b[:], w.off); err != nil {
				t.Fatal(err)
			}
			what := fmt.Sprintf("%s = %#x", w.name, wild)
			open(what, w.want)
			open(what+" (shadow)", w.want, WithShadow())
		}
		if _, err := f.WriteAt(saved[:], w.off); err != nil {
			t.Fatal(err)
		}
	}
	h2, err := Open(path)
	if err != nil {
		t.Fatalf("the restored heap does not open: %v", err)
	}
	h2.Close()
	if err := f.Truncate(2 << 20); err != nil {
		t.Fatal(err)
	}
	open("file longer than its recorded size", ErrCorrupt)
}

// TestResidentPages: a heap opened afresh holds only the pages Open
// read, and reading a block's page adds it.
func TestResidentPages(t *testing.T) {
	h, path := testHeap(t, 4<<20)
	var ps []PPtr
	for i := 0; i < 64; i++ {
		p, err := h.Alloc(32 << 10)
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
	}
	h.Close()
	h2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Close()
	before, err := h2.ResidentPages()
	if err != nil {
		t.Fatal(err)
	}
	if before == 0 || before > 2+16 {
		t.Fatalf("%d pages present after Open, want the header and root directory (and at most the kernel's fault-around)", before)
	}
	_ = h2.U64(ps[len(ps)-1])
	after, err := h2.ResidentPages()
	if err != nil {
		t.Fatal(err)
	}
	if after <= before {
		t.Fatalf("reading a block left %d pages present, as before it", after)
	}
}

func TestEpochAdvancesOnOpen(t *testing.T) {
	h, path := testHeap(t, 1<<20)
	if got := h.Epoch(); got != 1 {
		t.Fatalf("fresh epoch = %d, want 1", got)
	}
	h.Close()
	for want := uint64(2); want <= 4; want++ {
		h2, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := h2.Epoch(); got != want {
			t.Fatalf("epoch = %d, want %d", got, want)
		}
		h2.Close()
	}
}

func TestAllocSizesAndAlignment(t *testing.T) {
	h, _ := testHeap(t, 8<<20)
	for _, n := range []uint64{1, 15, 16, 17, 100, 1000, 32768, 100000} {
		p, err := h.Alloc(n)
		if err != nil {
			t.Fatalf("Alloc(%d): %v", n, err)
		}
		if p%blockAlign != 0 {
			t.Fatalf("Alloc(%d) = %d, not %d-byte aligned", n, p, blockAlign)
		}
		if bs := h.BlockSize(p); bs < n {
			t.Fatalf("BlockSize(%d) = %d < requested %d", p, bs, n)
		}
		// Payload must be writable end to end.
		b := h.Bytes(p, n)
		b[0], b[n-1] = 0xAA, 0xBB
	}
}

func TestAllocZeroes(t *testing.T) {
	h, _ := testHeap(t, 1<<20)
	p, _ := h.Alloc(64)
	for i, b := range h.Bytes(p, 64) {
		if b != 0 {
			t.Fatalf("byte %d = %x, want 0", i, b)
		}
	}
	// Dirty, free, re-alloc: must be zeroed again.
	copy(h.Bytes(p, 64), "dirty dirty dirty")
	h.Free(p)
	p2, _ := h.Alloc(64)
	if p2 != p {
		t.Fatalf("expected free-list reuse: got %d want %d", p2, p)
	}
	for i, b := range h.Bytes(p2, 64) {
		if b != 0 {
			t.Fatalf("recycled byte %d = %x, want 0", i, b)
		}
	}
}

func TestFreeListReuseLIFO(t *testing.T) {
	h, _ := testHeap(t, 1<<20)
	a, _ := h.Alloc(100) // class 128
	b, _ := h.Alloc(100)
	h.Free(a)
	h.Free(b)
	c, _ := h.Alloc(100)
	d, _ := h.Alloc(100)
	if c != b || d != a {
		t.Fatalf("LIFO reuse violated: got %d,%d want %d,%d", c, d, b, a)
	}
}

func TestOutOfMemory(t *testing.T) {
	h, _ := testHeap(t, arenaStart+8192)
	var err error
	for i := 0; i < 10000; i++ {
		if _, err = h.Alloc(1024); err != nil {
			break
		}
	}
	if !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
	if got := h.Size(); got != arenaStart+8192 {
		t.Fatalf("a full heap is %d bytes, want the %d it was created at", got, arenaStart+8192)
	}
}

// A heap never grows: its created size is the limit that large allocations
// exhaust, and neither the mapping nor the file gets longer on the way.
func TestGrowLimitExhaustion(t *testing.T) {
	path := filepath.Join(t.TempDir(), "heap.nvm")
	h, err := Create(path, 2<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	var lastErr error
	for i := 0; i < 1<<12; i++ {
		if _, lastErr = h.Alloc(64 << 10); lastErr != nil {
			break
		}
	}
	if !errors.Is(lastErr, ErrOutOfMemory) {
		t.Fatalf("want ErrOutOfMemory at the created size, got %v", lastErr)
	}
	if h.Size() != 2<<20 {
		t.Fatalf("heap stopped at %d, want its 2 MiB created size", h.Size())
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(st.Size()) != h.Size() {
		t.Fatalf("file size %d != heap size %d", st.Size(), h.Size())
	}
}

// A full heap keeps its size across a reopen: exhaustion leaves nothing
// that Open could mistake for a longer heap.
func TestGrowDisabledKeepsFixedSize(t *testing.T) {
	path := filepath.Join(t.TempDir(), "heap.nvm")
	h, err := Create(path, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	var lastErr error
	for i := 0; i < 64; i++ {
		if _, lastErr = h.Alloc(64 << 10); lastErr != nil {
			break
		}
	}
	if !errors.Is(lastErr, ErrOutOfMemory) {
		t.Fatalf("fixed-size heap should exhaust, got %v", lastErr)
	}
	if h.Size() != 1<<20 {
		t.Fatalf("fixed-size heap grew to %d", h.Size())
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	h2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Close()
	if h2.Size() != 1<<20 {
		t.Fatalf("reopened full heap is %d bytes, want 1 MiB", h2.Size())
	}
}

func TestRootDirectory(t *testing.T) {
	h, _ := testHeap(t, 1<<20)
	if _, _, ok := h.Root("missing"); ok {
		t.Fatal("found a root that was never set")
	}
	if err := h.SetRoot("a", 100, 1); err != nil {
		t.Fatal(err)
	}
	if err := h.SetRoot("b", 200, 2); err != nil {
		t.Fatal(err)
	}
	// Update in place.
	if err := h.SetRoot("a", 300, 3); err != nil {
		t.Fatal(err)
	}
	p, aux, ok := h.Root("a")
	if !ok || p != 300 || aux != 3 {
		t.Fatalf("Root(a) = %d,%d,%v", p, aux, ok)
	}
	if got := len(h.Roots()); got != 2 {
		t.Fatalf("Roots() len = %d, want 2", got)
	}
	h.DeleteRoot("a")
	if _, _, ok := h.Root("a"); ok {
		t.Fatal("deleted root still present")
	}
	if got := len(h.Roots()); got != 1 {
		t.Fatalf("Roots() after delete = %d, want 1", got)
	}
	// Slot is reusable.
	if err := h.SetRoot("c", 400, 4); err != nil {
		t.Fatal(err)
	}
}

func TestRootSlotExhaustion(t *testing.T) {
	h, _ := testHeap(t, 1<<20)
	var err error
	for i := 0; i < rootSlots+1; i++ {
		err = h.SetRoot(string(rune('A'+i%26))+string(rune('a'+i/26)), PPtr(i+1), 0)
		if err != nil {
			break
		}
	}
	if !errors.Is(err, ErrRootSlots) {
		t.Fatalf("err = %v, want ErrRootSlots", err)
	}
}

func TestRootNameValidation(t *testing.T) {
	h, _ := testHeap(t, 1<<20)
	if err := h.SetRoot("", 1, 0); err == nil {
		t.Fatal("empty name accepted")
	}
	long := make([]byte, rootNameLen+1)
	for i := range long {
		long[i] = 'x'
	}
	if err := h.SetRoot(string(long), 1, 0); err == nil {
		t.Fatal("over-long name accepted")
	}
}

func TestAtomicU64(t *testing.T) {
	h, _ := testHeap(t, 1<<20)
	p, _ := h.Alloc(8)
	h.SetU64(p, 42)
	if got := h.U64(p); got != 42 {
		t.Fatalf("U64 = %d", got)
	}
}

func TestPersistCountsLines(t *testing.T) {
	h, _ := testHeap(t, 1<<20)
	h.ResetStats()
	p, _ := h.Alloc(256)
	h.ResetStats()
	h.Persist(p, 1)
	s := h.Stats()
	if s.Flushes != 1 || s.Fences != 1 {
		t.Fatalf("1-byte persist: flushes=%d fences=%d", s.Flushes, s.Fences)
	}
	h.ResetStats()
	h.Persist(p, 256) // p is 16-aligned, may straddle 5 lines
	s = h.Stats()
	if s.Flushes < 4 || s.Flushes > 5 {
		t.Fatalf("256-byte persist flushed %d lines, want 4..5", s.Flushes)
	}
}

func TestFailPointSimulatesCrash(t *testing.T) {
	h, path := testHeap(t, 1<<20)
	p, _ := h.Alloc(64)
	h.SetRoot("x", p, 0)

	crashed := func() (c bool) {
		defer func() {
			if r := recover(); r != nil {
				if !errors.Is(r.(error), ErrSimulatedCrash) {
					t.Fatalf("unexpected panic %v", r)
				}
				c = true
			}
		}()
		h.FailAfter(2)
		h.SetU64(p, 1)
		h.Persist(p, 8) // barrier 1
		h.SetU64(p.Add(8), 2)
		h.Persist(p.Add(8), 8) // barrier 2: crash
		h.SetU64(p.Add(16), 3)
		h.Persist(p.Add(16), 8)
		return false
	}()
	if !crashed {
		t.Fatal("fail point did not fire")
	}
	h.Close()

	h2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Close()
	p2, _, _ := h2.Root("x")
	if h2.U64(p2) != 1 || h2.U64(p2.Add(8)) != 2 {
		t.Fatal("persisted-before-crash data lost")
	}
}

func TestScavengeReclaimsUnlinked(t *testing.T) {
	h, _ := testHeap(t, 1<<20)
	linked, _ := h.Alloc(64)
	h.SetRoot("live", linked, 0)
	leaked, _ := h.Alloc(64)
	_ = leaked // reserved, never activated: simulates crash between alloc and link

	n := h.Scavenge(func(yield func(PPtr)) { yield(linked) })
	if n != 1 {
		t.Fatalf("Scavenge reclaimed %d, want 1", n)
	}
	// The leaked block is back on the free list.
	again, _ := h.Alloc(64)
	if again != leaked {
		t.Fatalf("scavenged block not reused: got %d want %d", again, leaked)
	}
}

func TestLatencyModelCharges(t *testing.T) {
	path := filepath.Join(t.TempDir(), "lat.nvm")
	h, err := Create(path, 1<<20, WithLatency(LatencyModel{WriteNS: 200, FenceNS: 100, ReadNS: 50}))
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if !h.ReadLatencyEnabled() {
		t.Fatal("read latency should be enabled")
	}
	p, _ := h.Alloc(CacheLineSize * 4)
	// Just exercise the paths; timing assertions are too flaky for CI.
	h.Persist(p, CacheLineSize*4)
	h.ChargeRead(CacheLineSize * 4)
	h.Fence()
}

func TestClassFor(t *testing.T) {
	cases := []struct {
		n    uint64
		want int
	}{
		{1, 0}, {16, 0}, {17, 1}, {32, 1}, {33, 2},
		{32768, numClasses - 1}, {32769, -1},
	}
	for _, c := range cases {
		if got := classFor(c.n); got != c.want {
			t.Errorf("classFor(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestAlignUpProperty(t *testing.T) {
	f := func(n uint32, shift uint8) bool {
		a := uint64(1) << (shift % 12)
		v := alignUp(uint64(n), a)
		return v >= uint64(n) && v%a == 0 && v-uint64(n) < a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: data written through one mapping is intact through a reopen,
// regardless of the write pattern.
func TestPersistenceProperty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "prop.nvm")
	h, err := Create(path, 4<<20)
	if err != nil {
		t.Fatal(err)
	}
	f := func(data []byte) bool {
		if len(data) == 0 {
			data = []byte{0}
		}
		p, err := h.Alloc(uint64(len(data)))
		if err != nil {
			return true // heap full: vacuous
		}
		copy(h.Bytes(p, uint64(len(data))), data)
		h.Persist(p, uint64(len(data)))
		if err := h.SetRoot("prop", p, uint64(len(data))); err != nil {
			return true
		}
		h.Close()
		h2, err := Open(path)
		if err != nil {
			return false
		}
		p2, n, ok := h2.Root("prop")
		if !ok || n != uint64(len(data)) {
			h2.Close()
			return false
		}
		got := string(h2.Bytes(p2, n))
		h2.Close()
		var errOpen error
		h, errOpen = Open(path)
		if errOpen != nil {
			t.Fatal(errOpen)
		}
		return got == string(data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
	h.Close()
}

func TestConcurrentAlloc(t *testing.T) {
	h, _ := testHeap(t, 16<<20)
	const goroutines, per = 8, 200
	ch := make(chan []PPtr, goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			ptrs := make([]PPtr, 0, per)
			for i := 0; i < per; i++ {
				p, err := h.Alloc(64)
				if err != nil {
					break
				}
				ptrs = append(ptrs, p)
			}
			ch <- ptrs
		}()
	}
	seen := make(map[PPtr]bool)
	for g := 0; g < goroutines; g++ {
		for _, p := range <-ch {
			if seen[p] {
				t.Fatalf("block %d handed out twice", p)
			}
			seen[p] = true
		}
	}
	if len(seen) != goroutines*per {
		t.Fatalf("allocated %d blocks, want %d", len(seen), goroutines*per)
	}
}

func TestLargeBlockFreeAndReuse(t *testing.T) {
	h, _ := testHeap(t, 8<<20)
	big, err := h.Alloc(100000) // beyond the largest size class
	if err != nil {
		t.Fatal(err)
	}
	copy(h.Bytes(big, 5), "dirty")
	usedBefore := h.Stats().BytesUsed
	h.Free(big)
	// A similar-sized allocation must reuse it (first fit within 2x)...
	again, err := h.Alloc(90000)
	if err != nil {
		t.Fatal(err)
	}
	if again != big {
		t.Fatalf("large block not reused: got %d want %d", again, big)
	}
	// ...and come back zeroed.
	for i, b := range h.Bytes(again, 8) {
		if b != 0 {
			t.Fatalf("recycled large byte %d = %x", i, b)
		}
	}
	if h.Stats().BytesUsed != usedBefore {
		t.Fatal("reuse consumed fresh arena space")
	}
	// A much smaller request must NOT take the oversized block.
	h.Free(again)
	small, err := h.Alloc(40000)
	if err != nil {
		t.Fatal(err)
	}
	if small == big {
		t.Fatal("oversized block wasted on a small request")
	}
}

func TestLargeFreeListSurvivesReopen(t *testing.T) {
	h, path := testHeap(t, 8<<20)
	big, _ := h.Alloc(100000)
	h.Free(big)
	h.Close()
	h2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Close()
	again, err := h2.Alloc(100000)
	if err != nil {
		t.Fatal(err)
	}
	if again != big {
		t.Fatalf("large free list lost across reopen: got %d want %d", again, big)
	}
}

// TestLargeFreeListCycleIsAnError: a free large block whose next word
// names itself makes the large free list a cycle; an allocation that no
// block on it fits fails with ErrCorrupt instead of walking it forever.
func TestLargeFreeListCycleIsAnError(t *testing.T) {
	h, _ := testHeap(t, 8<<20)
	big, _ := h.Alloc(100000)
	h.Free(big)
	h.SetU64(big, uint64(big-blockHeaderSize))
	if _, err := h.Alloc(1 << 20); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Alloc over a cyclic free list: %v, want ErrCorrupt", err)
	}
}

func TestScavengeReclaimsLargeBlocks(t *testing.T) {
	h, _ := testHeap(t, 8<<20)
	keep, _ := h.Alloc(100000)
	h.SetRoot("keep", keep, 0)
	leak, _ := h.Alloc(100000)
	_ = leak
	n := h.Scavenge(func(yield func(PPtr)) { yield(keep) })
	if n != 1 {
		t.Fatalf("reclaimed %d, want 1", n)
	}
	again, _ := h.Alloc(100000)
	if again != leak {
		t.Fatalf("scavenged large block not reused: got %d want %d", again, leak)
	}
}
