package nvm

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"
)

func shadowHeap(t *testing.T, size uint64) (*Heap, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "heap.nvm")
	h, err := Create(path, size, WithShadow())
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	t.Cleanup(func() { h.Close() })
	return h, path
}

// crashAtNextBarrier runs fn expecting it to hit the armed fail-point.
func crashAtNextBarrier(t *testing.T, h *Heap, n int64, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no simulated crash fired")
		}
		if err, ok := r.(error); !ok || !errors.Is(err, ErrSimulatedCrash) {
			panic(r)
		}
	}()
	h.FailAfter(n)
	fn()
}

func TestShadowUnpersistedStoreLost(t *testing.T) {
	h, path := shadowHeap(t, 1<<20)
	p, err := h.Alloc(128)
	if err != nil {
		t.Fatal(err)
	}
	h.SetU64(p, 0x1111)
	h.Persist(p, 8) // durable
	h.SetU64(p.Add(8), 0x2222)
	// No persist for p+8: the store is dirty when the crash fires.
	if h.DirtyLines() == 0 {
		t.Fatal("expected dirty lines before the crash")
	}
	crashAtNextBarrier(t, h, 1, func() { h.Fence() })
	if !h.Crashed() {
		t.Fatal("Crashed() false after simulated crash")
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}

	h2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Close()
	if got := h2.U64(p); got != 0x1111 {
		t.Fatalf("persisted store lost: %#x", got)
	}
	if got := h2.U64(p.Add(8)); got != 0 {
		t.Fatalf("unpersisted store survived the crash: %#x", got)
	}
}

func TestShadowCrashLosesBarrierOwnLines(t *testing.T) {
	h, path := shadowHeap(t, 1<<20)
	p, err := h.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	h.SetU64(p, 0xbeef)
	// The crash fires at this very barrier: clflush completion is only
	// ordered by the fence, so the line being flushed is itself lost.
	crashAtNextBarrier(t, h, 1, func() { h.Persist(p, 8) })
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	h2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Close()
	if got := h2.U64(p); got != 0 {
		t.Fatalf("lines flushed by the crashing barrier survived: %#x", got)
	}
}

func TestShadowBareFencePublishesNothing(t *testing.T) {
	h, path := shadowHeap(t, 1<<20)
	p, err := h.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	h.SetU64(p, 0xcafe)
	h.Fence() // orders flushes; flushes nothing itself
	crashAtNextBarrier(t, h, 1, func() { h.Fence() })
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	h2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Close()
	if got := h2.U64(p); got != 0 {
		t.Fatalf("bare fence published a dirty line: %#x", got)
	}
}

func TestShadowTearDeterministic(t *testing.T) {
	run := func(seed int64) []byte {
		path := filepath.Join(t.TempDir(), "heap.nvm")
		h, err := Create(path, 1<<20, WithShadow())
		if err != nil {
			t.Fatal(err)
		}
		p, err := h.Alloc(256)
		if err != nil {
			t.Fatal(err)
		}
		for i := uint64(0); i < 32; i++ {
			h.SetU64(p.Add(i*8), 0xdead0000+i)
		}
		h.SetTearSeed(seed)
		crashAtNextBarrier(t, h, 1, func() { h.Fence() })
		img := append([]byte(nil), h.Bytes(p, 256)...)
		h.Close()
		return img
	}
	a, b := run(42), run(42)
	if !bytes.Equal(a, b) {
		t.Fatal("same tear seed produced different crash images")
	}
	c := run(43)
	if bytes.Equal(a, c) {
		t.Fatal("different tear seeds produced identical crash images (possible, but overwhelmingly unlikely with 32 dirty words)")
	}
	// Tearing operates on whole aligned 8-byte words: every word is
	// either the new value or the old (zero), never a byte mixture.
	var kept, lost int
	for i := uint64(0); i < 32; i++ {
		w := binaryWord(a[i*8 : i*8+8])
		switch w {
		case 0xdead0000 + i:
			kept++
		case 0:
			lost++
		default:
			t.Fatalf("word %d torn within itself: %#x", i, w)
		}
	}
	if kept == 0 || lost == 0 {
		t.Fatalf("tear pattern degenerate: %d kept, %d lost", kept, lost)
	}
}

func binaryWord(b []byte) uint64 {
	var v uint64
	for i := 7; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v
}

func TestShadowCleanCloseKeepsEverything(t *testing.T) {
	h, path := shadowHeap(t, 1<<20)
	p, err := h.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	h.SetU64(p, 7)
	if err := h.SetRoot("x", p, 0); err != nil {
		t.Fatal(err)
	}
	// Clean close without a crash: the mapping (not the shadow) is what
	// reaches the file, so even unpersisted stores survive — shadow mode
	// only changes what a *crash* preserves.
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	h2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Close()
	if got := h2.U64(p); got != 7 {
		t.Fatalf("clean close lost a store: %d", got)
	}
}

func TestShadowFlushWithoutFenceLost(t *testing.T) {
	h, path := shadowHeap(t, 1<<20)
	p, err := h.Alloc(256)
	if err != nil {
		t.Fatal(err)
	}
	h.SetU64(p, 0xaaaa)
	h.SetU64(p.Add(128), 0xbbbb)
	h.Flush(p, 8)
	h.Flush(p.Add(128), 8)
	// The crash fires at the very fence that would have published both
	// flushes: everything flushed since the previous fence is lost.
	crashAtNextBarrier(t, h, 1, func() { h.Fence() })
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	h2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Close()
	if got := h2.U64(p); got != 0 {
		t.Fatalf("unfenced flush survived the crash: %#x", got)
	}
	if got := h2.U64(p.Add(128)); got != 0 {
		t.Fatalf("unfenced flush survived the crash: %#x", got)
	}
}

func TestShadowFlushThenFenceDurable(t *testing.T) {
	h, path := shadowHeap(t, 1<<20)
	p, err := h.Alloc(256)
	if err != nil {
		t.Fatal(err)
	}
	h.SetU64(p, 0x1234)
	h.SetU64(p.Add(128), 0x5678)
	h.Flush(p, 8)
	h.Flush(p.Add(128), 8)
	h.Fence() // publishes both queued flushes
	crashAtNextBarrier(t, h, 1, func() { h.Fence() })
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	h2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Close()
	if got := h2.U64(p); got != 0x1234 {
		t.Fatalf("fenced flush lost: %#x", got)
	}
	if got := h2.U64(p.Add(128)); got != 0x5678 {
		t.Fatalf("fenced flush lost: %#x", got)
	}
}

func TestShadowFenceDoesNotPublishLaterStores(t *testing.T) {
	h, path := shadowHeap(t, 1<<20)
	p, err := h.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	h.SetU64(p, 0x1)
	h.Flush(p, 8)
	h.SetU64(p, 0x2) // dirties the line again after the flush
	h.Fence()        // publishes the line — mapping holds 0x2 by now
	// The pending queue records ranges, not values, so the fence publishes
	// whatever the mapping holds — matching hardware, where a store to an
	// already-flushed line before the fence may or may not be covered.
	// What must NEVER happen is a store after the fence becoming durable
	// without a new flush+fence.
	h.SetU64(p, 0x3)
	crashAtNextBarrier(t, h, 1, func() { h.Fence() })
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	h2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Close()
	if got := h2.U64(p); got == 0x3 {
		t.Fatalf("store issued after the publishing fence became durable: %#x", got)
	}
}

// TestShadowTearSurvivesReopen: the torn image is what the device holds,
// so it is what the next Open must see. Words the tear kept must not be
// reverted on the way out (Close once restored the pre-crash durable
// image over them, which turned every tear seed into pure loss).
func TestShadowTearSurvivesReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "heap.nvm")
	h, err := Create(path, 1<<20, WithShadow())
	if err != nil {
		t.Fatal(err)
	}
	p, err := h.Alloc(256)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 32; i++ {
		h.SetU64(p.Add(i*8), 0xdead0000+i)
	}
	h.SetTearSeed(42)
	crashAtNextBarrier(t, h, 1, func() { h.Fence() })
	atCrash := append([]byte(nil), h.Bytes(p, 256)...)
	h.SetU64(p, 0xbad) // a straggler after the power cut must still not reach the file
	h.Close()

	h2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Close()
	if got := h2.Bytes(p, 256); !bytes.Equal(got, atCrash) {
		t.Fatalf("reopened heap differs from the crash image:\n got  %x\n want %x", got, atCrash)
	}
}

// TestShadowTearFlushed: lines flushed since the last fence are lost
// whole by a tearing crash unless SetTearFlushed lets them tear, in which
// case some of their words survive and some do not; unflushed dirty lines
// tear either way.
func TestShadowTearFlushed(t *testing.T) {
	run := func(tearFlushed bool) (flushedKept, unflushedKept int) {
		path := filepath.Join(t.TempDir(), "heap.nvm")
		h, err := Create(path, 1<<20, WithShadow())
		if err != nil {
			t.Fatal(err)
		}
		defer h.Close()
		a, _ := h.Alloc(256)
		b, _ := h.Alloc(256)
		for i := uint64(0); i < 32; i++ {
			h.SetU64(a.Add(i*8), 1+i)
			h.SetU64(b.Add(i*8), 1+i)
		}
		h.Flush(a, 256) // a is flushed and awaits the fence; b was never flushed
		h.SetTearSeed(7)
		h.SetTearFlushed(tearFlushed)
		crashAtNextBarrier(t, h, 1, func() { h.Fence() })
		for i := uint64(0); i < 32; i++ {
			if h.U64(a.Add(i*8)) != 0 {
				flushedKept++
			}
			if h.U64(b.Add(i*8)) != 0 {
				unflushedKept++
			}
		}
		return flushedKept, unflushedKept
	}
	if f, u := run(false); f != 0 || u == 0 || u == 32 {
		t.Fatalf("default tear: %d flushed and %d unflushed words of 32 survived, want none and some", f, u)
	}
	if f, u := run(true); f == 0 || f == 32 || u == 0 || u == 32 {
		t.Fatalf("tear with SetTearFlushed: %d flushed and %d unflushed words of 32 survived, want some of each", f, u)
	}
}
