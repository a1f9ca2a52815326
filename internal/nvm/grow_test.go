package nvm

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// growAlloc bump-allocates blocks of n bytes until the heap has grown at
// least once, returning the pointers. Fails the test on any error.
func growAlloc(t *testing.T, h *Heap, n uint64) []PPtr {
	t.Helper()
	start := h.Stats().Grows
	var ptrs []PPtr
	for i := 0; i < 4096; i++ {
		p, err := h.Alloc(n)
		if err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
		ptrs = append(ptrs, p)
		if h.Stats().Grows > start {
			return ptrs
		}
	}
	t.Fatalf("heap never grew after %d allocations", len(ptrs))
	return nil
}

func TestGrowGeometric(t *testing.T) {
	path := filepath.Join(t.TempDir(), "heap.nvm")
	const initial = 1 << 20
	h, err := Create(path, initial, WithGrowLimit(16<<20))
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	if h.Size() != initial {
		t.Fatalf("initial size %d, want %d", h.Size(), initial)
	}
	// A block before growth; its slice must stay valid across the remap.
	p0, err := h.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	old := h.Bytes(p0, 64)
	copy(old, "survives the remap")
	h.Persist(p0, 64)
	if err := h.SetRoot("grow:a", p0, 0); err != nil {
		t.Fatal(err)
	}

	growAlloc(t, h, 64<<10)
	if h.Size() != 2*initial {
		t.Fatalf("size after first growth %d, want doubled %d", h.Size(), 2*initial)
	}
	// The pre-growth slice still reads and persists correctly: it aliases
	// the superseded mapping, which views the same file.
	if string(old[:18]) != "survives the remap" {
		t.Fatalf("pre-growth slice corrupted: %q", old[:18])
	}
	copy(old[18:], "!")
	if got := h.Bytes(p0, 64); string(got[:19]) != "survives the remap!" {
		t.Fatalf("write through old mapping not visible in new: %q", got[:19])
	}

	// File size follows the heap size.
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(st.Size()) != h.Size() {
		t.Fatalf("file size %d != heap size %d", st.Size(), h.Size())
	}
}

func TestGrowLimitExhaustion(t *testing.T) {
	path := filepath.Join(t.TempDir(), "heap.nvm")
	h, err := Create(path, 1<<20, WithGrowLimit(2<<20))
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
		t.Fatalf("want ErrOutOfMemory at the grow limit, got %v", lastErr)
	}
	if h.Size() != 2<<20 {
		t.Fatalf("heap stopped at %d, want the 2 MiB limit", h.Size())
	}
}

func TestGrowDisabledKeepsFixedSize(t *testing.T) {
	path := filepath.Join(t.TempDir(), "heap.nvm")
	h, err := Create(path, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
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
}

func TestGrowSurvivesReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "heap.nvm")
	h, err := Create(path, 1<<20, WithGrowLimit(16<<20))
	if err != nil {
		t.Fatal(err)
	}
	ptrs := growAlloc(t, h, 32<<10)
	last := ptrs[len(ptrs)-1]
	b := h.Bytes(last, 32<<10)
	copy(b, "beyond the original arena")
	h.Persist(last, 32<<10)
	if err := h.SetRoot("grow:last", last, uint64(len(ptrs))); err != nil {
		t.Fatal(err)
	}
	grown := h.Size()
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}

	h2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Close()
	if h2.Size() != grown {
		t.Fatalf("reopened size %d, want %d", h2.Size(), grown)
	}
	p, aux, ok := h2.Root("grow:last")
	if !ok || p != last || aux != uint64(len(ptrs)) {
		t.Fatalf("root lost across reopen: %v %d %d", ok, p, aux)
	}
	if got := h2.Bytes(p, 25); string(got) != "beyond the original arena" {
		t.Fatalf("grown-arena data lost: %q", got)
	}
}

// TestGrowAdoptsLongerFile simulates a crash between the grow's file
// extension and its header persist: the file is longer than the header
// records. Open must adopt the larger size rather than refuse the heap.
func TestGrowAdoptsLongerFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "heap.nvm")
	h, err := Create(path, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, 2<<20); err != nil {
		t.Fatal(err)
	}
	h2, err := Open(path)
	if err != nil {
		t.Fatalf("open after simulated mid-grow crash: %v", err)
	}
	defer h2.Close()
	if h2.Size() != 2<<20 {
		t.Fatalf("adopted size %d, want file size %d", h2.Size(), 2<<20)
	}
}

// TestGrowShadowImage is the regression test for the remap fix: in
// pessimistic shadow mode the durable image must cover the grown arena,
// and a simulated crash after growth must revert unfenced lines in the
// *new* region of the heap — a shadow still sized for the initial arena
// would either panic or silently leak unpersisted bytes into recovery.
func TestGrowShadowImage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "heap.nvm")
	h, err := Create(path, 1<<20, WithGrowLimit(8<<20), WithShadow())
	if err != nil {
		t.Fatal(err)
	}
	growAlloc(t, h, 32<<10)
	// One more block: the growth-triggering allocation itself may span the
	// old boundary, but this one lies wholly in the grown region.
	last, err := h.Alloc(32 << 10)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(last) < 1<<20 {
		t.Fatalf("expected allocation beyond the initial arena, got %d", last)
	}

	// A persisted write in the grown region survives the crash...
	kept := h.Bytes(last, 64)
	copy(kept, "persisted in grown region")
	h.Persist(last, 64)
	// ...an unpersisted one does not.
	lost := h.Bytes(last.Add(64), 64)
	copy(lost, "never fenced")

	func() {
		defer func() {
			if r := recover(); r == nil || !errors.Is(r.(error), ErrSimulatedCrash) {
				t.Fatalf("expected simulated crash, got %v", r)
			}
		}()
		h.FailAfter(1)
		h.Fence()
	}()
	if !h.Crashed() {
		t.Fatal("crash not applied")
	}
	if string(kept[:25]) != "persisted in grown region" {
		t.Fatalf("persisted grown-region line lost: %q", kept[:25])
	}
	for _, b := range lost[:12] {
		if b != 0 {
			t.Fatalf("unfenced grown-region line survived the crash: %q", lost[:12])
		}
	}
	h.Close()
}

// countingInjector counts AllocFault consultations and can fail them.
type countingInjector struct {
	calls int
	fail  bool
}

func (c *countingInjector) AllocFault(size uint64) error {
	c.calls++
	if c.fail {
		return ErrOutOfMemory
	}
	return nil
}
func (c *countingInjector) BarrierDelay() time.Duration { return 0 }
func (c *countingInjector) DrainDelay() time.Duration   { return 0 }

// TestGrowKeepsFaultInjector is the other half of the remap fix: an
// injector armed before growth must keep intercepting allocations (and
// barriers) on the grown heap.
func TestGrowKeepsFaultInjector(t *testing.T) {
	path := filepath.Join(t.TempDir(), "heap.nvm")
	h, err := Create(path, 1<<20, WithGrowLimit(8<<20))
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	inj := &countingInjector{}
	h.SetFaultInjector(inj)
	growAlloc(t, h, 32<<10)
	before := inj.calls
	if before == 0 {
		t.Fatal("injector never consulted before growth")
	}
	inj.fail = true
	if _, err := h.Alloc(64); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("injected fault not delivered after growth: %v", err)
	}
	if inj.calls <= before {
		t.Fatal("injector not consulted after growth")
	}
}
