package pstruct

import (
	"path/filepath"
	"testing"
	"testing/quick"

	"hyrisenv/internal/nvm"
)

func testHeap(t *testing.T) (*nvm.Heap, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "heap.nvm")
	h, err := nvm.Create(path, 64<<20)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	t.Cleanup(func() { h.Close() })
	return h, path
}

func reopen(t *testing.T, h *nvm.Heap, path string) *nvm.Heap {
	t.Helper()
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	h2, err := nvm.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h2.Close() })
	return h2
}

func TestVectorAppendGet(t *testing.T) {
	h, _ := testHeap(t)
	for _, es := range []uint64{4, 8} {
		v, err := NewVector(h, es, 4)
		if err != nil {
			t.Fatal(err)
		}
		const n = 1000
		for i := uint64(0); i < n; i++ {
			idx, err := v.Append(i * 3)
			if err != nil {
				t.Fatal(err)
			}
			if idx != i {
				t.Fatalf("Append index = %d, want %d", idx, i)
			}
		}
		if v.Len() != n {
			t.Fatalf("Len = %d, want %d", v.Len(), n)
		}
		for i := uint64(0); i < n; i++ {
			if got := v.Get(i); got != i*3 {
				t.Fatalf("elemSize %d: Get(%d) = %d, want %d", es, i, got, i*3)
			}
		}
	}
}

func TestVectorElemSizeValidation(t *testing.T) {
	h, _ := testHeap(t)
	if _, err := NewVector(h, 3, 4); err == nil {
		t.Fatal("element size 3 accepted")
	}
	if _, err := NewVector(h, 8, 0); err == nil {
		t.Fatal("baseLog 0 accepted")
	}
}

func TestVector32BitTruncation(t *testing.T) {
	h, _ := testHeap(t)
	v, _ := NewVector(h, 4, 4)
	v.Append(0x1_0000_0002)
	if got := v.Get(0); got != 2 {
		t.Fatalf("Get = %d, want truncated 2", got)
	}
}

func TestVectorSurvivesReopen(t *testing.T) {
	h, path := testHeap(t)
	v, _ := NewVector(h, 8, 2)
	for i := uint64(0); i < 100; i++ {
		v.Append(i * i)
	}
	if err := h.SetRoot("vec", v.Root(), 0); err != nil {
		t.Fatal(err)
	}
	h2 := reopen(t, h, path)
	root, _, ok := h2.Root("vec")
	if !ok {
		t.Fatal("root lost")
	}
	v2 := AttachVector(h2, root)
	if v2.Len() != 100 {
		t.Fatalf("Len after reopen = %d", v2.Len())
	}
	for i := uint64(0); i < 100; i++ {
		if got := v2.Get(i); got != i*i {
			t.Fatalf("Get(%d) = %d, want %d", i, got, i*i)
		}
	}
	// And it must still be appendable.
	if _, err := v2.Append(424242); err != nil {
		t.Fatal(err)
	}
	if got := v2.Get(100); got != 424242 {
		t.Fatalf("post-reopen append readback = %d", got)
	}
}

func TestVectorAppendN(t *testing.T) {
	h, _ := testHeap(t)
	v, _ := NewVector(h, 8, 2) // tiny segments to force spanning
	batch := make([]uint64, 1000)
	for i := range batch {
		batch[i] = uint64(i) + 7
	}
	first, err := v.AppendN(batch)
	if err != nil {
		t.Fatal(err)
	}
	if first != 0 || v.Len() != 1000 {
		t.Fatalf("first=%d len=%d", first, v.Len())
	}
	for i := uint64(0); i < 1000; i++ {
		if v.Get(i) != i+7 {
			t.Fatalf("Get(%d) = %d", i, v.Get(i))
		}
	}
	// A second batch appends after the first.
	first, _ = v.AppendN([]uint64{1, 2, 3})
	if first != 1000 || v.Len() != 1003 {
		t.Fatalf("second batch first=%d len=%d", first, v.Len())
	}
}

func TestVectorSetAndScan(t *testing.T) {
	h, _ := testHeap(t)
	v, _ := NewVector(h, 8, 3)
	for i := uint64(0); i < 50; i++ {
		v.Append(0)
	}
	v.SetNoPersist(17, 99)
	v.PersistAt(17)
	v.SetNoPersist(18, 100)
	v.PersistAt(18)
	var sum uint64
	v.Scan(func(i, val uint64) bool { sum += val; return true })
	if sum != 199 {
		t.Fatalf("scan sum = %d, want 199", sum)
	}
	// Early termination.
	var count int
	v.Scan(func(i, val uint64) bool { count++; return count < 5 })
	if count != 5 {
		t.Fatalf("scan visited %d, want 5", count)
	}
}

func TestVectorOutOfRangePanics(t *testing.T) {
	h, _ := testHeap(t)
	v, _ := NewVector(h, 8, 3)
	v.Append(1)
	for _, fn := range []func(){
		func() { v.Get(1) },
		func() { v.SetNoPersist(1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("out-of-range access did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestVectorCrashDuringAppendInvisible(t *testing.T) {
	h, path := testHeap(t)
	v, _ := NewVector(h, 8, 3)
	h.SetRoot("v", v.Root(), 0)
	for i := uint64(0); i < 10; i++ {
		v.Append(i)
	}
	// Crash after the element persist but before the length persist:
	// element 10 must be invisible after restart.
	func() {
		defer func() { recover() }()
		h.FailAfter(1)
		v.Append(999)
		t.Fatal("expected simulated crash")
	}()
	h2 := reopen(t, h, path)
	root, _, _ := h2.Root("v")
	v2 := AttachVector(h2, root)
	if v2.Len() != 10 {
		t.Fatalf("Len after crash = %d, want 10 (torn append leaked in)", v2.Len())
	}
	// The vector must remain appendable and overwrite the torn slot.
	v2.Append(10)
	if v2.Get(10) != 10 {
		t.Fatalf("Get(10) = %d", v2.Get(10))
	}
}

func TestVectorLocateProperty(t *testing.T) {
	h, _ := testHeap(t)
	v, _ := NewVector(h, 8, 3)
	f := func(i uint32) bool {
		seg, off := v.locate(uint64(i))
		if seg < 0 || seg >= vecMaxSegs {
			return false
		}
		// Reconstruct the logical index from (seg, off).
		base := uint64(8)
		before := base * ((uint64(1) << seg) - 1)
		return before+off == uint64(i) && off < base<<seg
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestVectorSpanLoad: the bulk reads agree with Get across segment
// boundaries (segments of 4, 8, 16, ... elements): Span for 8-byte
// elements, Load for 4-byte ones, and each refuses the other size.
func TestVectorSpanLoad(t *testing.T) {
	h, _ := testHeap(t)
	const n = 200
	for _, elemSize := range []uint64{8, 4} {
		v, err := NewVector(h, elemSize, 2)
		if err != nil {
			t.Fatal(err)
		}
		for i := uint64(0); i < n; i++ {
			if _, err := v.Append(i*3 + 1); err != nil {
				t.Fatal(err)
			}
		}
		for _, r := range [][2]uint64{{0, 0}, {0, 1}, {0, 4}, {3, 5}, {4, 12}, {11, 13}, {0, n}, {59, 61}, {n, n}} {
			lo, hi := r[0], r[1]
			if elemSize == 4 {
				dst := make([]uint32, hi-lo)
				v.Load(lo, dst)
				for i := range dst {
					if want := v.Get(lo + uint64(i)); uint64(dst[i]) != want {
						t.Fatalf("[%d,%d): Load element %d = %d, want %d", lo, hi, lo+uint64(i), dst[i], want)
					}
				}
				continue
			}
			at := lo
			for at < hi {
				run := v.Span(at, hi)
				if len(run) == 0 {
					t.Fatalf("Span(%d, %d) is empty", at, hi)
				}
				for i, got := range run {
					if want := v.Get(at + uint64(i)); got != want {
						t.Fatalf("[%d,%d): Span element %d = %d, want %d", lo, hi, at+uint64(i), got, want)
					}
				}
				at += uint64(len(run))
			}
		}
		for what, read := range map[string]func(){
			"Load past Len":  func() { v.Load(n-1, make([]uint32, 2)) },
			"Span past Len":  func() { v.Span(n-1, n+1) },
			"the other size": func() { v.Load(0, make([]uint32, 1)); v.Span(0, 1) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("size %d: %s did not panic", elemSize, what)
					}
				}()
				read()
			}()
		}
	}
}
