package vec

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestVolatileAppendGet(t *testing.T) {
	v := NewVolatile(2)
	const n = 10000
	for i := uint64(0); i < n; i++ {
		idx, err := v.Append(i * 2)
		if err != nil {
			t.Fatal(err)
		}
		if idx != i {
			t.Fatalf("index %d, want %d", idx, i)
		}
	}
	if v.Len() != n {
		t.Fatalf("Len = %d", v.Len())
	}
	for i := uint64(0); i < n; i++ {
		if v.Get(i) != i*2 {
			t.Fatalf("Get(%d) = %d", i, v.Get(i))
		}
	}
}

func TestVolatileAppendN(t *testing.T) {
	v := NewVolatile(2)
	batch := make([]uint64, 777)
	for i := range batch {
		batch[i] = uint64(i)
	}
	first, err := v.AppendN(batch)
	if err != nil || first != 0 {
		t.Fatalf("first=%d err=%v", first, err)
	}
	first, _ = v.AppendN([]uint64{9, 8})
	if first != 777 || v.Len() != 779 {
		t.Fatalf("first=%d len=%d", first, v.Len())
	}
	if v.Get(777) != 9 || v.Get(778) != 8 {
		t.Fatal("second batch corrupted")
	}
}

func TestVolatileSetScan(t *testing.T) {
	v := NewVolatile(3)
	for i := 0; i < 20; i++ {
		v.Append(1)
	}
	v.Set(5, 100)
	v.SetNoPersist(6, 200)
	v.PersistAt(6)
	var sum uint64
	v.Scan(func(_, val uint64) bool { sum += val; return true })
	if sum != 18+300 {
		t.Fatalf("sum = %d", sum)
	}
}

func TestVolatileOutOfRange(t *testing.T) {
	v := NewVolatile(3)
	v.Append(1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	v.Get(1)
}

func TestVolatileConcurrentReadersWithWriter(t *testing.T) {
	v := NewVolatile(4)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				n := v.Len()
				for i := uint64(0); i < n; i++ {
					if got := v.Get(i); got != i {
						t.Errorf("Get(%d) = %d during concurrent append", i, got)
						return
					}
				}
			}
		}()
	}
	for i := uint64(0); i < 50000; i++ {
		v.Append(i)
	}
	close(done)
	wg.Wait()
}

func TestVolatileMatchesSliceProperty(t *testing.T) {
	f := func(vals []uint64) bool {
		v := NewVolatile(2)
		for _, x := range vals {
			v.Append(x)
		}
		if v.Len() != uint64(len(vals)) {
			return false
		}
		ok := true
		v.Scan(func(i, x uint64) bool {
			if x != vals[i] {
				ok = false
			}
			return ok
		})
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestVolatileSpanLoad covers [lo, hi) with runs and copies it out, over
// ranges that start and end inside, on and across segment boundaries
// (segments of 4, 8, 16, ... elements).
func TestVolatileSpanLoad(t *testing.T) {
	v := NewVolatile(2)
	const n = 200
	for i := uint64(0); i < n; i++ {
		v.Append(i * 3)
	}
	for _, r := range [][2]uint64{{0, 0}, {0, 1}, {0, 4}, {3, 5}, {4, 12}, {11, 13}, {0, n}, {59, 61}, {n, n}} {
		lo, hi := r[0], r[1]
		var got []uint64
		for at := lo; at < hi; {
			run := v.Span(at, hi)
			if len(run) == 0 {
				t.Fatalf("Span(%d, %d) is empty", at, hi)
			}
			got = append(got, run...)
			at += uint64(len(run))
		}
		dst := make([]uint64, hi-lo)
		v.Load(lo, dst)
		for i := range dst {
			if want := (lo + uint64(i)) * 3; dst[i] != want || got[i] != want {
				t.Fatalf("[%d,%d): element %d: Load %d, Span %d, want %d", lo, hi, lo+uint64(i), dst[i], got[i], want)
			}
		}
		if uint64(len(got)) != hi-lo {
			t.Fatalf("[%d,%d): runs cover %d elements", lo, hi, len(got))
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Span past Len did not panic")
		}
	}()
	v.Span(n-1, n+1)
}

// TestVolatileExtend: extension appends zeros, from empty and over
// elements a Truncate left behind, and Append carries on after it.
func TestVolatileExtend(t *testing.T) {
	v := NewVolatile(2)
	if err := v.Extend(1000); err != nil || v.Len() != 1000 {
		t.Fatalf("Extend(1000): len %d, err %v", v.Len(), err)
	}
	for i := uint64(0); i < 1000; i++ {
		if v.Get(i) != 0 {
			t.Fatalf("element %d = %d after Extend", i, v.Get(i))
		}
	}
	for i := uint64(0); i < 1000; i++ {
		v.Set(i, 7)
	}
	v.Truncate(10)
	if err := v.Extend(5); err != nil || v.Len() != 10 {
		t.Fatalf("Extend below Len: len %d, err %v", v.Len(), err)
	}
	if err := v.Extend(600); err != nil || v.Len() != 600 {
		t.Fatalf("Extend(600): len %d, err %v", v.Len(), err)
	}
	for i := uint64(0); i < 600; i++ {
		want := uint64(0)
		if i < 10 {
			want = 7 // kept by the Truncate
		}
		if v.Get(i) != want {
			t.Fatalf("element %d = %d after Truncate and Extend, want %d", i, v.Get(i), want)
		}
	}
	if i, err := v.Append(9); err != nil || i != 600 || v.Get(600) != 9 {
		t.Fatalf("Append after Extend: index %d, err %v", i, err)
	}
}
