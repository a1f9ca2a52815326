package mvcc

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestOwnersAppendGet(t *testing.T) {
	var o owners
	const n = 10000 // several segments
	for i := uint64(0); i < n; i++ {
		idx, err := o.Append(i * 2)
		if err != nil {
			t.Fatal(err)
		}
		if idx != i {
			t.Fatalf("index %d, want %d", idx, i)
		}
	}
	if o.Len() != n {
		t.Fatalf("Len = %d", o.Len())
	}
	for i := uint64(0); i < n; i++ {
		if o.Get(i) != i*2 {
			t.Fatalf("Get(%d) = %d", i, o.Get(i))
		}
	}
}

func TestOwnersAppendN(t *testing.T) {
	var o owners
	batch := make([]uint64, 3000) // across the first two segments
	for i := range batch {
		batch[i] = uint64(i)
	}
	first, err := o.AppendN(batch)
	if err != nil || first != 0 {
		t.Fatalf("first=%d err=%v", first, err)
	}
	first, _ = o.AppendN([]uint64{9, 8})
	if first != 3000 || o.Len() != 3002 {
		t.Fatalf("first=%d len=%d", first, o.Len())
	}
	for i := range batch {
		if o.Get(uint64(i)) != uint64(i) {
			t.Fatalf("first batch: Get(%d) = %d", i, o.Get(uint64(i)))
		}
	}
	if o.Get(3000) != 9 || o.Get(3001) != 8 {
		t.Fatal("second batch corrupted")
	}
}

func TestOwnersOutOfRange(t *testing.T) {
	var o owners
	o.Append(1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	o.Get(1)
}

func TestOwnersConcurrentReadersWithWriter(t *testing.T) {
	var o owners
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
				n := o.Len()
				for i := uint64(0); i < n; i++ {
					if got := o.Get(i); got != i {
						t.Errorf("Get(%d) = %d during concurrent append", i, got)
						return
					}
				}
			}
		}()
	}
	for i := uint64(0); i < 50000; i++ {
		o.Append(i)
	}
	close(done)
	wg.Wait()
}

func TestOwnersMatchesSliceProperty(t *testing.T) {
	f := func(vals []uint64, cut uint16) bool {
		var o owners
		for _, x := range vals {
			o.Append(x)
		}
		n := uint64(cut) % (uint64(len(vals)) + 1)
		o.Truncate(n)
		o.AppendN(vals[n:])
		if o.Len() != uint64(len(vals)) {
			return false
		}
		for i, x := range vals {
			if o.Get(uint64(i)) != x {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestOwnersExtend: extension appends zeros, from empty and over owners a
// Truncate left behind, and Append carries on after it.
func TestOwnersExtend(t *testing.T) {
	var o owners
	if err := o.Extend(5000); err != nil || o.Len() != 5000 {
		t.Fatalf("Extend(5000): len %d, err %v", o.Len(), err)
	}
	for i := uint64(0); i < 5000; i++ {
		if o.Get(i) != 0 {
			t.Fatalf("row %d owned by %d after Extend", i, o.Get(i))
		}
		o.CompareAndSwap(i, 0, 7)
	}
	o.Truncate(10)
	if err := o.Extend(5); err != nil || o.Len() != 10 {
		t.Fatalf("Extend below Len: len %d, err %v", o.Len(), err)
	}
	if err := o.Extend(3000); err != nil || o.Len() != 3000 {
		t.Fatalf("Extend(3000): len %d, err %v", o.Len(), err)
	}
	for i := uint64(0); i < 3000; i++ {
		want := uint64(0)
		if i < 10 {
			want = 7 // kept by the Truncate
		}
		if o.Get(i) != want {
			t.Fatalf("row %d owned by %d after Truncate and Extend, want %d", i, o.Get(i), want)
		}
	}
	if i, err := o.Append(9); err != nil || i != 3000 || o.Get(3000) != 9 {
		t.Fatalf("Append after Extend: index %d, err %v", i, err)
	}
}
