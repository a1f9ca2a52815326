package pstruct

import (
	"fmt"
	"testing"
	"testing/quick"

	"hyrisenv/internal/nvm"
)

func TestPHashInsertGet(t *testing.T) {
	h, _ := testHeap(t)
	p, err := NewPHash(h, 4) // 16 buckets, forcing chains
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.Get([]byte("missing")); ok {
		t.Fatal("empty map returned a value")
	}
	const n = 300
	for i := 0; i < n; i++ {
		existed, err := p.Insert([]byte(fmt.Sprintf("k%04d", i)), uint64(i))
		if err != nil || existed {
			t.Fatalf("insert %d: existed=%v err=%v", i, existed, err)
		}
	}
	if p.Len() != n {
		t.Fatalf("Len = %d", p.Len())
	}
	for i := 0; i < n; i++ {
		v, ok := p.Get([]byte(fmt.Sprintf("k%04d", i)))
		if !ok || v != uint64(i) {
			t.Fatalf("Get(%d) = %d,%v", i, v, ok)
		}
	}
	// Overwrite.
	existed, _ := p.Insert([]byte("k0001"), 999)
	if !existed {
		t.Fatal("overwrite not detected")
	}
	if v, _ := p.Get([]byte("k0001")); v != 999 {
		t.Fatalf("overwrite lost: %d", v)
	}
	if p.Len() != n {
		t.Fatalf("Len after overwrite = %d", p.Len())
	}
}

func TestPHashSurvivesReopen(t *testing.T) {
	h, path := testHeap(t)
	p, _ := NewPHash(h, 6)
	for i := 0; i < 100; i++ {
		p.Insert([]byte(fmt.Sprintf("k%d", i)), uint64(i*3))
	}
	h.SetRoot("ph", p.Root(), 0)
	h2 := reopen(t, h, path)
	root, _, _ := h2.Root("ph")
	p2 := AttachPHash(h2, root)
	if p2.Len() != 100 {
		t.Fatalf("Len after reopen = %d", p2.Len())
	}
	for i := 0; i < 100; i++ {
		if v, ok := p2.Get([]byte(fmt.Sprintf("k%d", i))); !ok || v != uint64(i*3) {
			t.Fatalf("Get after reopen: %d %v", v, ok)
		}
	}
	// Writable after restart.
	p2.Insert([]byte("post"), 7)
	if v, ok := p2.Get([]byte("post")); !ok || v != 7 {
		t.Fatal("post-restart insert lost")
	}
}

func TestPHashCrashMidInsert(t *testing.T) {
	h, path := testHeap(t)
	p, _ := NewPHash(h, 4)
	h.SetRoot("ph", p.Root(), 0)
	for i := 0; i < 20; i++ {
		p.Insert([]byte(fmt.Sprintf("pre%02d", i)), uint64(i))
	}
	for fail := int64(1); fail <= 4; fail++ {
		func() {
			defer func() { recover() }()
			h.FailAfter(fail)
			p.Insert([]byte(fmt.Sprintf("crash%d", fail)), 1000)
			h.FailAfter(0)
		}()
		h.FailAfter(0)
		h2 := reopen(t, h, path)
		root, _, _ := h2.Root("ph")
		p2 := AttachPHash(h2, root)
		for i := 0; i < 20; i++ {
			k := fmt.Sprintf("pre%02d", i)
			if v, ok := p2.Get([]byte(k)); !ok || v != uint64(i) {
				t.Fatalf("fail=%d: key %q lost", fail, k)
			}
		}
		h, p = h2, p2
	}
}

func TestPHashScanAndBlocks(t *testing.T) {
	h, _ := testHeap(t)
	p, _ := NewPHash(h, 3)
	for i := 0; i < 30; i++ {
		p.Insert([]byte(fmt.Sprintf("k%d", i)), uint64(i))
	}
	seen := map[string]uint64{}
	p.Scan(func(k []byte, v uint64) bool { seen[string(k)] = v; return true })
	if len(seen) != 30 {
		t.Fatalf("scan saw %d", len(seen))
	}
	var stop int
	p.Scan(func([]byte, uint64) bool { stop++; return false })
	if stop != 1 {
		t.Fatalf("scan early stop: %d", stop)
	}
	var blocks int
	p.Blocks(func(nvm.PPtr) { blocks++ })
	if blocks != 3 { // root + arena root + the one arena segment that holds all 30 nodes
		t.Fatalf("Blocks yielded %d", blocks)
	}
}

func TestPHashMatchesMapProperty(t *testing.T) {
	h, _ := testHeap(t)
	p, _ := NewPHash(h, 5)
	model := map[string]uint64{}
	f := func(key uint16, val uint64) bool {
		k := fmt.Sprintf("p%d", key%500)
		if _, err := p.Insert([]byte(k), val); err != nil {
			return false
		}
		model[k] = val
		v, ok := p.Get([]byte(k))
		if !ok || v != val {
			return false
		}
		return p.Len() == uint64(len(model))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}
