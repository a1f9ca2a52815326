package pstruct

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"hyrisenv/internal/nvm"
)

// piece is one arena allocation and what was written into it.
type piece struct {
	p    nvm.PPtr
	data []byte
}

func fillPiece(h *nvm.Heap, a *Arena, n uint64, tag byte) (piece, error) {
	p, err := a.Alloc(n)
	if err != nil {
		return piece{}, err
	}
	data := bytes.Repeat([]byte{tag}, int(n))
	copy(h.Bytes(p, n), data)
	h.Persist(p, n)
	return piece{p, data}, nil
}

// checkPieces verifies that every piece still reads back, lies inside the
// arena below the cursor, is 8-byte aligned and overlaps no other.
func checkPieces(t testing.TB, h *nvm.Heap, a *Arena, pieces []piece) {
	t.Helper()
	if err := a.Check(); err != nil {
		t.Fatalf("arena check: %v", err)
	}
	type span struct{ lo, hi uint64 }
	var spans []span
	for i, pc := range pieces {
		n := uint64(len(pc.data))
		if uint64(pc.p)%8 != 0 {
			t.Fatalf("piece %d at %d is not 8-byte aligned", i, pc.p)
		}
		if err := a.Contains(pc.p, n); err != nil {
			t.Fatalf("piece %d: %v", i, err)
		}
		if !bytes.Equal(h.Bytes(pc.p, n), pc.data) {
			t.Fatalf("piece %d at %d (%d bytes) does not read back", i, pc.p, n)
		}
		for j, s := range spans {
			if uint64(pc.p) < s.hi && s.lo < uint64(pc.p)+n {
				t.Fatalf("piece %d overlaps piece %d", i, j)
			}
		}
		spans = append(spans, span{uint64(pc.p), uint64(pc.p) + n})
	}
}

// TestArenaAcrossSegments: pieces that do not fit the rest of a segment
// move to the next one, a piece larger than a whole segment skips it, and
// everything survives a reopen with the cursor where it was.
func TestArenaAcrossSegments(t *testing.T) {
	h, path := testHeap(t)
	a, err := NewArena(h)
	if err != nil {
		t.Fatal(err)
	}
	h.SetRoot("arena", a.Root(), 0)
	var pieces []piece
	// 4 KiB first segment: 3000 + 3000 crosses into the second; 20000
	// fits neither the second (8 KiB) nor the third (16 KiB).
	for i, n := range []uint64{1, 7, 8, 3000, 3000, 13, 20000, 64, 1 << 20, 9} {
		pc, err := fillPiece(h, a, n, byte(i+1))
		if err != nil {
			t.Fatal(err)
		}
		pieces = append(pieces, pc)
	}
	checkPieces(t, h, a, pieces)
	used := a.Used()

	h2 := reopen(t, h, path)
	root, _, _ := h2.Root("arena")
	a2 := AttachArena(h2, root)
	if a2.Used() != used {
		t.Fatalf("cursor after reopen = %d, want %d", a2.Used(), used)
	}
	checkPieces(t, h2, a2, pieces)
	pc, err := fillPiece(h2, a2, 100, 0xEE)
	if err != nil {
		t.Fatal(err)
	}
	checkPieces(t, h2, a2, append(pieces, pc))

	var blocks int
	a2.Blocks(func(nvm.PPtr) { blocks++ })
	if blocks < 4 || blocks > 1+vecMaxSegs {
		t.Fatalf("Blocks yielded %d blocks for a root and a handful of segments", blocks)
	}
	if err := a2.Contains(pc.p.Add(96), 16); err == nil {
		t.Fatal("Contains accepted a range beyond the cursor")
	}
	if err := a2.Contains(a2.Root(), 8); err == nil {
		t.Fatal("Contains accepted a pointer outside every segment")
	}
}

// crashAt runs fn with the heap armed to cut power at its n-th barrier
// and reports whether the cut happened.
func crashAt(h *nvm.Heap, n int64, fn func()) (crashed bool) {
	defer func() {
		h.FailAfter(0)
		if r := recover(); r != nil {
			if err, ok := r.(error); !ok || !errors.Is(err, nvm.ErrSimulatedCrash) {
				panic(r)
			}
			crashed = true
		}
	}()
	h.FailAfter(n)
	fn()
	return false
}

func shadowHeap(t *testing.T, tear int64) (*nvm.Heap, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "heap.nvm")
	h, err := nvm.Create(path, 8<<20, nvm.WithShadow())
	if err != nil {
		t.Fatal(err)
	}
	h.SetTearSeed(tear)
	return h, path
}

// TestArenaCursorCoversEveryLink is the arena invariant under the
// pessimistic crash model: power is cut at every barrier of an insert
// into the arena-backed skip list, with whole-line loss and with
// tearing, and after reopening, every node the structure reaches must
// lie below the durable cursor (SkipList.Check walks them with
// Arena.Contains), every earlier entry must still be there, and the
// interrupted one all there or not at all.
func TestArenaCursorCoversEveryLink(t *testing.T) {
	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%03d-%s", i, bytes.Repeat([]byte{'x'}, i%90))) }
	for _, tear := range []int64{0, 1, 2, 3} {
		for barrier := int64(1); ; barrier++ {
			h, path := shadowHeap(t, tear)
			s, err := NewSkipList(h)
			if err != nil {
				t.Fatal(err)
			}
			h.SetRoot("s", s.Root(), 0)
			// Enough entries to cross the arena's first segment, so
			// that some cuts fall where a segment is being linked.
			const pre = 60
			for i := 0; i < pre; i++ {
				if _, err := s.Insert(key(i), uint64(i)); err != nil {
					t.Fatal(err)
				}
			}
			crashed := crashAt(h, barrier, func() {
				for i := pre; i < pre+4; i++ {
					s.Insert(key(i), uint64(i))
				}
			})
			h.Close()
			if !crashed {
				break // the inserts have fewer barriers than this
			}
			h2, err := nvm.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			root, _, _ := h2.Root("s")
			s2 := AttachSkipList(h2, root)
			if err := s2.Check(); err != nil {
				t.Fatalf("tear %d barrier %d: %v", tear, barrier, err)
			}
			for i := 0; i < pre; i++ {
				if v, ok := s2.Get(key(i)); !ok || v != uint64(i) {
					t.Fatalf("tear %d barrier %d: entry %d lost (%d, %v)", tear, barrier, i, v, ok)
				}
			}
			for i := pre; i < pre+4; i++ {
				if v, ok := s2.Get(key(i)); ok && v != uint64(i) {
					t.Fatalf("tear %d barrier %d: interrupted entry %d reads %d", tear, barrier, i, v)
				}
			}
			// The structure takes the same keys again.
			for i := pre; i < pre+4; i++ {
				if _, err := s2.Insert(key(i), uint64(i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := s2.Check(); err != nil {
				t.Fatalf("tear %d barrier %d, after re-insert: %v", tear, barrier, err)
			}
			h2.Close()
		}
	}
}

// TestStagedUnpublishedInvisibleAfterReopen: a stage half followed by a
// fence and no publish half leaves nothing behind that a reopened
// structure can reach — for the vector, the skip list and a posting
// list whose head is a vector element — and the structure stays sound
// and takes the same insert afterwards.
func TestStagedUnpublishedInvisibleAfterReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "heap.nvm")
	h, err := nvm.Create(path, 8<<20, nvm.WithShadow())
	if err != nil {
		t.Fatal(err)
	}
	v, _ := NewVector(h, 8, 4)
	s, _ := NewSkipList(h)
	heads, _ := NewVector(h, 8, 4)
	h.SetRoot("v", v.Root(), 0)
	h.SetRoot("s", s.Root(), 0)
	h.SetRoot("heads", heads.Root(), 0)
	for i := uint64(0); i < 5; i++ {
		v.Append(i)
		s.Insert([]byte{'k', byte('0' + i)}, i)
	}
	heads.Append(ListEnd(100))

	// Stage everywhere, fence, and stop: the publish halves never run.
	if _, err := v.StageAppend(99); err != nil {
		t.Fatal(err)
	}
	if _, existed, err := s.StageInsert([]byte("staged"), 99); err != nil || existed {
		t.Fatal(existed, err)
	}
	node, err := ListStage(s.Arena(), 101, heads.Get(0))
	if err != nil {
		t.Fatal(err)
	}
	heads.StageSet(0, uint64(node))
	h.Fence()
	if v.Len() != 5 {
		t.Fatalf("staged element already counted: Len = %d", v.Len())
	}
	if _, ok := s.Get([]byte("staged")); ok {
		t.Fatal("staged skip-list node already reachable")
	}
	h.Close()

	h2, err := nvm.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Close()
	root := func(name string) nvm.PPtr { r, _, _ := h2.Root(name); return r }
	v2, s2 := AttachVector(h2, root("v")), AttachSkipList(h2, root("s"))
	if v2.Len() != 5 {
		t.Fatalf("vector Len after reopen = %d, want 5", v2.Len())
	}
	if _, ok := s2.Get([]byte("staged")); ok {
		t.Fatal("skip list reaches the staged node after reopen")
	}
	if s2.Len() != 5 {
		t.Fatalf("skip list holds %d entries after reopen, want 5", s2.Len())
	}
	var n int
	ListScan(h2, AttachVector(h2, root("heads")).Get(0), func(uint64) bool { n++; return true })
	if n != 1 {
		t.Fatalf("posting list holds %d entries after reopen, want 1", n)
	}
	for _, c := range []interface{ Check() error }{v2, s2} {
		if err := c.Check(); err != nil {
			t.Fatal(err)
		}
	}
	// The staged bytes are still in the arena, below the cursor that was
	// fenced with them, and are simply never named.
	if s2.Arena().Used() == 0 {
		t.Fatal("arena cursor lost")
	}
	if i, err := v2.Append(5); err != nil || i != 5 || v2.Get(5) != 5 {
		t.Fatalf("append after reopen: index %d, %v", i, err)
	}
	if existed, err := s2.Insert([]byte("staged"), 7); err != nil || existed {
		t.Fatal(existed, err)
	}
}

// FuzzArena drives an arena with random allocation sizes and reopens the
// heap at random points: every piece ever handed out stays readable,
// aligned, inside the arena below the cursor, and disjoint from the rest.
func FuzzArena(f *testing.F) {
	f.Add([]byte{1, 8, 200, 0, 17, 255, 3})
	f.Add([]byte{255, 255, 0, 255, 255, 0, 9})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, script []byte) {
		path := filepath.Join(t.TempDir(), "heap.nvm")
		h, err := nvm.Create(path, 64<<20)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { h.Close() }()
		a, err := NewArena(h)
		if err != nil {
			t.Fatal(err)
		}
		h.SetRoot("arena", a.Root(), 0)
		var pieces []piece
		for i, b := range script {
			if len(pieces) >= 64 {
				break
			}
			if b == 0 { // reopen
				used := a.Used()
				if err := h.Close(); err != nil {
					t.Fatal(err)
				}
				if h, err = nvm.Open(path); err != nil {
					t.Fatal(err)
				}
				root, _, _ := h.Root("arena")
				a = AttachArena(h, root)
				if a.Used() != used {
					t.Fatalf("cursor after reopen = %d, want %d", a.Used(), used)
				}
				continue
			}
			// Sizes from 1 byte to 255*255*8 = 520200 bytes: below,
			// around and far above the 4 KiB first segment.
			n := uint64(b)
			if i%3 == 0 {
				n *= uint64(b) * 8
			}
			pc, err := fillPiece(h, a, n, b)
			if err != nil {
				t.Fatal(err)
			}
			pieces = append(pieces, pc)
		}
		checkPieces(t, h, a, pieces)
	})
}
