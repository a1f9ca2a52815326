package pstruct

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"hyrisenv/internal/nvm"
)

// TestSortedDictStringLayoutReopens: the string layout's keys and
// searches survive a reopen of the heap, for keys that share their
// first 8 bytes, are empty, or differ only by trailing zero bytes.
func TestSortedDictStringLayoutReopens(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	keys := [][]byte{{}, {0}, []byte("abcdefgh"), []byte("abcdefgh\x00"), []byte("abcdefgi")}
	for range 500 {
		keys = append(keys, []byte(fmt.Sprintf("%x", rng.Uint64()>>rng.Intn(64))))
	}
	slices.SortFunc(keys, bytes.Compare)
	keys = slices.CompactFunc(keys, bytes.Equal)
	h, path := testHeap(t)
	d, err := BuildSortedDict(h, keys, false)
	if err != nil {
		t.Fatal(err)
	}
	h.SetRoot("dict", d.Root(), 0)
	h.Close()
	h, err = nvm.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	p, _, _ := h.Root("dict")
	d = AttachSortedDict(h, p, false)
	if err := d.Check(); err != nil {
		t.Fatal(err)
	}
	if d.Len() != uint64(len(keys)) {
		t.Fatalf("Len = %d, want %d", d.Len(), len(keys))
	}
	for i, k := range keys {
		if got := d.Key(uint64(i)); !bytes.Equal(got, k) {
			t.Fatalf("Key(%d) = %q, want %q", i, got, k)
		}
		for _, probe := range [][]byte{k, append(slices.Clone(k), 0)} {
			want, found := slices.BinarySearchFunc(keys, probe, bytes.Compare)
			if id, ok := d.Search(probe); id != uint64(want) || ok != found {
				t.Fatalf("Search(%q) = %d,%v, want %d,%v", probe, id, ok, want, found)
			}
		}
	}
}

// TestSortedDictRejectsOversizedKeys: string keys of 4 GiB or more in
// all do not fit the layout's 32-bit offsets, and the build refuses them
// before it allocates. The keys alias one buffer, so the test holds
// 1 MiB.
func TestSortedDictRejectsOversizedKeys(t *testing.T) {
	h, _ := testHeap(t)
	buf := make([]byte, 1<<20)
	keys := make([][]byte, 1<<12)
	for i := range keys {
		keys[i] = buf
	}
	before := h.Stats().Allocs
	if _, err := BuildSortedDict(h, keys, false); err == nil {
		t.Fatal("4 GiB of key bytes accepted")
	}
	if n := h.Stats().Allocs - before; n != 0 {
		t.Fatalf("a refused build allocated %d blocks", n)
	}
}

// TestSortedDictWordLayoutHoldsWords: the word layout takes 8-byte keys
// only, and a word block attached as a string one is refused.
func TestSortedDictWordLayoutHoldsWords(t *testing.T) {
	h, _ := testHeap(t)
	if _, err := BuildSortedDict(h, [][]byte{[]byte("12345678"), []byte("123456789")}, true); err == nil {
		t.Fatal("a 9-byte key accepted in the word layout")
	}
	d, err := BuildSortedDict(h, [][]byte{[]byte("12345678")}, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := AttachSortedDict(h, d.Root(), false).Check(); err == nil {
		t.Fatal("a word-layout block attached as a string dictionary")
	}
}
