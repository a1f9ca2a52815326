package pstruct

import (
	"errors"
	"fmt"

	"hyrisenv/internal/nvm"
)

// Structural checkers ("fsck") for the persistent containers. Each Check
// walks the structure it is given and verifies the invariants its
// persistence protocol promises to hold at *every* crash point: all
// pointers land on Reserved blocks of sufficient size, lengths cover
// only linked storage, ordered structures are ordered, and linked
// structures are acyclic. They are read-only and return every violation
// found (joined), not just the first.

// Check verifies the vector's persistent invariants: sane element size
// and base, every segment the length implies is durably linked, and each
// segment block is large enough for its capacity.
func (v *Vector) Check() error {
	if v.elemSize != 4 && v.elemSize != 8 {
		return fmt.Errorf("vector %d: invalid element size %d", v.root, v.elemSize)
	}
	lastSeg := -1
	if n := v.Len(); n > 0 && v.baseLog > 0 {
		lastSeg, _ = v.locate(n - 1)
	}
	return v.checkSegs("vector", func(k int) bool { return k <= lastSeg })
}

// Check verifies the hash dictionary's persistent invariants: a sound
// arena; a directory inside it whose entries each name a bucket inside
// it; in every bucket a depth hint no deeper than a hash, empty slots
// only after the last full one, and in every full slot a record inside
// the arena whose key has the slot's hash; and no key in two live slots
// of one bucket. The slots of different buckets are live for different
// hashes, so no key is live twice. Nothing is walked that a damaged word
// could make circular.
func (s *HashDict) Check() error {
	var errs []error
	fail := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf("hash dictionary %d: "+format, append([]any{s.root}, args...)...))
	}
	if err := s.h.CheckBlock(s.root, hdRootSize); err != nil {
		fail("root: %w", err)
		return errors.Join(errs...)
	}
	if err := s.arena.Check(); err != nil {
		fail("%w", err)
		return errors.Join(errs...)
	}
	dw := s.dirWord()
	if dw == 0 {
		return nil
	}
	g, dir := dirOf(dw)
	if g > hdMaxDirDepth {
		fail("directory depth %d exceeds %d", g, hdMaxDirDepth)
		return errors.Join(errs...)
	}
	if dir%8 != 0 {
		fail("directory at %d is not word-aligned", dir)
		return errors.Join(errs...)
	}
	if err := s.arena.Contains(dir, 4<<g); err != nil {
		fail("directory: %w", err)
		return errors.Join(errs...)
	}
	checked := make(map[uint32]bool)
	for j := uint64(0); j < 1<<g; j++ {
		e := s.h.U32(dir.Add(4 * j))
		if checked[e] {
			continue
		}
		checked[e] = true
		b, err := s.arena.checkedAt(uint64(e)<<3, hdBucketSize)
		if err != nil {
			fail("directory entry %d: bucket: %w", j, err)
			continue
		}
		if d := s.h.U64(b); d > 32 {
			fail("bucket %d: depth hint %d", b, d)
		}
		var live [][]byte
		empty := false
		for i := uint64(1); i < hdWords; i++ {
			w := s.h.U64(b.Add(8 * i))
			if w == 0 {
				empty = true
				continue
			}
			if empty {
				fail("bucket %d: slot %d is full after an empty one", b, i)
			}
			rec, err := s.arena.checkedAt(uint64(uint32(w))<<3, hdRecHdr)
			if err == nil {
				rec, err = s.arena.checkedAt(uint64(uint32(w))<<3, hdRecSize(int(BlobLen(s.h, rec.Add(4)))))
			}
			if err != nil {
				fail("bucket %d: slot %d: record: %w", b, i, err)
				continue
			}
			key := ReadBlob(s.h, rec.Add(4))
			x := hashKey(key)
			if x != uint32(w>>32) {
				fail("bucket %d: slot %d holds hash %#x, its key %q has %#x", b, i, w>>32, key, x)
				continue
			}
			if s.h.U32(entry(dw, x)) != e {
				continue // dead: a split moved it
			}
			for _, other := range live {
				if string(other) == string(key) {
					fail("bucket %d: key %q is in two live slots", b, key)
				}
			}
			live = append(live, key)
		}
	}
	return errors.Join(errs...)
}

// ListCheck verifies the posting list whose head word is head: acyclic,
// and every node valid — inside the list's arena (Arena.Contains).
func ListCheck(h *nvm.Heap, head uint64, valid func(node nvm.PPtr, n uint64) error) error {
	seen := make(map[nvm.PPtr]bool)
	for w := head; w != 0 && w&1 == 0; {
		node := nvm.PPtr(w)
		if seen[node] {
			return fmt.Errorf("posting list %d contains a cycle at node %d", head, node)
		}
		seen[node] = true
		if err := valid(node, plNodeLen); err != nil {
			return fmt.Errorf("posting list %d: node: %w", head, err)
		}
		w = h.U64(node.Add(plOffNext))
	}
	return nil
}

// Check verifies the bit-packed vector's persistent invariants.
func (b *BitPacked) Check() error {
	if err := b.h.CheckBlock(b.root, bpRootSize); err != nil {
		return fmt.Errorf("bitpacked %d: root: %w", b.root, err)
	}
	words, ok := PackedWords(b.n, b.bits)
	if !ok {
		return fmt.Errorf("bitpacked %d: %d values of width %d: no vector is wider than %d bits or that long", b.root, b.n, b.bits, maxBits)
	}
	if err := b.h.CheckBlock(b.data, words*8); err != nil {
		return fmt.Errorf("bitpacked %d: data: %w", b.root, err)
	}
	return nil
}

// CheckValues verifies the packed data itself — see CheckBits. A root
// that describes no vector inside the heap has no data to verify, which
// is the error.
func (b *BitPacked) CheckValues(limit uint64) error {
	if b.buf == nil {
		return fmt.Errorf("bitpacked %d: %d values of width %d at %d lie in no vector inside the heap", b.root, b.n, b.bits, b.data)
	}
	return CheckBits(b.buf, b.bits, b.n, limit)
}
