package pstruct

import (
	"bytes"
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

// Check verifies the skip list's persistent invariants: a sound arena,
// the level-0 chain acyclic and strictly sorted, node heights in range,
// every upper level a sorted subsequence of level 0, and every node,
// with its key and its next pointers, inside the arena below the cursor.
func (s *SkipList) Check() error {
	var errs []error
	fail := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf("skiplist %d: "+format, append([]any{s.root}, args...)...))
	}
	if err := s.h.CheckBlock(s.root, slRootSize); err != nil {
		fail("root: %w", err)
		return errors.Join(errs...)
	}
	if err := s.arena.Check(); err != nil {
		fail("%w", err)
		return errors.Join(errs...)
	}
	// Level 0: the durable ground truth.
	level0 := make(map[nvm.PPtr]bool)
	var prevKey []byte
	havePrev := false
	for cur := s.next(s.head, 0); !cur.IsNil(); cur = s.next(cur, 0) {
		if level0[cur] {
			fail("level 0 contains a cycle at node %d", cur)
			return errors.Join(errs...)
		}
		level0[cur] = true
		if err := s.arena.Contains(cur, slOffBytes); err != nil {
			fail("node %d: %w", cur, err)
			return errors.Join(errs...) // cannot trust its next pointers
		}
		hgt := s.height(cur)
		if hgt < 1 || hgt > slMaxHeight {
			fail("node %d: height %d outside [1, %d]", cur, hgt, slMaxHeight)
			return errors.Join(errs...)
		}
		if err := s.arena.Contains(cur, slNodeSize(BlobLen(s.h, cur.Add(slOffKey)), hgt)); err != nil {
			fail("node %d of height %d: %w", cur, hgt, err)
			return errors.Join(errs...)
		}
		key := s.key(cur)
		if havePrev && bytes.Compare(prevKey, key) >= 0 {
			fail("level 0 not strictly sorted at node %d (%q after %q)", cur, key, prevKey)
		}
		prevKey, havePrev = key, true
	}
	// Upper levels: accelerators, each a sorted subsequence of level 0.
	for level := 1; level < slMaxHeight; level++ {
		seen := make(map[nvm.PPtr]bool)
		var prev []byte
		have := false
		for cur := s.next(s.head, level); !cur.IsNil(); cur = s.next(cur, level) {
			if seen[cur] {
				fail("level %d contains a cycle at node %d", level, cur)
				break
			}
			seen[cur] = true
			if !level0[cur] {
				fail("level %d links node %d that is not on level 0", level, cur)
				break
			}
			if hgt := s.height(cur); hgt <= level {
				fail("level %d links node %d of height %d", level, cur, hgt)
				break
			}
			key := s.key(cur)
			if have && bytes.Compare(prev, key) >= 0 {
				fail("level %d not strictly sorted at node %d", level, cur)
				break
			}
			prev, have = key, true
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
