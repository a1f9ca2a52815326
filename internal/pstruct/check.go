package pstruct

import (
	"bytes"
	"errors"
	"fmt"
	"math/bits"

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

// Check verifies the hash list's persistent invariants: a sound arena
// and directory; the list acyclic, every node with its key inside the
// arena below the cursor, its split-order key that of its key, in split
// order, and its key unique; every finger naming a node on the list
// below its bucket's start; and a key count no larger than the list.
func (s *HashList) Check() error {
	var errs []error
	fail := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf("hash list %d: "+format, append([]any{s.root}, args...)...))
	}
	if err := s.h.CheckBlock(s.root, hlRootSize); err != nil {
		fail("root: %w", err)
		return errors.Join(errs...)
	}
	if err := s.arena.Check(); err != nil {
		fail("%w", err)
		return errors.Join(errs...)
	}
	// The directory: segment 0 in the root, then a run of linked
	// segments, each a piece of the arena, that makes the bucket count.
	if seg := nvm.PPtr(s.h.U64(s.root.Add(hlRootOffSegs))); seg != s.root.Add(hlRootOffSeg0) {
		fail("directory segment 0 at %d, not in the root", seg)
		return errors.Join(errs...)
	}
	sizeLog := uint64(hlBaseLog)
	for j := 1; j < hlMaxSegs; j++ {
		seg := nvm.PPtr(s.h.U64(s.root.Add(hlRootOffSegs + 8*uint64(j))))
		switch {
		case seg.IsNil():
		case uint64(j) != sizeLog-hlBaseLog+1:
			fail("directory segment %d is linked after a gap", j)
		default:
			if err := s.arena.Contains(seg, 8*hlSegLen(j)); err != nil {
				fail("directory segment %d: %w", j, err)
			}
			sizeLog++
		}
	}
	if len(errs) > 0 {
		return errors.Join(errs...)
	}

	// The list: the durable ground truth. Keys with one split-order key
	// (equal hashes) are a run; a key is unique if it is unique in its run.
	so := make(map[nvm.PPtr]uint64)
	var prev uint64
	var run [][]byte
	for cur := s.next(s.head); !cur.IsNil(); cur = s.next(cur) {
		if _, ok := so[cur]; ok {
			fail("the list contains a cycle at node %d", cur)
			return errors.Join(errs...)
		}
		if err := s.arena.Contains(cur, hlNodeHdr); err != nil {
			fail("node %d: %w", cur, err)
			return errors.Join(errs...) // cannot trust its link
		}
		if err := s.arena.Contains(cur, hlNodeSize(int(BlobLen(s.h, cur.Add(hlOffKey))))); err != nil {
			fail("node %d: %w", cur, err)
			return errors.Join(errs...)
		}
		key := ReadBlob(s.h, cur.Add(hlOffKey))
		k := s.h.GetU64(cur.Add(hlOffSO))
		so[cur] = k
		if want := bits.Reverse64(hashKey(key)); k != want {
			fail("node %d holds split-order key %#x, its key %q has %#x", cur, k, key, want)
		}
		if len(so) > 1 && k < prev {
			fail("node %d out of split order: %#x after %#x", cur, k, prev)
		}
		if len(so) == 1 || k != prev {
			run = run[:0]
		}
		for _, other := range run {
			if bytes.Equal(other, key) {
				fail("node %d repeats key %q", cur, key)
			}
		}
		run = append(run, key)
		prev = k
	}
	if n := s.h.U64(s.root.Add(hlRootOffCount)); n > uint64(len(so)) {
		fail("key count %d exceeds the %d keys on the list", n, len(so))
	}
	// The fingers: accelerators, each naming the head or a node on the
	// list before its bucket's run.
	for b := uint64(1); b < 1<<sizeLog; b++ {
		f := nvm.PPtr(s.h.U64(s.fingerSlot(b)))
		if f.IsNil() || f == s.head {
			continue
		}
		k, ok := so[f]
		if !ok {
			fail("finger of bucket %d names %d, which is not on the list", b, f)
		} else if start := bits.Reverse64(b); k >= start {
			fail("finger of bucket %d names node %d at split-order key %#x, not below the bucket's start %#x", b, f, k, start)
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
