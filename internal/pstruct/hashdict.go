package pstruct

import (
	"fmt"
	"math"
	"sync/atomic"

	"hyrisenv/internal/nvm"
)

// HashDict is a persistent map from byte-string keys to 32-bit values:
// the NVM-resident dictionary index of a delta column, which maps each
// key to its value ID. It is an extendible hash (Fagin et al., TODS
// 1979) of 256-byte buckets, after CCEH (Nam et al., FAST 2019) and Dash
// (Lu et al., VLDB 2020): a bucket is one XPLine, the unit in which
// Optane reads and writes (Wu et al.), so a search reads one directory
// entry and one bucket, and a key record only on a fingerprint hit.
//
// Everything but the root block lies in the dictionary's arena (Arena),
// linked by arena offsets; an indexed column bumps its posting nodes
// from the same arena.
//   - The directory word in the root holds the global depth g and the
//     address of the directory, or 0 before the first insert. The
//     directory is 2^g 4-byte entries, entry i the arena
//     offset / 8 of the bucket that holds the keys whose 32-bit hash has
//     i as its top g bits.
//   - A bucket is a depth hint word and 31 slots. A slot is the key's
//     32-bit hash and the arena offset / 8 of its record, 0 when empty;
//     the empty slots of a bucket are a suffix.
//   - A record is value u32 | key length u32 | key bytes, padded to 8,
//     so record+4 is a blob (KeyRef) that a dictionary vector names.
//
// A slot is live when the directory routes its hash to the slot's
// bucket. A split never changes a live slot: the half of the full
// bucket's range that holds the new key goes to a fresh bucket, staged
// with copies of the live slots it takes and the new key's slot, and the
// publish half repoints that half's directory entries (or, when the
// directory must grow, publishes a doubled copy of it with the entries
// already repointed). The copies left behind are dead — their hash
// routes elsewhere — and later inserts into the old bucket overwrite
// them. Nothing reads keys to split: the slots hold the hash bits. A
// bucket's depth hint only tells the next split where to start looking.
//
// Crash consistency: the stage half writes and flushes pieces nothing
// links — the key record, and for a split the new bucket and any new
// directory; after the caller's fence, the publish half stores the one
// slot word, or the split's entries or directory word, and flushes them;
// the caller fences again. A crash between the fences may keep any
// subset of a split's entries: each one routes to the old bucket, which
// still holds every key, or to the new one, which holds copies of the
// keys it routes. A dead slot is overwritten only after the fence that
// made its new route durable.
//
// Concurrency: one writer at a time, one staged insert at a time;
// readers run concurrently, lock-free. A reader that misses loads its
// directory entry again, and searches again if the entry has moved: an
// entry only ever moves to a newer bucket, so one that has not moved has
// routed to the same bucket throughout, and no live slot of a bucket is
// ever overwritten.
type HashDict struct {
	h     *nvm.Heap
	root  nvm.PPtr
	arena *Arena

	staged hdStaged // the insert between StageInsert and Publish
}

// hdStaged is what a staged insert publishes: a slot word, or a split's
// directory entries [lo, hi) at dir that name bucket from, moved to
// bucket to, or its new directory word; and the old bucket's depth hint.
type hdStaged struct {
	slot      nvm.PPtr // nil when there is no slot to store
	word      uint64
	dir       nvm.PPtr
	lo, hi    uint64
	from, to  uint32
	dirWord   uint64 // 0 when the directory does not grow
	hint      nvm.PPtr
	hintDepth uint64
}

const (
	// Root block: arena root | directory word (g << 56 | address).
	hdRootOffArena = 0
	hdRootOffDir   = 8
	hdRootSize     = 16

	hdWords      = 32 // a bucket: the depth hint, then hdWords-1 slots
	hdBucketSize = 8 * hdWords
	hdRecHdr     = 8
	hdAddrMask   = 1<<56 - 1

	// hdMaxDirDepth caps the directory at 2^24 entries (64 MiB). Only
	// keys whose hashes agree in their top 24 bits, more of them than a
	// bucket holds, need more; an insert that would is refused.
	hdMaxDirDepth = 24
)

func hdRecSize(keyLen int) uint64 { return (hdRecHdr + uint64(keyLen) + 7) &^ 7 }

// hashKey is the dictionary's hash: FNV-1a over the key, then
// SplitMix64's finaliser, which spreads every input bit over the whole
// word. The top 32 bits are a key's hash in the dictionary. It is fixed
// and seedless, because the routing of keys is persistent.
func hashKey(key []byte) uint32 {
	h := uint64(14695981039346656037)
	for _, c := range key {
		h = (h ^ uint64(c)) * 1099511628211
	}
	h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
	h = (h ^ h>>27) * 0x94d049bb133111eb
	return uint32((h ^ h>>31) >> 32)
}

// NewHashDict allocates an empty persistent hash dictionary with an
// arena of its own, and no directory until the first insert. Its Root
// must be linked into a reachable structure by the caller.
func NewHashDict(h *nvm.Heap) (*HashDict, error) {
	arena, err := NewArena(h)
	if err != nil {
		return nil, err
	}
	root, err := h.Alloc(hdRootSize)
	if err != nil {
		return nil, err
	}
	h.PutU64(root.Add(hdRootOffArena), uint64(arena.Root()))
	h.PutU64(root.Add(hdRootOffDir), 0)
	h.Persist(root, hdRootSize)
	return AttachHashDict(h, root), nil
}

// AttachHashDict re-hydrates a hash dictionary from its root, reading
// the root block and the arena's segment directory and nothing else:
// the directory is read in place.
func AttachHashDict(h *nvm.Heap, root nvm.PPtr) *HashDict {
	return &HashDict{h: h, root: root, arena: AttachArena(h, nvm.PPtr(h.GetU64(root.Add(hdRootOffArena))))}
}

// Root returns the persistent root pointer.
func (s *HashDict) Root() nvm.PPtr { return s.root }

// Arena returns the arena the dictionary's records live in, for an
// owner that keeps its own pieces (posting nodes) beside them.
func (s *HashDict) Arena() *Arena { return s.arena }

// KeyRef returns a blob reference (see ReadBlob) to rec's key.
func (s *HashDict) KeyRef(rec nvm.PPtr) nvm.PPtr { return rec.Add(4) }

// Value returns the value stored in rec.
func (s *HashDict) Value(rec nvm.PPtr) uint64 { return uint64(s.h.GetU32(rec)) }

// dirWord loads the directory word.
func (s *HashDict) dirWord() uint64 { return s.h.U64(s.root.Add(hdRootOffDir)) }

// dirOf splits directory word dw into the directory's depth and address.
func dirOf(dw uint64) (g uint64, dir nvm.PPtr) { return dw >> 56, nvm.PPtr(dw & hdAddrMask) }

// entry returns the address of the directory entry of hash x under
// directory word dw.
func entry(dw uint64, x uint32) nvm.PPtr {
	g, dir := dirOf(dw)
	return dir.Add(4 * (uint64(x) >> (32 - g)))
}

// bucket returns the address of the bucket at arena offset / 8 e.
func (s *HashDict) bucket(e uint32) nvm.PPtr { return s.arena.elemPtr(uint64(e) << 3) }

// probe searches the bucket at arena offset / 8 e for key, whose hash is
// x: it returns the key's record, or nil and the index of the bucket's
// first empty slot, 0 when the bucket has none.
func (s *HashDict) probe(e uint32, key []byte, x uint32) (rec nvm.PPtr, empty uint64) {
	ws := s.h.Words(s.bucket(e), hdWords)
	if s.h.ReadLatencyEnabled() {
		// One device access: the bucket's four lines are one XPLine.
		s.h.ChargeRead(nvm.CacheLineSize)
	}
	for i := uint64(1); i < hdWords; i++ {
		w := atomic.LoadUint64(&ws[i])
		if w == 0 {
			return 0, i
		}
		if uint32(w>>32) == x {
			if rec := s.arena.elemPtr(uint64(uint32(w)) << 3); string(ReadBlob(s.h, rec.Add(4))) == string(key) {
				return rec, 0
			}
		}
	}
	return 0, 0
}

// Get returns the value stored under key.
func (s *HashDict) Get(key []byte) (val uint64, ok bool) {
	x := hashKey(key)
	for {
		dw := s.dirWord()
		if dw == 0 {
			return 0, false
		}
		e := s.h.U32(entry(dw, x))
		if rec, _ := s.probe(e, key, x); !rec.IsNil() {
			return s.Value(rec), true
		}
		if s.h.U32(entry(s.dirWord(), x)) == e {
			return 0, false
		}
	}
}

// deadSlot returns the index of the first dead slot of full bucket e — a
// copy a split left behind, whose hash the directory routes elsewhere —
// or 0 when it has none.
func (s *HashDict) deadSlot(dw uint64, e uint32) uint64 {
	ws := s.h.Words(s.bucket(e), hdWords)
	for i := uint64(1); i < hdWords; i++ {
		if s.h.U32(entry(dw, uint32(ws[i]>>32))) != e {
			return i
		}
	}
	return 0
}

// StageInsert is the stage half of Insert. For an absent key it writes
// a record carrying value into the arena and flushes it, and stages the
// slot that names it for Publish; a full bucket splits, staged the same
// way (see HashDict). For a present key it writes nothing and returns
// existed: an entry keeps its value. Either way rec is the key's record.
//
//nvm:nopersist stage half: the record and a split's pieces are flushed, not fenced; the caller fences before Publish
func (s *HashDict) StageInsert(key []byte, value uint64) (rec nvm.PPtr, existed bool, err error) {
	s.Unstage()
	if value > math.MaxUint32 {
		return 0, false, fmt.Errorf("pstruct: hash dictionary value %d exceeds 32 bits", value)
	}
	x := hashKey(key)
	dw := s.dirWord()
	if dw == 0 {
		return s.stageFirst(key, x, value)
	}
	e := s.h.U32(entry(dw, x))
	rec, i := s.probe(e, key, x)
	if !rec.IsNil() {
		return rec, true, nil
	}
	if i == 0 {
		i = s.deadSlot(dw, e)
	}
	if i != 0 {
		off, err := s.alloc(hdRecSize(len(key)))
		if err != nil {
			return 0, false, err
		}
		st := &s.staged
		st.slot, st.word = s.bucket(e).Add(8*i), uint64(x)<<32|off>>3
		return s.putRecord(off, key, value), false, nil
	}
	return s.stageSplit(dw, e, key, x, value)
}

// alloc bumps n bytes from the arena and returns their offset, which a
// slot or an entry holds divided by 8 in 32 bits.
func (s *HashDict) alloc(n uint64) (uint64, error) {
	if _, err := s.arena.Alloc(n); err != nil {
		return 0, err
	}
	end := s.arena.Used()
	if end>>3 > math.MaxUint32 {
		return 0, fmt.Errorf("pstruct: hash dictionary arena exceeds 32 GiB")
	}
	return end - (n+7)&^7, nil
}

// stageFirst stages the first insert, into a dictionary with no
// directory: one piece holding the first bucket, with the key's slot, a
// directory of one entry naming it, and the record; Publish links the
// directory. The piece is the arena's first, so no record lies at
// offset 0 and a slot of 0 is empty.
func (s *HashDict) stageFirst(key []byte, x uint32, value uint64) (nvm.PPtr, bool, error) {
	off, err := s.alloc(hdBucketSize + 8 + hdRecSize(len(key)))
	if err != nil {
		return 0, false, err
	}
	p, recOff := s.arena.elemPtr(off), off+hdBucketSize+8
	rec := s.putRecord(recOff, key, value)
	clear(s.h.Bytes(p, hdBucketSize+8))
	s.h.PutU64(p.Add(8), uint64(x)<<32|recOff>>3)
	s.h.PutU32(p.Add(hdBucketSize), uint32(off>>3))
	s.h.Flush(p, hdBucketSize+8)
	s.staged.dirWord = uint64(p.Add(hdBucketSize))
	return rec, false, nil
}

// putRecord writes and flushes the record of key and value at arena
// offset off, and returns its address.
func (s *HashDict) putRecord(off uint64, key []byte, value uint64) nvm.PPtr {
	rec := s.arena.elemPtr(off)
	s.h.PutU32(rec, uint32(value))
	s.h.PutU32(rec.Add(4), uint32(len(key)))
	copy(s.h.Bytes(rec.Add(8), uint64(len(key))), key)
	s.h.Flush(rec, hdRecSize(len(key)))
	return rec
}

// stageSplit stages the split of the full bucket b at entry value e
// that makes room for key, whose hash is x. Its plan walks down from the
// bucket's depth hint: at depth d+1 the range of depth d that holds x
// has x's half and the other half. The split happens at the first depth
// where the other half still routes some hash to b, so that b keeps
// something, and x's half holds fewer live slots than a bucket: they
// move, with the new key, to a fresh bucket, and b keeps the other half.
// Past the directory's depth the directory doubles, as often as needed,
// in the same staged piece.
func (s *HashDict) stageSplit(dw uint64, e uint32, key []byte, x uint32, value uint64) (nvm.PPtr, bool, error) {
	b := s.bucket(e)
	g, dir := dirOf(dw)
	d := min(s.h.U64(b), g)
	// keep is the depth of the range b keeps: the first whose halves
	// both route to b.
	keep := uint64(64)
	var buf [hdWords]uint64
	moved := buf[:0]
	for ; ; d++ {
		if d+1 > 32 || d+1 > max(g, hdMaxDirDepth) {
			return 0, false, fmt.Errorf("pstruct: hash dictionary: more than %d keys share the top %d bits of their hash", hdWords-1, d)
		}
		if d < g {
			span := uint64(1) << (g - d - 1)
			other := (uint64(x)>>(32-g))&^(span-1) ^ span
			found := false
			for j := other; j < other+span && !found; j++ {
				found = s.h.U32(dir.Add(4*j)) == e
			}
			if !found {
				continue
			}
		}
		keep = min(keep, d)
		moved = moved[:0]
		for i := uint64(1); i < hdWords; i++ {
			w := s.h.U64(b.Add(8 * i))
			if (uint32(w>>32)^x)>>(31-d) == 0 {
				moved = append(moved, w)
			}
		}
		if len(moved) < hdWords-1 {
			break
		}
	}
	// The piece: the new bucket, the doubled directory if the split is
	// deeper than the directory, and the record.
	d++
	var dirBytes uint64
	if d > g {
		dirBytes = 4 << d
	}
	off, err := s.alloc(hdBucketSize + dirBytes + hdRecSize(len(key)))
	if err != nil {
		return 0, false, err
	}
	p, to := s.arena.elemPtr(off), uint32(off>>3)
	recOff := off + hdBucketSize + dirBytes
	rec := s.putRecord(recOff, key, value)
	moved = append(moved, uint64(x)<<32|recOff>>3)
	s.h.PutU64(p, d)
	for i := uint64(1); i < hdWords; i++ {
		var w uint64
		if int(i) <= len(moved) {
			w = moved[i-1]
		}
		s.h.PutU64(p.Add(8*i), w)
	}
	s.h.Flush(p, hdBucketSize)

	st := &s.staged
	if d > g {
		nd := p.Add(hdBucketSize)
		for j := uint64(0); j < 1<<d; j++ {
			s.h.PutU32(nd.Add(4*j), s.h.U32(dir.Add(4*(j>>(d-g)))))
		}
		s.h.PutU32(nd.Add(4*(uint64(x)>>(32-d))), to)
		s.h.Flush(nd, dirBytes)
		st.dirWord = d<<56 | uint64(nd)
	} else {
		span := uint64(1) << (g - d)
		st.dir, st.from, st.to = dir, e, to
		st.lo = (uint64(x) >> (32 - g)) &^ (span - 1)
		st.hi = st.lo + span
	}
	// b keeps the other half when the split happened at the first depth
	// whose halves both routed to it, and the range of that depth else.
	st.hint, st.hintDepth = b, keep
	if d == keep+1 {
		st.hintDepth = d
	}
	return rec, false, nil
}

// Publish is the publish half of Insert: it stores the staged slot, or
// a split's directory entries or new directory word and the old bucket's
// depth hint, and flushes them. The caller has fenced since StageInsert
// and fences again before it reports the insert done.
//
//nvm:nopersist publish half: the slot, entries and hint are flushed, not fenced; the caller's second fence covers them
func (s *HashDict) Publish() {
	st := &s.staged
	switch {
	case !st.slot.IsNil():
		s.h.SetU64(st.slot, st.word)
		s.h.Flush(st.slot, 8)
	case st.dirWord != 0:
		p := s.root.Add(hdRootOffDir)
		s.h.SetU64(p, st.dirWord)
		s.h.Flush(p, 8)
	case st.hi > st.lo:
		for j := st.lo; j < st.hi; j++ {
			if p := st.dir.Add(4 * j); s.h.U32(p) == st.from {
				s.h.SetU32(p, st.to)
			}
		}
		s.h.Flush(st.dir.Add(4*st.lo), 4*(st.hi-st.lo))
	}
	if !st.hint.IsNil() {
		s.h.SetU64(st.hint, st.hintDepth)
		s.h.Flush(st.hint, 8)
	}
	s.Unstage()
}

// Unstage forgets a staged insert that will not be published; what it
// wrote stays behind as arena bytes nothing names.
func (s *HashDict) Unstage() { s.staged = hdStaged{} }

// Insert stores value under key unless the key is present, and reports
// whether it was. It is stage, fence, publish, fence.
func (s *HashDict) Insert(key []byte, value uint64) (existed bool, err error) {
	_, existed, err = s.StageInsert(key, value)
	if err != nil {
		s.Unstage()
		return false, err
	}
	s.h.Fence()
	s.Publish()
	s.h.Fence()
	return existed, nil
}

// Scan calls fn for every entry, bucket by bucket in directory order: at
// each directory entry, the live slots of its bucket whose hash is that
// entry's.
func (s *HashDict) Scan(fn func(key []byte, val uint64) bool) {
	dw := s.dirWord()
	if dw == 0 {
		return
	}
	g, dir := dirOf(dw)
	for j := uint64(0); j < 1<<g; j++ {
		b := s.bucket(s.h.U32(dir.Add(4 * j)))
		for i := uint64(1); i < hdWords; i++ {
			w := s.h.U64(b.Add(8 * i))
			if w == 0 {
				break
			}
			if uint64(uint32(w>>32))>>(32-g) == j {
				rec := s.arena.elemPtr(uint64(uint32(w)) << 3)
				if !fn(ReadBlob(s.h, rec.Add(4)), s.Value(rec)) {
					return
				}
			}
		}
	}
}

// Blocks yields the heap blocks owned by the dictionary: its root and
// its arena, which holds every bucket, directory and record.
func (s *HashDict) Blocks(yield func(nvm.PPtr)) {
	yield(s.root)
	s.arena.Blocks(yield)
}

// SkipList and NewSkipList name the hash dictionary for the benchmark's
// pstruct.skiplist_insert_ns instrument, and retire with it.
type SkipList = HashDict

func NewSkipList(h *nvm.Heap) (*HashDict, error) { return NewHashDict(h) }
