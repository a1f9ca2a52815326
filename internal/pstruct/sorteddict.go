package pstruct

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math"

	"hyrisenv/internal/nvm"
)

// SortedDict is an immutable dictionary of byte-string keys in ascending
// order, held in one heap block — the dictionary format of the
// read-optimized main partition. A key's value ID is its place in the
// order, so a lookup is a binary search of contiguous memory and a key is
// read in place. Like BitPacked it is built once and never mutated: the
// block is written whole and persisted in one flush pass and one fence
// before its pointer is published.
//
// Layout: n u64 | offWidth u64 | body.
//   - offWidth 0, the word layout: every key is 8 bytes (the Int64 and
//     Float64 encodings), and the body is the n keys back to back.
//   - offWidth 4, the string layout: the body is n+1 little-endian u32
//     offsets, rising from 0, then the bytes area, which is as long as
//     the last offset; key i is bytes[off[i]:off[i+1]]. A dictionary's
//     keys therefore hold at most 4 GiB - 1 bytes in all.
type SortedDict struct {
	h     *nvm.Heap
	p     nvm.PPtr
	n     uint64
	words bool
	// offs and keys alias the block: the offsets (string layout only)
	// and the keys or the bytes area. Both are nil, and n is 0, when the
	// block describes no dictionary that fits it, which err says and
	// Check reports.
	offs []byte
	keys []byte
	err  error
}

const (
	sdHeaderSize = 16
	sdOffSize    = 4 // the string layout's offset width
)

// BuildSortedDict writes keys, which the caller has sorted and made
// unique, into a new block and persists it. words selects the word
// layout, in which every key must be 8 bytes long; in the string layout
// the keys must hold less than 4 GiB in all.
func BuildSortedDict(h *nvm.Heap, keys [][]byte, words bool) (*SortedDict, error) {
	n := uint64(len(keys))
	var total uint64
	for _, k := range keys {
		total += uint64(len(k))
	}
	offW := uint64(sdOffSize)
	switch {
	case words && total != 8*n:
		return nil, fmt.Errorf("pstruct: a word-layout dictionary holds 8-byte keys only")
	case words:
		offW = 0
	case total > math.MaxUint32:
		return nil, fmt.Errorf("pstruct: %d bytes of keys pass the 4 GiB a string dictionary's offsets address", total)
	}
	offLen := offW * (n + 1) // none in the word layout
	size := sdHeaderSize + offLen + total
	p, err := h.Alloc(size)
	if err != nil {
		return nil, err
	}
	h.PutU64(p, n)
	h.PutU64(p.Add(8), offW)
	offs := h.Bytes(p.Add(sdHeaderSize), offLen)
	area := h.Bytes(p.Add(sdHeaderSize+offLen), total)
	var at uint32
	for i, k := range keys {
		if !words {
			binary.LittleEndian.PutUint32(offs[sdOffSize*i:], at)
		}
		at += uint32(copy(area[at:], k))
	}
	if !words {
		binary.LittleEndian.PutUint32(offs[sdOffSize*n:], at)
	}
	h.Persist(p, size)
	return &SortedDict{h: h, p: p, n: n, words: words, offs: offs, keys: area}, nil
}

// AttachSortedDict re-hydrates the dictionary whose block is p, in O(1):
// it reads the header and the last offset and checks that the block
// holds what they describe, in the layout words names. A block that does
// not is read as an empty dictionary, and Check reports why.
func AttachSortedDict(h *nvm.Heap, p nvm.PPtr, words bool) *SortedDict {
	d := &SortedDict{h: h, p: p}
	if d.err = d.attach(words); d.err != nil {
		d.n, d.offs, d.keys = 0, nil, nil
	}
	return d
}

func (d *SortedDict) attach(words bool) error {
	h, p := d.h, d.p
	if err := h.CheckBlock(p, sdHeaderSize); err != nil {
		return err
	}
	d.n, d.words = h.U64(p), words
	offW := h.U64(p.Add(8))
	switch {
	case words && offW != 0:
		return fmt.Errorf("offset width %d in a word-layout dictionary", offW)
	case !words && offW != sdOffSize:
		return fmt.Errorf("offset width %d in a string-layout dictionary", offW)
	case d.n > h.Size()/8:
		return fmt.Errorf("%d keys cannot fit the heap", d.n)
	}
	if words {
		if err := h.CheckBlock(p, sdHeaderSize+8*d.n); err != nil {
			return fmt.Errorf("%d keys: %w", d.n, err)
		}
		d.keys = h.Bytes(p.Add(sdHeaderSize), 8*d.n)
		return nil
	}
	offLen := sdOffSize * (d.n + 1)
	if err := h.CheckBlock(p, sdHeaderSize+offLen); err != nil {
		return fmt.Errorf("%d offsets: %w", d.n+1, err)
	}
	d.offs = h.Bytes(p.Add(sdHeaderSize), offLen)
	area := d.off(d.n)
	if err := h.CheckBlock(p, sdHeaderSize+offLen+area); err != nil {
		return fmt.Errorf("%d keys in %d bytes: %w", d.n, area, err)
	}
	d.keys = h.Bytes(p.Add(sdHeaderSize+offLen), area)
	return nil
}

// off returns offset i of the string layout.
func (d *SortedDict) off(i uint64) uint64 {
	return uint64(binary.LittleEndian.Uint32(d.offs[sdOffSize*i:]))
}

// Root returns the dictionary's block.
func (d *SortedDict) Root() nvm.PPtr { return d.p }

// Len returns the number of keys.
func (d *SortedDict) Len() uint64 { return d.n }

// Key returns key i, aliasing NVM (do not mutate), and charges the read
// model for the bytes it reads: the key, and in the string layout the
// two offsets that bound it. Offsets out of order or past the bytes area
// are clamped, so a damaged block yields some key, never a panic.
func (d *SortedDict) Key(i uint64) []byte {
	if i >= d.n {
		panic(fmt.Sprintf("pstruct: dictionary key %d out of range %d", i, d.n))
	}
	if d.words {
		if d.h.ReadLatencyEnabled() {
			d.h.ChargeRead(8)
		}
		return d.keys[8*i : 8*i+8 : 8*i+8]
	}
	end := min(d.off(i+1), uint64(len(d.keys)))
	start := min(d.off(i), end)
	if d.h.ReadLatencyEnabled() {
		d.h.ChargeRead(2*sdOffSize + end - start)
	}
	return d.keys[start:end:end]
}

// Search returns the first value ID whose key is not below key, and
// whether that key is key. It binary-searches on KeyWords and compares
// whole keys only when two words tie, and it stops at the first probe
// that finds key.
func (d *SortedDict) Search(key []byte) (uint64, bool) {
	kw := KeyWord(key)
	lo, hi := uint64(0), d.n
	for lo < hi {
		mid := lo + (hi-lo)/2
		k := d.Key(mid)
		switch c := CompareKeys(KeyWord(k), k, kw, key); {
		case c < 0:
			lo = mid + 1
		case c > 0:
			hi = mid
		default:
			return mid, true
		}
	}
	return lo, false
}

// KeyWord returns the first 8 bytes of a key as a big-endian word,
// zero-padded. Words order like their keys wherever they differ:
// KeyWord(a) < KeyWord(b) implies a < b. For an 8-byte key the word is
// the key; two longer or shorter keys with equal words must be compared
// whole.
func KeyWord(key []byte) uint64 {
	if len(key) >= 8 {
		return binary.BigEndian.Uint64(key)
	}
	var b [8]byte
	copy(b[:], key)
	return binary.BigEndian.Uint64(b[:])
}

// CompareKeys orders keys a and b, whose KeyWords are aw and bw. Words
// decide wherever they differ — always, for 8-byte keys, whose word is
// the key — and the bytes only when they tie.
func CompareKeys(aw uint64, a []byte, bw uint64, b []byte) int {
	if aw != bw {
		return cmp.Compare(aw, bw)
	}
	return bytes.Compare(a, b)
}

// Blocks yields the heap block the dictionary owns.
func (d *SortedDict) Blocks(yield func(nvm.PPtr)) { yield(d.p) }

// Check verifies the dictionary: a block that holds what its header
// describes, offsets that start at 0, rise and stay inside the bytes
// area, and keys that strictly increase. It reports the first breach.
func (d *SortedDict) Check() error {
	if d.err != nil {
		return fmt.Errorf("sorted dictionary %d: %w", d.p, d.err)
	}
	if !d.words {
		area := uint64(len(d.keys))
		if first := d.off(0); first != 0 {
			return fmt.Errorf("sorted dictionary %d: offset 0 is %d, not 0", d.p, first)
		}
		for i := uint64(1); i <= d.n; i++ {
			switch o, prev := d.off(i), d.off(i-1); {
			case o > area:
				return fmt.Errorf("sorted dictionary %d: offset %d (%d) lies past the end of the %d-byte bytes area", d.p, i, o, area)
			case o < prev:
				return fmt.Errorf("sorted dictionary %d: offset %d (%d) is below offset %d (%d)", d.p, i, o, i-1, prev)
			}
		}
	}
	for i := uint64(1); i < d.n; i++ {
		if bytes.Compare(d.key(i-1), d.key(i)) >= 0 {
			return fmt.Errorf("sorted dictionary %d: key %d is not above key %d", d.p, i, i-1)
		}
	}
	return nil
}

// key is Key without the read charge, for Check.
func (d *SortedDict) key(i uint64) []byte {
	if d.words {
		return d.keys[8*i : 8*i+8]
	}
	return d.keys[d.off(i):d.off(i+1)]
}
