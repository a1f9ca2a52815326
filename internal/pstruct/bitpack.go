package pstruct

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"hyrisenv/internal/nvm"
)

// BitPacked is a fixed-width bit-packed vector of value IDs — the
// attribute-vector format of the read-optimized main partition. It is
// built once (at merge time) and never mutated, so crash consistency is
// trivial: the data block is persisted in full before the root pointer is
// published.
//
// Layout of the root block: bits u64 | n u64 | dataPtr u64.
type BitPacked struct {
	h    *nvm.Heap
	root nvm.PPtr
	bits uint64
	n    uint64
	data nvm.PPtr
	// buf is the packed data, aliasing the mapping. It is sliced once
	// at build/attach and stays valid for the life of the heap:
	// superseded mappings remain mapped until Close.
	buf []byte
}

const bpRootSize = 24

// BitsFor returns the number of bits needed to represent values in
// [0, maxVal]. At least one bit is always used.
func BitsFor(maxVal uint64) uint64 {
	b := uint64(bits.Len64(maxVal))
	if b == 0 {
		b = 1
	}
	return b
}

// BuildBitPacked packs vals with the given width and persists the result.
func BuildBitPacked(h *nvm.Heap, vals []uint64, width uint64) (*BitPacked, error) {
	if width == 0 || width > 64 {
		return nil, fmt.Errorf("pstruct: bad bit width %d", width)
	}
	n := uint64(len(vals))
	words := (n*width + 63) / 64
	if words == 0 {
		words = 1
	}
	data, err := h.Alloc(words * 8)
	if err != nil {
		return nil, err
	}
	buf := h.Bytes(data, words*8)
	for i, v := range vals {
		if width < 64 && v >= (uint64(1)<<width) {
			return nil, fmt.Errorf("pstruct: value %d exceeds %d bits", v, width)
		}
		PutBits(buf, uint64(i)*width, width, v)
	}
	h.Persist(data, words*8)

	root, err := h.Alloc(bpRootSize)
	if err != nil {
		return nil, err
	}
	h.PutU64(root, width)
	h.PutU64(root.Add(8), n)
	h.PutU64(root.Add(16), uint64(data))
	h.Persist(root, bpRootSize)
	return &BitPacked{h: h, root: root, bits: width, n: n, data: data, buf: buf}, nil
}

// AttachBitPacked re-hydrates a BitPacked vector from its root (O(1)).
func AttachBitPacked(h *nvm.Heap, root nvm.PPtr) *BitPacked {
	b := &BitPacked{
		h:    h,
		root: root,
		bits: h.GetU64(root),
		n:    h.GetU64(root.Add(8)),
		data: nvm.PPtr(h.GetU64(root.Add(16))),
	}
	// A corrupt root is Check's to report, not Attach's to panic on: the
	// data is sliced only when it lies inside the heap.
	if size := h.Size(); b.bits >= 1 && b.bits <= 64 && b.n <= size*8/b.bits {
		if n := (b.n*b.bits + 63) / 64 * 8; uint64(b.data) <= size && n <= size-uint64(b.data) {
			b.buf = h.Bytes(b.data, n)
		}
	}
	return b
}

// Root returns the persistent root pointer.
func (b *BitPacked) Root() nvm.PPtr { return b.root }

// Len returns the number of packed values.
func (b *BitPacked) Len() uint64 { return b.n }

// Bits returns the bit width per value.
func (b *BitPacked) Bits() uint64 { return b.bits }

// Get returns value i.
func (b *BitPacked) Get(i uint64) uint64 {
	if i >= b.n {
		panic(fmt.Sprintf("pstruct: bitpacked index %d out of range %d", i, b.n))
	}
	return GetBits(b.buf, i*b.bits, b.bits)
}

// Scan calls fn for each value in index order.
func (b *BitPacked) Scan(fn func(i uint64, v uint64) bool) {
	b.chargeRead(0, b.n)
	for i := uint64(0); i < b.n; i++ {
		if !fn(i, GetBits(b.buf, i*b.bits, b.bits)) {
			return
		}
	}
}

// Unpack decodes values [lo, hi) into dst[:hi-lo] — the block-at-a-time
// read of the scan kernel. See UnpackBits for the 32-bit destination.
func (b *BitPacked) Unpack(lo, hi uint64, dst []uint32) {
	if lo > hi || hi > b.n {
		panic(fmt.Sprintf("pstruct: bitpacked range [%d, %d) out of range %d", lo, hi, b.n))
	}
	b.chargeRead(lo, hi)
	UnpackBits(b.buf, b.bits, lo, hi, dst)
}

// Filter clears from bm, whose bit i stands for value lo+i, the values of
// [lo, hi) that fail the ID range test — see FilterBits. The packed words
// are read in place; nothing is decoded.
func (b *BitPacked) Filter(lo, hi uint64, idLo, span uint32, neg bool, bm []uint64) {
	if lo > hi || hi > b.n {
		panic(fmt.Sprintf("pstruct: bitpacked range [%d, %d) out of range %d", lo, hi, b.n))
	}
	b.chargeRead(lo, hi)
	FilterBits(b.buf, b.bits, lo, int(hi-lo), idLo, span, neg, bm)
}

// chargeRead charges the read latency model for a sequential pass over
// values [lo, hi).
func (b *BitPacked) chargeRead(lo, hi uint64) {
	if b.h.ReadLatencyEnabled() {
		b.h.ChargeRead(((hi-lo)*b.bits + 7) / 8)
	}
}

func bitMask(width uint64) uint64 {
	if width == 64 {
		return ^uint64(0)
	}
	return uint64(1)<<width - 1
}

// PutBits writes the low `width` bits of v at bit offset off in buf,
// whose length is a whole number of 64-bit little-endian words.
// Exported so the volatile main-partition twin can share the format.
func PutBits(buf []byte, off, width, v uint64) {
	w, shift := buf[off/64*8:], off%64
	mask := bitMask(width)
	v &= mask
	binary.LittleEndian.PutUint64(w, binary.LittleEndian.Uint64(w)&^(mask<<shift)|v<<shift)
	if shift+width > 64 {
		// The value spills into the low bits of the next word.
		binary.LittleEndian.PutUint64(w[8:], binary.LittleEndian.Uint64(w[8:])&^(mask>>(64-shift))|v>>(64-shift))
	}
}

// GetBits reads `width` bits at bit offset off: one word load, two when
// the value straddles a word boundary.
func GetBits(buf []byte, off, width uint64) uint64 {
	w, shift := buf[off/64*8:], off%64
	v := binary.LittleEndian.Uint64(w) >> shift
	if shift+width > 64 {
		v |= binary.LittleEndian.Uint64(w[8:]) << (64 - shift)
	}
	return v & bitMask(width)
}

// UnpackBits decodes the values at indexes [lo, hi) of a width-bit
// packed buffer into dst[:hi-lo], keeping the low 32 bits of each: the
// values are dictionary IDs, and no partition holds 2^32 distinct ones.
func UnpackBits(buf []byte, width, lo, hi uint64, dst []uint32) {
	dst = dst[:hi-lo]
	if len(dst) == 0 {
		return
	}
	mask := bitMask(width)
	// acc holds the `have` not yet consumed bits of the current word, so
	// every word is loaded once however many values it holds.
	w := buf[lo*width/64*8:]
	skip := lo * width % 64
	acc, have := binary.LittleEndian.Uint64(w)>>skip, 64-skip
	for i := range dst {
		if have >= width {
			dst[i] = uint32(acc & mask)
			acc >>= width
			have -= width
			continue
		}
		w = w[8:]
		next := binary.LittleEndian.Uint64(w)
		dst[i] = uint32((acc | next<<have) & mask)
		acc, have = next>>(width-have), have+64-width
	}
}

// maxGroupWidth is the widest value an unaligned 8-byte load still holds
// whole wherever it starts in its first byte: 7 bits of shift plus 57.
const maxGroupWidth = 57

// FilterBits evaluates a value-ID range predicate on the packed words
// themselves. Bit i of bm stands for the value at index lo+i, i < n; the
// bit is cleared unless the low 32 bits of that value lie in
// [idLo, idLo+span) — one unsigned compare, id-idLo < span — or, with
// neg, unless they lie outside it. Words of bm that are already zero are
// skipped.
//
// Eight packed values are exactly `width` bytes, so when lo is a
// multiple of 8 value k of every group of eight starts at a byte offset
// and a shift that depend on the width alone: a 64-row word of bm is, for
// each k, eight independent loads a group apart, each shifted, masked,
// tested and ORed into the word, with no decoded copy in between. A
// ragged last word, an lo off the group grid, a width no 8-byte load
// covers and the word whose loads would run past len(buf) go through
// GetBits instead.
func FilterBits(buf []byte, width, lo uint64, n int, idLo, span uint32, neg bool, bm []uint64) {
	var flip uint64
	if neg {
		flip = ^uint64(0)
	}
	mask := uint32(bitMask(width))
	// A word's loads end 8 bytes after the first byte of its last value.
	reach := 7*width + 7*width/8 + 8
	grouped := width <= maxGroupWidth && lo%8 == 0
	in := func(id uint32) uint64 { return (uint64(id-idLo) - uint64(span)) >> 63 }
	for w := range bm[:(n+63)/64] {
		if bm[w] == 0 {
			continue
		}
		first := lo + uint64(w)*64
		rows := min(64, n-w*64)
		var pass uint64
		if base := first / 8 * width; grouped && rows == 64 && base+reach <= uint64(len(buf)) {
			p := buf[base : base+reach]
			for k := uint64(0); k < 8; k++ {
				q, sh := p[k*width/8:], k*width%8
				pass |= (in(uint32(binary.LittleEndian.Uint64(q)>>sh)&mask) |
					in(uint32(binary.LittleEndian.Uint64(q[width:])>>sh)&mask)<<8 |
					in(uint32(binary.LittleEndian.Uint64(q[2*width:])>>sh)&mask)<<16 |
					in(uint32(binary.LittleEndian.Uint64(q[3*width:])>>sh)&mask)<<24 |
					in(uint32(binary.LittleEndian.Uint64(q[4*width:])>>sh)&mask)<<32 |
					in(uint32(binary.LittleEndian.Uint64(q[5*width:])>>sh)&mask)<<40 |
					in(uint32(binary.LittleEndian.Uint64(q[6*width:])>>sh)&mask)<<48 |
					in(uint32(binary.LittleEndian.Uint64(q[7*width:])>>sh)&mask)<<56) << k
			}
		} else {
			for i := 0; i < rows; i++ {
				pass |= in(uint32(GetBits(buf, (first+uint64(i))*width, width))) << i
			}
		}
		bm[w] &= pass ^ flip
	}
}

// Blocks yields the heap blocks owned by the bit-packed vector.
func (b *BitPacked) Blocks(yield func(nvm.PPtr)) {
	yield(b.root)
	if !b.data.IsNil() {
		yield(b.data)
	}
}
