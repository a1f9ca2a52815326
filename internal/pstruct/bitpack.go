package pstruct

import (
	"fmt"
	"math/bits"

	"hyrisenv/internal/nvm"
)

// BitPacked is a fixed-width bit-sliced vector of value IDs — the
// attribute-vector format of the read-optimized main partition. It is
// built once (at merge time) and never mutated, so crash consistency is
// trivial: the data block is persisted in full before the root pointer is
// published.
//
// Layout of the root block: bits u64 | n u64 | dataPtr u64. The data
// block is PackedWords(n, bits) words in the layout PackBits writes.
type BitPacked struct {
	h    *nvm.Heap
	root nvm.PPtr
	bits uint64
	n    uint64
	data nvm.PPtr
	// buf is the packed data, aliasing the mapping. It is sliced once
	// at build/attach and stays valid until the heap's Close. It is nil
	// when the root describes no vector that fits the heap, which Check
	// reports.
	buf []uint64
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
	n := uint64(len(vals))
	words, ok := PackedWords(n, width)
	if !ok {
		return nil, fmt.Errorf("pstruct: bad bit width %d", width)
	}
	data, err := h.Alloc(words * 8)
	if err != nil {
		return nil, err
	}
	buf := h.Words(data, words)
	if err := PackBits(buf, width, vals); err != nil {
		return nil, err
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
	// data is sliced only when it is a vector's and lies inside the heap.
	if words, ok := PackedWords(b.n, b.bits); ok && b.data%8 == 0 && uint64(b.data) <= h.Size() && words*8 <= h.Size()-uint64(b.data) {
		b.buf = h.Words(b.data, words)
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
	return GetBits(b.buf, b.bits, i)
}

// Scan calls fn for each value in index order.
func (b *BitPacked) Scan(fn func(i uint64, v uint64) bool) {
	b.chargeRead(0, b.n)
	ScanBits(b.buf, b.bits, b.n, fn)
}

// Unpack decodes values [lo, hi) into dst[:hi-lo] — the block-at-a-time
// read of the scan kernel. See UnpackBits.
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

// Blocks yields the heap blocks owned by the bit-packed vector.
func (b *BitPacked) Blocks(yield func(nvm.PPtr)) {
	yield(b.root)
	if !b.data.IsNil() {
		yield(b.data)
	}
}

// The packed format is bit-sliced (BitWeaving/V): the values are cut into segments of 64, and
// a segment is `width` 64-bit words of which word j holds, at bit i, bit
// width-1-j of the segment's value i — the most significant plane first.
// The last segment is padded with zero values. A value is a dictionary
// ID, a uint32: widths run from 1 to maxBits.
//
// A comparison against a constant then runs plane by plane on 64 values
// at once, and its verdict is a bitmap word as it stands (FilterBits);
// the price is on the decode side, where one value is `width` loads
// (GetBits) and a block is a bit-matrix transpose per segment
// (UnpackBits).

// maxBits is the widest value the packed format holds.
const maxBits = 32

// maxPackedLen bounds the value count PackedWords takes, so that no size
// derived from what it returns overflows.
const maxPackedLen = 1 << 48

// PackedWords returns the length in words of n packed values of the
// given width: one segment of `width` words per 64 values, and at least
// one. It is the one place the data block is sized — by build, by attach
// and by the checkers — and reports false for a
// width or a count the format does not hold.
func PackedWords(n, width uint64) (uint64, bool) {
	if width == 0 || width > maxBits || n > maxPackedLen {
		return 0, false
	}
	return max((n+63)/64, 1) * width, true
}

// PackBits writes vals, each below 1<<width, into buf in the packed
// format; buf is PackedWords(len(vals), width) long and is overwritten
// whole, the padding of the last segment with zeros.
func PackBits(buf []uint64, width uint64, vals []uint64) error {
	if words, ok := PackedWords(uint64(len(vals)), width); !ok || words != uint64(len(buf)) {
		return fmt.Errorf("pstruct: %d words cannot hold %d values of %d bits", len(buf), len(vals), width)
	}
	side := blockSide(width)
	for ; len(buf) > 0; buf, vals = buf[width:], vals[min(64, len(vals)):] {
		var w [maxBits]uint64
		for i, v := range vals[:min(64, len(vals))] {
			if v>>width != 0 {
				return fmt.Errorf("pstruct: value %d exceeds %d bits", v, width)
			}
			w[i%side] |= v << (i / side * side)
		}
		transpose(&w, side)
		for j := range buf[:width] {
			buf[j] = w[int(width)-1-j]
		}
	}
	return nil
}

// blockSide returns the side of the square bit matrices a segment of the
// given width is transposed in: the planes, padded to 8, 16 or 32.
func blockSide(width uint64) int {
	side := 8
	for uint64(side) < width {
		side *= 2
	}
	return side
}

// transpose transposes in place the 64/side square bit matrices of the
// given side — 8, 16 or 32 — that lie next to each other in w[:side]: row
// p of matrix k is bits [k·side, (k+1)·side) of w[p]. With the plane of
// value bit p in w[p], it leaves in w[c] the values of rows c, side+c,
// 2·side+c, … of the segment, side bits each; and back. Pass s swaps the
// off-diagonal s×s quadrants of every 2s×2s submatrix; the passes are
// written out so that each shifts by a constant.
func transpose(w *[maxBits]uint64, side int) {
	for i := 0; i < side; i += 2 {
		swapBits(&w[i%maxBits], &w[(i+1)%maxBits], 1, 0x5555555555555555)
	}
	for i := 0; i < side; i += 4 {
		swapBits(&w[i%maxBits], &w[(i+2)%maxBits], 2, 0x3333333333333333)
		swapBits(&w[(i+1)%maxBits], &w[(i+3)%maxBits], 2, 0x3333333333333333)
	}
	for i := 0; i < side; i += 8 {
		for j := i; j < i+4; j++ {
			swapBits(&w[j%maxBits], &w[(j+4)%maxBits], 4, 0x0F0F0F0F0F0F0F0F)
		}
	}
	for i := 0; i+16 <= side; i += 16 {
		for j := i; j < i+8; j++ {
			swapBits(&w[j%maxBits], &w[(j+8)%maxBits], 8, 0x00FF00FF00FF00FF)
		}
	}
	for j := 0; j < 16 && side == 32; j++ {
		swapBits(&w[j], &w[j+16], 16, 0x0000FFFF0000FFFF)
	}
}

// swapBits exchanges the bits of a that mask<<s selects with the bits of
// b that mask selects.
func swapBits(a, b *uint64, s uint, mask uint64) {
	t := (*a>>s ^ *b) & mask
	*a ^= t << s
	*b ^= t
}

// GetBits returns value i of a packed buffer: one bit from each of the
// `width` words of its segment.
func GetBits(buf []uint64, width, i uint64) uint64 {
	var v uint64
	for _, plane := range buf[i/64*width:][:width] {
		v = 2*v + plane>>(i%64)&1
	}
	return v
}

// unpackSegment decodes the 64 values of one segment.
func unpackSegment(seg []uint64, out *[64]uint32) {
	side := blockSide(uint64(len(seg)))
	var w [maxBits]uint64
	for j, plane := range seg {
		w[len(seg)-1-j] = plane
	}
	transpose(&w, side)
	mask := uint64(1)<<side - 1
	for c, x := range w[:side] {
		for row := c; row < 64; row += side {
			out[row] = uint32(x & mask)
			x >>= side & 63
		}
	}
}

// UnpackBits decodes the values at indexes [lo, hi) of a packed buffer
// into dst[:hi-lo]: a segment the range covers is transposed straight
// into dst, one it covers in part through a scratch.
func UnpackBits(buf []uint64, width, lo, hi uint64, dst []uint32) {
	dst = dst[:hi-lo]
	for first := lo / 64 * 64; first < hi; first += 64 {
		seg := buf[first/64*width:][:width]
		if first >= lo && first+64 <= hi {
			unpackSegment(seg, (*[64]uint32)(dst[first-lo:]))
			continue
		}
		var part [64]uint32
		unpackSegment(seg, &part)
		from, to := max(first, lo), min(first+64, hi)
		copy(dst[from-lo:], part[from-first:to-first])
	}
}

// ScanBits calls fn with each of the first n values of a packed buffer,
// in index order, until fn returns false.
func ScanBits(buf []uint64, width, n uint64, fn func(i, v uint64) bool) {
	var ids [64]uint32
	for first := uint64(0); first < n; first += 64 {
		unpackSegment(buf[first/64*width:][:width], &ids)
		for i, id := range ids[:min(64, n-first)] {
			if !fn(first+uint64(i), uint64(id)) {
				return
			}
		}
	}
}

// CheckBits verifies what every reader of a packed buffer relies on: buf
// has the length of n values, every value is below limit, and the padding
// of the last segment is zero.
func CheckBits(buf []uint64, width, n, limit uint64) error {
	if words, ok := PackedWords(n, width); !ok || words != uint64(len(buf)) {
		return fmt.Errorf("%d values of %d bits in %d words", n, width, len(buf))
	}
	var err error
	ScanBits(buf, width, n, func(i, v uint64) bool {
		if v >= limit {
			err = fmt.Errorf("value %d is %d, beyond the limit of %d", i, v, limit)
		}
		return err == nil
	})
	if err != nil {
		return err
	}
	last := buf[uint64(len(buf))-width:]
	rows := uint64(1)<<(n-(uint64(len(buf))/width-1)*64) - 1 // all ones when the segment is full
	for _, plane := range last {
		if plane&^rows != 0 {
			return fmt.Errorf("padding past value %d is not zero", n)
		}
	}
	return nil
}

// idFilter is a value-ID range predicate compiled for a width: how the
// rows inside the interval are found, whether they or the others are
// kept, and the interval's bounds shifted to the top of a word. A walk
// takes the bound's bit for the plane it is at from the top bit and
// shifts the word left by one per plane (next).
type idFilter struct {
	kind   filterKind
	invert bool
	lo, hi uint64
}

// next returns the mask of a bound's top bit — all ones when it is set —
// and the bound shifted to the bit of the next plane.
func next(b uint64) (mask, rest uint64) { return uint64(int64(b) >> 63), b << 1 }

type filterKind uint8

const (
	filterNone  filterKind = iota // no value is inside
	filterEq                      // inside: id == lo
	filterLess                    // inside: id < lo
	filterRange                   // inside: lo <= id < hi
)

func (f *idFilter) init(width uint64, idLo, span uint32, neg bool) {
	lo, hi, top := uint64(idLo), uint64(idLo)+uint64(span), uint64(1)<<width
	f.kind, f.invert = filterNone, neg
	switch {
	case span == 0 || lo >= top:
	case lo == 0 && hi >= top: // everything is inside: nothing is outside
		f.invert = !neg
	case span == 1:
		f.kind = filterEq
	case lo == 0:
		f.kind, lo = filterLess, hi
	case hi >= top: // id >= lo is what id < lo leaves
		f.kind, f.invert = filterLess, !neg
	default:
		f.kind = filterRange
	}
	// A bound at or past top is only ever that of a kind that does not
	// read it.
	f.lo, f.hi = lo<<(64-width), hi<<(64-width)
}

// segment returns the rows of live that the filter keeps in one segment.
// A comparison walks the planes from the most significant down, carrying
// the rows still equal to the bound so far (eq) and the rows already
// below it: where a row has a zero and the bound a one, the row falls
// below; where they differ either way it leaves eq. It stops at the
// plane that leaves no live row undecided.
func (f *idFilter) segment(seg []uint64, live uint64) uint64 {
	var in uint64
	bLo, bHi := f.lo, f.hi
	switch f.kind {
	case filterEq:
		in = live
		for _, x := range seg {
			if in == 0 {
				break
			}
			var k uint64
			k, bLo = next(bLo)
			in &^= x ^ k
		}
	case filterLess:
		eq := live
		for _, x := range seg {
			if eq == 0 {
				break
			}
			var k uint64
			k, bLo = next(bLo)
			in |= eq &^ x & k
			eq &^= x ^ k
		}
	case filterRange:
		var below uint64
		eqLo, eqHi := live, live
		for _, x := range seg {
			if eqLo|eqHi == 0 {
				break
			}
			var lo, hi uint64
			lo, bLo = next(bLo)
			hi, bHi = next(bHi)
			below |= eqLo &^ x & lo
			eqLo &^= x ^ lo
			in |= eqHi &^ x & hi
			eqHi &^= x ^ hi
		}
		in &^= below
	}
	if f.invert {
		return live &^ in
	}
	return in
}

// FilterBits evaluates a value-ID range predicate on a packed buffer.
// Bit i of bm stands for the value at index lo+i, i < n; the bit is
// cleared unless that value lies in [idLo, idLo+span) — or, with neg,
// unless it lies outside it. Bits of bm from n on are left as they are.
//
// When lo is a multiple of 64 — every block of a scan but, at most, its
// first — a word of bm is a segment, and the word itself seeds the
// comparison: a zero word is skipped, and a sparse one is decided in few
// planes. An equality or a one-sided interval, the predicates a scan
// binds, walks the planes of four segments per step (eqGroups,
// lessGroups); the segments past the last whole group, and the other
// kinds, are decided one at a time. Any other lo is answered a value at
// a time.
func FilterBits(buf []uint64, width, lo uint64, n int, idLo, span uint32, neg bool, bm []uint64) {
	if lo%64 != 0 {
		for i := 0; i < n; i++ {
			if in := GetBits(buf, width, lo+uint64(i))-uint64(idLo) < uint64(span); in == neg {
				bm[i/64] &^= 1 << (i % 64)
			}
		}
		return
	}
	var f idFilter
	f.init(width, idLo, span, neg)
	buf = buf[lo/64*width:]
	groups := n / 256 * 4 // the words decided four at a time
	switch f.kind {
	case filterEq:
		f.eqGroups(buf, width, bm[:groups])
	case filterLess:
		f.lessGroups(buf, width, bm[:groups])
	default:
		groups = 0
	}
	for w := groups; w*64 < n; w++ {
		rows := ^uint64(0)
		if n-w*64 < 64 {
			rows = 1<<(n-w*64) - 1
		}
		if live := bm[w] & rows; live != 0 {
			bm[w] = bm[w]&^rows | f.segment(buf[uint64(w)*width:][:width], live)
		}
	}
}

// flip returns the mask that turns the rows a filter finds inside into
// the rows it keeps: live &^ in is in ^ live&flip, since in ⊆ live.
func (f *idFilter) flip() uint64 {
	if f.invert {
		return ^uint64(0)
	}
	return 0
}

// eqGroups decides an equality filter on the words of bm, whole segments
// whose count is a multiple of four, the four segments of a group in one
// walk of the planes: four independent chains of the rows still equal to
// the bound, and one exit once none of them holds a row. A plane of the
// bound is all zeros or all ones, so each plane takes one of two bodies
// — the same branch at the same plane of every group — and needs no
// mask of its own.
func (f *idFilter) eqGroups(buf []uint64, width uint64, bm []uint64) {
	bound, flip := f.lo, f.flip()
	for ; len(bm) >= 4; bm, buf = bm[4:], buf[4*width:] {
		l0, l1, l2, l3 := bm[0], bm[1], bm[2], bm[3]
		if l0|l1|l2|l3 == 0 {
			continue
		}
		s0, s1, s2, s3 := group(buf, width)
		in0, in1, in2, in3 := l0, l1, l2, l3
		b := bound
		for j, x0 := range s0 {
			if in0|in1|in2|in3 == 0 {
				break
			}
			x1, x2, x3 := s1[j], s2[j], s3[j]
			set := int64(b) < 0 // the bound's bit at this plane
			b <<= 1
			if !set {
				in0 &^= x0
				in1 &^= x1
				in2 &^= x2
				in3 &^= x3
				continue
			}
			in0 &= x0
			in1 &= x1
			in2 &= x2
			in3 &= x3
		}
		bm[0], bm[1], bm[2], bm[3] = in0^l0&flip, in1^l1&flip, in2^l2&flip, in3^l3&flip
	}
}

// lessGroups is eqGroups for a one-sided filter, id < bound: each of the
// four chains carries the rows still equal to the bound and gathers the
// rows that fall below it, as segment does. Only a plane where the bound
// has a one gathers, so the gathered rows wait in memory and the
// registers hold what every plane touches.
func (f *idFilter) lessGroups(buf []uint64, width uint64, bm []uint64) {
	bound, flip := f.lo, f.flip()
	for ; len(bm) >= 4; bm, buf = bm[4:], buf[4*width:] {
		l0, l1, l2, l3 := bm[0], bm[1], bm[2], bm[3]
		if l0|l1|l2|l3 == 0 {
			continue
		}
		s0, s1, s2, s3 := group(buf, width)
		eq0, eq1, eq2, eq3 := l0, l1, l2, l3
		var in [4]uint64
		b := bound
		for j, x0 := range s0 {
			if eq0|eq1|eq2|eq3 == 0 {
				break
			}
			x1, x2, x3 := s1[j], s2[j], s3[j]
			set := int64(b) < 0 // the bound's bit at this plane
			b <<= 1
			if !set {
				eq0 &^= x0
				eq1 &^= x1
				eq2 &^= x2
				eq3 &^= x3
				continue
			}
			in[0] |= eq0 &^ x0
			in[1] |= eq1 &^ x1
			in[2] |= eq2 &^ x2
			in[3] |= eq3 &^ x3
			eq0 &= x0
			eq1 &= x1
			eq2 &= x2
			eq3 &= x3
		}
		bm[0], bm[1], bm[2], bm[3] = in[0]^l0&flip, in[1]^l1&flip, in[2]^l2&flip, in[3]^l3&flip
	}
}

// group returns the planes of the four segments buf begins with.
func group(buf []uint64, width uint64) (s0, s1, s2, s3 []uint64) {
	s0 = buf[:width]
	return s0, buf[width:][:len(s0)], buf[2*width:][:len(s0)], buf[3*width:][:len(s0)]
}
