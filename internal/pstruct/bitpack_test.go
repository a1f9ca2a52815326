package pstruct

import (
	"encoding/binary"
	"fmt"
	"path/filepath"
	"slices"
	"testing"
	"testing/quick"

	"hyrisenv/internal/nvm"
)

func TestBitPackedRoundTrip(t *testing.T) {
	h, _ := testHeap(t)
	for _, width := range []uint64{1, 3, 7, 8, 9, 13, 16, 17, 24, 25, 31, 32} {
		n := 257
		vals := make([]uint64, n)
		for i := range vals {
			vals[i] = (uint64(i)*2654435761 + 17) & (1<<width - 1)
		}
		bp, err := BuildBitPacked(h, vals, width)
		if err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		if bp.Len() != uint64(n) || bp.Bits() != width {
			t.Fatalf("width %d: Len=%d Bits=%d", width, bp.Len(), bp.Bits())
		}
		for i, want := range vals {
			if got := bp.Get(uint64(i)); got != want {
				t.Fatalf("width %d: Get(%d) = %d, want %d", width, i, got, want)
			}
		}
		i := 0
		bp.Scan(func(idx, v uint64) bool {
			if v != vals[idx] {
				t.Fatalf("width %d: Scan(%d) = %d, want %d", width, idx, v, vals[idx])
			}
			i++
			return true
		})
		if i != n {
			t.Fatalf("scan visited %d", i)
		}
	}
}

func TestBitPackedRejectsOversizedValue(t *testing.T) {
	h, _ := testHeap(t)
	if _, err := BuildBitPacked(h, []uint64{8}, 3); err == nil {
		t.Fatal("value 8 accepted at width 3")
	}
	if _, err := BuildBitPacked(h, []uint64{1}, 0); err == nil {
		t.Fatal("width 0 accepted")
	}
	// A value ID is a uint32: no vector is wider.
	if _, err := BuildBitPacked(h, []uint64{1}, 33); err == nil {
		t.Fatal("width 33 accepted")
	}
}

func TestBitPackedEmpty(t *testing.T) {
	h, _ := testHeap(t)
	bp, err := BuildBitPacked(h, nil, 5)
	if err != nil {
		t.Fatal(err)
	}
	if bp.Len() != 0 {
		t.Fatalf("Len = %d", bp.Len())
	}
	bp.Scan(func(uint64, uint64) bool { t.Fatal("scan on empty"); return false })
}

func TestBitPackedSurvivesReopen(t *testing.T) {
	h, path := testHeap(t)
	vals := []uint64{1, 5, 2, 7, 0, 6, 3}
	bp, _ := BuildBitPacked(h, vals, 3)
	h.SetRoot("bp", bp.Root(), 0)
	h2 := reopen(t, h, path)
	root, _, _ := h2.Root("bp")
	bp2 := AttachBitPacked(h2, root)
	for i, want := range vals {
		if got := bp2.Get(uint64(i)); got != want {
			t.Fatalf("Get(%d) = %d, want %d", i, got, want)
		}
	}
}

func TestBitsFor(t *testing.T) {
	cases := []struct{ v, want uint64 }{
		{0, 1}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {255, 8}, {256, 9},
	}
	for _, c := range cases {
		if got := BitsFor(c.v); got != c.want {
			t.Errorf("BitsFor(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

// The codec tests hold the packed format to an oracle written without it:
// the values are a plain []uint64, a predicate is id-idLo < span on them,
// and slowBits reads a buffer one bit at a time from the layout's
// definition alone.

// randomVals returns n pseudo-random width-bit values.
func randomVals(n int, width, seed uint64) []uint64 {
	vals := make([]uint64, n)
	x := seed | 1
	for i := range vals {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		vals[i] = x & (1<<width - 1)
	}
	return vals
}

// pack is PackBits into a buffer that held garbage.
func pack(tb testing.TB, vals []uint64, width uint64) []uint64 {
	words, ok := PackedWords(uint64(len(vals)), width)
	if !ok {
		tb.Fatalf("PackedWords(%d, %d) refused", len(vals), width)
	}
	buf := make([]uint64, words)
	for i := range buf {
		buf[i] = 0xA5A5A5A5A5A5A5A5
	}
	if err := PackBits(buf, width, vals); err != nil {
		tb.Fatal(err)
	}
	return buf
}

// slowBits reads value i of a packed buffer from the definition of the
// format: bit width-1-j of the value is bit i%64 of word j of segment
// i/64.
func slowBits(buf []uint64, width, i uint64) uint64 {
	var v uint64
	for j := uint64(0); j < width; j++ {
		if buf[i/64*width+j]&(1<<(i%64)) != 0 {
			v |= 1 << (width - 1 - j)
		}
	}
	return v
}

// segments reads arbitrary bytes as little-endian words, pads them with
// zeros to whole segments of the width, as every packed buffer is, and
// returns how many values that holds.
func segments(data []byte, width uint64) ([]uint64, uint64) {
	seg := int(width * 8)
	padded := make([]byte, max((len(data)+seg-1)/seg, 1)*seg)
	copy(padded, data)
	buf := make([]uint64, len(padded)/8)
	for i := range buf {
		buf[i] = binary.LittleEndian.Uint64(padded[i*8:])
	}
	return buf, uint64(len(buf)) / width * 64
}

// TestPutGetBitsProperty: whatever is packed reads back, value by value,
// through GetBits and through the definition of the format; the buffer is
// overwritten whole, its padding with zeros; a value the width does not
// hold is refused.
func TestPutGetBitsProperty(t *testing.T) {
	f := func(nIn uint16, widthIn uint8, seed uint64) bool {
		width, n := uint64(widthIn%maxBits)+1, int(nIn%300)
		vals := randomVals(n, width, seed)
		buf := pack(t, vals, width)
		for i, want := range vals {
			if GetBits(buf, width, uint64(i)) != want || slowBits(buf, width, uint64(i)) != want {
				return false
			}
		}
		for i := uint64(n); i < uint64(len(buf))/width*64; i++ {
			if slowBits(buf, width, i) != 0 {
				return false
			}
		}
		if n > 0 {
			vals[int(seed%uint64(n))] = 1 << width
			return PackBits(buf, width, vals) != nil
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPackedWords(t *testing.T) {
	for _, c := range []struct {
		n, width, want uint64
		ok             bool
	}{
		{0, 1, 1, true}, {1, 1, 1, true}, {64, 1, 1, true}, {65, 1, 2, true},
		{200, 17, 4 * 17, true}, {64, 32, 32, true},
		{1, 0, 0, false}, {1, 33, 0, false}, {1, 64, 0, false}, {1 << 60, 1, 0, false}, {^uint64(0), 32, 0, false},
	} {
		if got, ok := PackedWords(c.n, c.width); got != c.want || ok != c.ok {
			t.Errorf("PackedWords(%d, %d) = %d, %v; want %d, %v", c.n, c.width, got, ok, c.want, c.ok)
		}
	}
}

// TestCheckBits: the checker passes what PackBits wrote and reports a
// value at or past the limit, a set bit in the padding of the last
// segment, and a buffer of another size than the count implies.
func TestCheckBits(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 200} {
		const width = 9
		vals := randomVals(n, width, uint64(n)+7)
		buf := pack(t, vals, width)
		if err := CheckBits(buf, width, uint64(n), 1<<width); err != nil {
			t.Fatalf("n %d: %v", n, err)
		}
		if n > 0 {
			if err := CheckBits(buf, width, uint64(n), slices.Max(vals)); err == nil {
				t.Fatalf("n %d: value at the limit not reported", n)
			}
		}
		if err := CheckBits(append(buf, make([]uint64, width)...), width, uint64(n), 1<<width); err == nil {
			t.Fatalf("n %d: a segment too many not reported", n)
		}
		if n%64 == 0 && n > 0 {
			continue // no padding
		}
		for _, plane := range []int{0, width - 1} {
			buf[len(buf)-width+plane] |= 1 << 63
			if err := CheckBits(buf, width, uint64(n), 1<<width); err == nil {
				t.Fatalf("n %d: set padding bit in plane %d not reported", n, plane)
			}
			buf[len(buf)-width+plane] &^= 1 << 63
		}
	}
}

func TestBlobRoundTrip(t *testing.T) {
	h, path := testHeap(t)
	cases := [][]byte{nil, {}, []byte("x"), []byte("hello world"), make([]byte, 10000)}
	var roots []uint64
	for _, c := range cases {
		p, err := WriteBlob(h, c)
		if err != nil {
			t.Fatal(err)
		}
		got := ReadBlob(h, p)
		if string(got) != string(c) {
			t.Fatalf("blob %q read back as %q", c, got)
		}
		if BlobLen(h, p) != uint64(len(c)) {
			t.Fatalf("BlobLen = %d, want %d", BlobLen(h, p), len(c))
		}
		roots = append(roots, uint64(p))
	}
	if ReadBlob(h, 0) != nil {
		t.Fatal("nil blob should read as nil")
	}
	if BlobLen(h, 0) != 0 {
		t.Fatal("nil blob length should be 0")
	}
	// Stash the last pointer and confirm persistence across reopen.
	h.SetRoot("blob", 0, roots[3])
	h2 := reopen(t, h, path)
	_, aux, _ := h2.Root("blob")
	if string(ReadBlob(h2, nvm.PPtr(aux))) != "hello world" {
		t.Fatal("blob lost across reopen")
	}
}

// TestUnpackBitsMatchesGet holds the block decode to the values that
// were packed, at every width, for ranges that start and end on and off
// the segment grid, inside one segment and across several, up to the
// ragged last one — and writes nothing past hi-lo.
func TestUnpackBitsMatchesGet(t *testing.T) {
	const n = 197 // not a multiple of 64: the last segment is padded
	for width := uint64(1); width <= maxBits; width++ {
		vals := randomVals(n, width, width*0x9E3779B97F4A7C15)
		buf := pack(t, vals, width)
		for _, r := range [][2]int{{0, n}, {0, 0}, {n, n}, {n - 1, n}, {1, n - 1}, {63, 65}, {64, 129}, {64, 128}, {5, 6}, {70, 90}, {128, n}} {
			lo, hi := r[0], r[1]
			dst := make([]uint32, hi-lo+1)
			dst[hi-lo] = 0xDEADBEEF // must stay untouched
			UnpackBits(buf, width, uint64(lo), uint64(hi), dst)
			for i := lo; i < hi; i++ {
				if uint64(dst[i-lo]) != vals[i] {
					t.Fatalf("width %d [%d,%d): value %d = %#x, want %#x", width, lo, hi, i, dst[i-lo], vals[i])
				}
			}
			if dst[hi-lo] != 0xDEADBEEF {
				t.Fatalf("width %d [%d,%d): wrote past hi-lo", width, lo, hi)
			}
		}
		var seen int
		ScanBits(buf, width, n, func(i, v uint64) bool {
			if int(i) != seen || v != vals[i] {
				t.Fatalf("width %d: ScanBits gave value %d = %#x at step %d, want %#x", width, i, v, seen, vals[i])
			}
			seen++
			return seen < 100
		})
		if seen != 100 {
			t.Fatalf("width %d: ScanBits made %d calls, want it to stop after 100", width, seen)
		}
	}
}

func TestBitPackedUnpack(t *testing.T) {
	h, _ := testHeap(t)
	vals := make([]uint64, 1000)
	for i := range vals {
		vals[i] = uint64(i*7919) % (1 << 17)
	}
	bp, err := BuildBitPacked(h, vals, 17)
	if err != nil {
		t.Fatal(err)
	}
	bp = AttachBitPacked(h, bp.Root())
	dst := make([]uint32, 300)
	bp.Unpack(650, 950, dst)
	for i, got := range dst {
		if uint64(got) != vals[650+i] {
			t.Fatalf("Unpack: value %d = %d, want %d", 650+i, got, vals[650+i])
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Unpack past Len did not panic")
		}
	}()
	bp.Unpack(900, 1001, make([]uint32, 101))
}

// FuzzUnpackBits: any (width, range) over any buffer contents decodes,
// through GetBits and through UnpackBits, to what a bit-by-bit read gives.
func FuzzUnpackBits(f *testing.F) {
	f.Add([]byte{0xFF, 0x01, 0x80, 0x7F, 0xAA, 0x55, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, uint8(17), uint16(0), uint16(7))
	f.Add(make([]byte, 2*32*8+1), uint8(32), uint16(60), uint16(70))
	f.Add([]byte{}, uint8(1), uint16(3), uint16(3))
	f.Fuzz(func(t *testing.T, data []byte, w uint8, lo16, n16 uint16) {
		width := uint64(w%maxBits) + 1
		buf, count := segments(data, width)
		lo := min(uint64(lo16), count)
		hi := min(lo+uint64(n16), count)
		dst := make([]uint32, hi-lo)
		UnpackBits(buf, width, lo, hi, dst)
		for i := lo; i < hi; i++ {
			want := slowBits(buf, width, i)
			if got := GetBits(buf, width, i); got != want {
				t.Fatalf("width %d: GetBits(%d) = %#x, want %#x", width, i, got, want)
			}
			if uint64(dst[i-lo]) != want {
				t.Fatalf("width %d [%d,%d): value %d = %#x, want %#x", width, lo, hi, i, dst[i-lo], want)
			}
		}
	})
}

// filterSlow is what FilterBits means: bit i of bm, i < n, is cleared
// unless ids[i]-idLo < span, or with neg unless not.
func filterSlow(ids []uint64, n int, idLo, span uint32, neg bool, bm []uint64) []uint64 {
	out := slices.Clone(bm)
	for i := 0; i < n; i++ {
		if in := ids[i]-uint64(idLo) < uint64(span); in == neg {
			out[i/64] &^= 1 << (i % 64)
		}
	}
	return out
}

type idInterval struct {
	lo, span uint32
	neg      bool
}

// filterIntervals are the shapes an interval [lo, lo+span) can take
// against a width, each plain and complemented: around a value eq that
// occurs, the equality, the two one-sided and the two-sided forms; the
// empty span; the span that reaches or passes the top of the width; and
// a start at or past it.
func filterIntervals(eq uint32, width uint64) []idInterval {
	top := uint32(1<<width - 1) // the widest ID; 1<<width itself does not fit at width 32
	var out []idInterval
	for _, iv := range []idInterval{
		{lo: eq, span: 1},              // Eq
		{lo: 0, span: eq},              // Lt
		{lo: 0, span: eq + 1},          // Le
		{lo: eq / 2, span: eq/2 + 1},   // two-sided, ends at eq
		{lo: eq, span: (top - eq) / 2}, // two-sided, starts at eq
		{lo: eq, span: 0},              // a key the dictionary lacks: nothing
		{lo: 0, span: 1},               // the first ID alone
		{lo: top, span: 1},             // the last ID alone
		{lo: eq, span: top - eq + 1},   // idLo+span == 1<<width
		{lo: eq, span: ^uint32(0)},     // idLo+span far past it
		{lo: 0, span: ^uint32(0)},      // everything
		{lo: top, span: 0},
	} {
		out = append(out, iv, idInterval{iv.lo, iv.span, true})
	}
	if width < 32 {
		out = append(out, idInterval{lo: top + 1, span: 5}, idInterval{top + 1, 5, true}, // idLo == 1<<width
			idInterval{lo: ^uint32(0), span: 1}, idInterval{^uint32(0), ^uint32(0), true})
	}
	return out
}

// filterFills are the input bitmaps of the FilterBits tests, a word
// pattern repeated over the bitmap: full, half-live, sparse and empty
// words, and groups of four segments in which one word is zero and
// another sparse, next to full ones.
var filterFills = [][]uint64{
	{^uint64(0)}, {0xFFFFFFFF}, {0xF0F0_0000_FFFF_0001}, {0},
	{0, ^uint64(0), 1<<40 | 1<<3, ^uint64(0)},
	{^uint64(0), 1 << 63, ^uint64(0), 0},
}

// fillWords returns a bitmap of n words, filterFills pattern fill
// repeated.
func fillWords(n int, fill []uint64) []uint64 {
	bm := make([]uint64, n)
	for i := range bm {
		bm[i] = fill[i%len(fill)]
	}
	return bm
}

// TestFilterBitsMatchesGetBits holds the predicate on the planes to its
// definition on the plain values: every width, every shape of interval, a
// start on and off the 64-row grid, lengths from one row to a block with
// ragged last words — around the groups of four segments the aligned
// path walks together, too — and the input bitmaps of filterFills, whose
// bits past n must come back as they went in.
func TestFilterBitsMatchesGetBits(t *testing.T) {
	for width := uint64(1); width <= maxBits; width++ {
		for _, lo := range []uint64{0, 64, 128, 8, 3, 61} {
			for _, n := range []int{1, 7, 63, 64, 65, 128, 200, 255, 256, 257, 320, 1000, 1024} {
				vals := randomVals(int(lo)+n, width, width*0x9E3779B97F4A7C15+lo)
				buf := pack(t, vals, width)
				eq := uint32(vals[int(lo)+n/2])
				for _, iv := range filterIntervals(eq, width) {
					for _, fill := range filterFills {
						bm := fillWords((n+63)/64+1, fill)
						if len(bm) > 2 && len(fill) == 1 {
							bm[1] = 0 // a zero word between live ones
						}
						want := filterSlow(vals[lo:], n, iv.lo, iv.span, iv.neg, bm)
						FilterBits(buf, width, lo, n, iv.lo, iv.span, iv.neg, bm)
						if !slices.Equal(bm, want) {
							t.Fatalf("width %d lo %d n %d interval %+v fill %#x:\n got %#x\nwant %#x", width, lo, n, iv, fill, bm, want)
						}
					}
				}
			}
		}
	}
}

// TestFilterBitsEarlyExit: a comparison stops at the plane that leaves no
// live row undecided. A column of one repeated value keeps every row
// undecided against that value to the last plane; the same column with
// one row in 64 live, or compared against a value that differs in the top
// bit, is decided early. The mixed columns put such segments side by side
// in the groups of four the aligned path walks together: one segment
// decided at the top plane next to one undecided to the last and random
// ones, in every order. All give the words the definition gives.
func TestFilterBitsEarlyExit(t *testing.T) {
	for width := uint64(1); width <= maxBits; width++ {
		const n = 512
		same := uint64(0x5555555555555555) & (1<<width - 1)
		top := same ^ 1<<(width-1) // differs from same in the top bit
		random := randomVals(n, width, width)
		segs := func(kinds ...int) []uint64 {
			vals := make([]uint64, n)
			for i := range vals {
				switch kinds[i/64%len(kinds)] {
				case 0:
					vals[i] = same
				case 1:
					vals[i] = top
				default:
					vals[i] = random[i]
				}
			}
			return vals
		}
		for _, vals := range [][]uint64{segs(0), segs(1, 0, 2, 2), segs(0, 1, 2, 0), segs(2, 2, 1, 0), segs(1, 2, 0, 2, 0, 1, 1, 2)} {
			buf := pack(t, vals, width)
			for _, id := range []uint32{uint32(same), uint32(top), uint32(same) ^ 1} {
				for _, iv := range filterIntervals(id, width) {
					for _, fill := range []uint64{^uint64(0), 1 << 17} {
						bm := fillWords(n/64, []uint64{fill})
						want := filterSlow(vals, n, iv.lo, iv.span, iv.neg, bm)
						FilterBits(buf, width, 0, n, iv.lo, iv.span, iv.neg, bm)
						if !slices.Equal(bm, want) {
							t.Fatalf("width %d id %#x interval %+v fill %#x:\n got %#x\nwant %#x", width, id, iv, fill, bm, want)
						}
					}
				}
			}
		}
	}
}

// TestBitPackedFilter: the vector's Filter is FilterBits over its data,
// after reopen too, and refuses a range past its length.
func TestBitPackedFilter(t *testing.T) {
	h, _ := testHeap(t)
	vals := make([]uint64, 3000)
	for i := range vals {
		vals[i] = uint64(i*7919) % (1 << 15)
	}
	bp, err := BuildBitPacked(h, vals, 15)
	if err != nil {
		t.Fatal(err)
	}
	bp = AttachBitPacked(h, bp.Root())
	for _, r := range [][2]uint64{{0, 1024}, {1024, 2048}, {2048, 3000}, {2999, 3000}} {
		lo, hi := r[0], r[1]
		bm := make([]uint64, 16)
		for i := range bm[:(hi-lo+63)/64] {
			bm[i] = ^uint64(0)
		}
		bp.Filter(lo, hi, 1000, 9000, true, bm)
		for i := lo; i < hi; i++ {
			want := vals[i] < 1000 || vals[i] >= 10000
			if got := bm[(i-lo)/64]>>((i-lo)%64)&1 == 1; got != want {
				t.Fatalf("Filter [%d,%d): row %d (ID %d) kept %v, want %v", lo, hi, i, vals[i], got, want)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Filter past Len did not panic")
		}
	}()
	bp.Filter(2048, 3001, 0, 1, false, make([]uint64, 16))
}

// FuzzFilterBits: any interval over any (width, start, length) of any
// buffer contents keeps the rows its definition keeps on the values a
// bit-by-bit read gives, and touches no bit from n on.
func FuzzFilterBits(f *testing.F) {
	f.Add([]byte{0xFF, 0x01, 0x80, 0x7F, 0xAA, 0x55, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, uint8(4), uint16(0), uint16(30), uint32(3), uint32(5), false, uint64(1)<<63|1)
	f.Add(make([]byte, 17*8*3), uint8(16), uint16(64), uint16(100), uint32(0), uint32(1), true, ^uint64(0))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(31), uint16(5), uint16(1), uint32(1), uint32(0), false, ^uint64(0))
	// Four segments and more, which the aligned path walks as a group: an
	// equality, a one-sided interval and its complement, at widths 4 and 17.
	// The first segment of each holds the widest ID alone, which leaves
	// the bound at the top plane while its neighbours stay undecided.
	grouped := func(width, segs int) []byte {
		data := make([]byte, segs*width*8)
		for i := range data {
			data[i] = byte(i*0x9D + i>>3)
		}
		for i := range data[:width*8] {
			data[i] = 0xFF
		}
		return data
	}
	f.Add(grouped(4, 4), uint8(3), uint16(0), uint16(256), uint32(5), uint32(1), false, ^uint64(0))
	f.Add(grouped(4, 5), uint8(3), uint16(0), uint16(300), uint32(5), uint32(1), true, uint64(0xF0F0_0000_FFFF_0001))
	f.Add(grouped(17, 4), uint8(16), uint16(0), uint16(256), uint32(0), uint32(40_000), false, ^uint64(0))
	f.Add(grouped(17, 9), uint8(16), uint16(64), uint16(512), uint32(0), uint32(21_617), true, ^uint64(0))
	f.Fuzz(func(t *testing.T, data []byte, w uint8, lo16, n16 uint16, idLo, span uint32, neg bool, fill uint64) {
		width := uint64(w%maxBits) + 1
		buf, count := segments(data, width)
		lo := min(uint64(lo16), count)
		n := int(min(uint64(n16), count-lo))
		ids := make([]uint64, n)
		for i := range ids {
			ids[i] = slowBits(buf, width, lo+uint64(i))
		}
		bm := make([]uint64, (n+63)/64+1)
		for i := range bm {
			bm[i] = fill
		}
		want := filterSlow(ids, n, idLo, span, neg, bm)
		FilterBits(buf, width, lo, n, idLo, span, neg, bm)
		if !slices.Equal(bm, want) {
			t.Fatalf("width %d lo %d n %d [%d,+%d) neg %v:\n got %#x\nwant %#x", width, lo, n, idLo, span, neg, bm, want)
		}
	})
}

var benchWidths = []uint64{1, 4, 8, 15, 17, 24, 32}

// servedShapes are the predicates the `scan` workload of benchmark/
// serves on its 200k-row table, as its columns bind them: IDs uniform
// over a dictionary of `dict` values — 16 regions, 20,001 customers and
// the about 86.5k distinct amounts that 200k draws from 100k cents give
// — and the ID interval of the operator and constant.
var servedShapes = []struct {
	name string
	dict uint64
	idInterval
}{
	{"region=", 16, idInterval{lo: 5, span: 1}},
	{"region!=", 16, idInterval{lo: 5, span: 1, neg: true}},
	{"amount<1.00", 86_466, idInterval{lo: 0, span: 86}},
	{"amount<250.00", 86_466, idInterval{lo: 0, span: 21_617}},
	{"customer>=quartile", 20_001, idInterval{lo: 0, span: 5_000, neg: true}},
}

// BenchmarkFilterBits is a value-ID predicate over a packed column a
// block at a time, as the scan kernel runs it: every shape of interval,
// over a bitmap with every row live and with one in ten, for IDs drawn
// over all of [0, 2^width); then, under served/, the shapes of
// servedShapes with every row live, at the widths 4, 15 and 17 their
// dictionaries pack to.
func BenchmarkFilterBits(b *testing.B) {
	const rows, block = 1 << 18, 1024
	run := func(name string, buf []uint64, width uint64, iv idInterval, live [block / 64]uint64) {
		b.Run(name, func(b *testing.B) {
			var sink uint64
			for i := 0; i < b.N; i++ {
				for lo := uint64(0); lo < rows; lo += block {
					bm := live
					FilterBits(buf, width, lo, block, iv.lo, iv.span, iv.neg, bm[:])
					sink += bm[0]
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rows, "ns/row")
			_ = sink
		})
	}
	for _, width := range benchWidths {
		buf := pack(b, randomVals(rows, width, 42), width)
		mid := uint32(1) << (width - 1)
		for _, iv := range []struct {
			name string
			idInterval
		}{
			{"eq", idInterval{lo: mid, span: 1}},
			{"one-sided", idInterval{lo: 0, span: mid + mid/3}},
			{"two-sided", idInterval{lo: mid / 3, span: mid}},
			{"neg", idInterval{lo: mid / 3, span: mid, neg: true}},
		} {
			for _, live := range []struct {
				name string
				bm   [block / 64]uint64
			}{{"all", liveWords(1)}, {"tenth", liveWords(10)}} {
				run(fmt.Sprintf("width=%d/%s/live=%s", width, iv.name, live.name), buf, width, iv.idInterval, live.bm)
			}
		}
	}
	for _, sh := range servedShapes {
		width := BitsFor(sh.dict - 1)
		vals := randomVals(rows, 64, 42)
		for i := range vals {
			vals[i] %= sh.dict
		}
		run(fmt.Sprintf("served/width=%d/%s", width, sh.name), pack(b, vals, width), width, sh.idInterval, liveWords(1))
	}
}

// liveWords is a block's bitmap with one row in every `every` set.
func liveWords(every int) (bm [16]uint64) {
	for i := 0; i < len(bm)*64; i += every {
		bm[i/64] |= 1 << (i % 64)
	}
	return bm
}

func BenchmarkUnpackBits(b *testing.B) {
	const rows = 1 << 18
	for _, width := range benchWidths {
		b.Run(fmt.Sprintf("width=%d", width), func(b *testing.B) {
			buf := pack(b, randomVals(rows, width, 42), width)
			var dst [1024]uint32
			var sink uint32
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for lo := uint64(0); lo < rows; lo += uint64(len(dst)) {
					UnpackBits(buf, width, lo, lo+uint64(len(dst)), dst[:])
					sink += dst[0]
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rows, "ns/row")
			_ = sink
		})
	}
}

// BenchmarkBitPackedGet is the point read of a row fetch: values at
// scattered indexes of an attached vector.
func BenchmarkBitPackedGet(b *testing.B) {
	const rows = 1 << 18
	for _, width := range benchWidths {
		b.Run(fmt.Sprintf("width=%d", width), func(b *testing.B) {
			h, err := nvm.Create(filepath.Join(b.TempDir(), "heap.nvm"), 64<<20)
			if err != nil {
				b.Fatal(err)
			}
			defer h.Close()
			bp, err := BuildBitPacked(h, randomVals(rows, width, 42), width)
			if err != nil {
				b.Fatal(err)
			}
			var sink uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink += bp.Get(uint64(i) * 2654435761 % rows)
			}
			_ = sink
		})
	}
}
