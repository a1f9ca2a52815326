package pstruct

import (
	"fmt"
	"math/bits"
	"testing"
	"testing/quick"

	"hyrisenv/internal/nvm"
)

func TestBitPackedRoundTrip(t *testing.T) {
	h, _ := testHeap(t)
	for _, width := range []uint64{1, 3, 7, 8, 13, 16, 31, 32, 33, 63, 64} {
		n := 257
		vals := make([]uint64, n)
		var mask uint64
		if width == 64 {
			mask = ^uint64(0)
		} else {
			mask = (uint64(1) << width) - 1
		}
		for i := range vals {
			vals[i] = (uint64(i)*2654435761 + 17) & mask
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
	if _, err := BuildBitPacked(h, []uint64{1}, 65); err == nil {
		t.Fatal("width 65 accepted")
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

func TestPutGetBitsProperty(t *testing.T) {
	buf := make([]byte, 64)
	f := func(off uint8, widthIn uint8, v uint64) bool {
		width := uint64(widthIn%64) + 1
		o := uint64(off) % 300
		var mask uint64
		if width == 64 {
			mask = ^uint64(0)
		} else {
			mask = (uint64(1) << width) - 1
		}
		PutBits(buf, o, width, v&mask)
		return GetBits(buf, o, width) == v&mask
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
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

// packRandom packs n pseudo-random width-bit values the slow way and
// returns the buffer with the values.
func packRandom(n int, width, seed uint64) ([]byte, []uint64) {
	buf := make([]byte, (uint64(n)*width+63)/64*8)
	vals := make([]uint64, n)
	x := seed | 1
	for i := range vals {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		vals[i] = x & bitMask(width)
		PutBits(buf, uint64(i)*width, width, vals[i])
	}
	return buf, vals
}

// slowBits reads width bits at bit offset off one bit at a time — a
// decode that shares nothing with the word loads under test.
func slowBits(buf []byte, off, width uint64) uint64 {
	var v uint64
	for i := uint64(0); i < width; i++ {
		bit := off + i
		v |= uint64(buf[bit/8]>>(bit%8)&1) << i
	}
	return v
}

// TestUnpackBitsMatchesGet holds the block decode to the single-value
// one at every width, for ranges that start and end off a word
// boundary, on a value that spills into the next word, and on the
// final partial word.
func TestUnpackBitsMatchesGet(t *testing.T) {
	const n = 197 // not a multiple of 64: the last word is partial for most widths
	for width := uint64(1); width <= 64; width++ {
		buf, vals := packRandom(n, width, width*0x9E3779B97F4A7C15)
		for i, want := range vals {
			if got := GetBits(buf, uint64(i)*width, width); got != want || slowBits(buf, uint64(i)*width, width) != want {
				t.Fatalf("width %d: GetBits(%d) = %#x, want %#x", width, i, got, want)
			}
		}
		// The first value that straddles two words, if the width has one.
		spill := -1
		for i := 0; i < n; i++ {
			if uint64(i)*width%64+width > 64 {
				spill = i
				break
			}
		}
		ranges := [][2]int{{0, n}, {0, 0}, {n, n}, {n - 1, n}, {1, n - 1}, {63, 65}, {64, 129}, {5, 6}}
		if spill >= 0 {
			ranges = append(ranges, [2]int{spill, spill + 1}, [2]int{spill - 1, spill + 2})
		}
		for _, r := range ranges {
			lo, hi := r[0], r[1]
			dst := make([]uint32, hi-lo+1)
			dst[hi-lo] = 0xDEADBEEF // must stay untouched
			UnpackBits(buf, width, uint64(lo), uint64(hi), dst)
			for i := lo; i < hi; i++ {
				if dst[i-lo] != uint32(vals[i]) {
					t.Fatalf("width %d [%d,%d): value %d = %#x, want %#x", width, lo, hi, i, dst[i-lo], uint32(vals[i]))
				}
			}
			if dst[hi-lo] != 0xDEADBEEF {
				t.Fatalf("width %d [%d,%d): wrote past hi-lo", width, lo, hi)
			}
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
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(64), uint16(0), uint16(1))
	f.Add([]byte{}, uint8(1), uint16(3), uint16(3))
	f.Fuzz(func(t *testing.T, data []byte, w uint8, lo16, n16 uint16) {
		width := uint64(w%64) + 1
		buf := make([]byte, (len(data)+7)/8*8) // whole words, as every packed buffer is
		copy(buf, data)
		count := uint64(len(buf)) * 8 / width
		lo := uint64(lo16)
		if lo > count {
			lo = count
		}
		hi := lo + uint64(n16)
		if hi > count {
			hi = count
		}
		dst := make([]uint32, hi-lo)
		UnpackBits(buf, width, lo, hi, dst)
		for i := lo; i < hi; i++ {
			want := slowBits(buf, i*width, width)
			if got := GetBits(buf, i*width, width); got != want {
				t.Fatalf("width %d: GetBits(%d) = %#x, want %#x", width, i, got, want)
			}
			if dst[i-lo] != uint32(want) {
				t.Fatalf("width %d [%d,%d): value %d = %#x, want %#x", width, lo, hi, i, dst[i-lo], uint32(want))
			}
		}
	})
}

func BenchmarkUnpackBits(b *testing.B) {
	const rows = 1 << 18
	for _, width := range []uint64{4, 17} {
		b.Run(fmt.Sprintf("width=%d", width), func(b *testing.B) {
			buf, _ := packRandom(rows, width, 42)
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

// filterSlow is FilterBits a bit at a time: what the predicate means,
// sharing no load, shift or compare with the code under test.
func filterSlow(buf []byte, width, lo uint64, n int, idLo, span uint32, neg bool, bm []uint64) []uint64 {
	out := append([]uint64(nil), bm...)
	for i := 0; i < n; i++ {
		id := uint32(slowBits(buf, (lo+uint64(i))*width, width))
		if in := id >= idLo && uint64(id) < uint64(idLo)+uint64(span); in == neg {
			out[i/64] &^= 1 << (i % 64)
		}
	}
	return out
}

// filterIntervals are the value-ID intervals the six operators resolve
// to around a key with ID eq, in a dictionary of dictLen IDs: [lo,
// lo+span), complemented when neg. They include the empty and the full
// span.
func filterIntervals(eq, dictLen uint32) []struct {
	lo, span uint32
	neg      bool
} {
	return []struct {
		lo, span uint32
		neg      bool
	}{
		{eq, 1, false},      // Eq
		{eq, 1, true},       // Ne
		{0, eq, false},      // Lt
		{0, eq + 1, false},  // Le
		{0, eq + 1, true},   // Gt
		{0, eq, true},       // Ge
		{eq, 0, false},      // Eq of a key the dictionary lacks: nothing
		{eq, 0, true},       // Ne of such a key: everything
		{0, dictLen, false}, // the full span
		{0, dictLen, true},
	}
}

// TestFilterBitsMatchesGetBits holds the predicate on the packed words
// to the bit-at-a-time one: every width, every operator's interval, a
// start on and off the group grid, lengths from one row to a block with
// ragged last words, full and sparse input bitmaps — and buffers that end
// with their last value, so that the last word's loads have no slack to
// run into.
func TestFilterBitsMatchesGetBits(t *testing.T) {
	widths := []uint64{33, 40, 56, 57, 58, 63, 64} // wider than an ID, and than a group load
	for w := uint64(1); w <= 32; w++ {
		widths = append(widths, w)
	}
	for _, width := range widths {
		dictLen := uint32(bitMask(min(width, 32)))
		for _, lo := range []uint64{0, 64, 8, 3, 61} {
			for _, n := range []int{1, 7, 63, 64, 65, 128, 200, 1000, 1024} {
				// The buffer holds exactly lo+n values, rounded up to whole
				// words as every packed buffer is: for n a multiple of 64
				// and lo one of 8 it ends on the last value's last bit.
				buf, vals := packRandom(int(lo)+n, width, width*0x9E3779B97F4A7C15+lo)
				eq := uint32(vals[int(lo)+n/2])
				for _, iv := range filterIntervals(eq, dictLen) {
					for _, fill := range []uint64{^uint64(0), 0xF0F0_0000_FFFF_0001, 0} {
						bm := make([]uint64, (n+63)/64+1)
						for i := range bm {
							bm[i] = fill
						}
						if n%64 != 0 {
							bm[n/64] &= 1<<(n%64) - 1 // as VisibleBits leaves the last word
						}
						bm[len(bm)-1] = 0xDEADBEEF // must stay untouched
						want := filterSlow(buf, width, lo, n, iv.lo, iv.span, iv.neg, bm)
						FilterBits(buf, width, lo, n, iv.lo, iv.span, iv.neg, bm)
						for i := range bm {
							if bm[i] != want[i] {
								t.Fatalf("width %d lo %d n %d interval %+v fill %#x: word %d = %#x, want %#x",
									width, lo, n, iv, fill, i, bm[i], want[i])
							}
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
// buffer contents keeps the rows a bit-by-bit read keeps, and reads
// nothing past the buffer.
func FuzzFilterBits(f *testing.F) {
	f.Add([]byte{0xFF, 0x01, 0x80, 0x7F, 0xAA, 0x55, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, uint8(4), uint16(0), uint16(30), uint32(3), uint32(5), false, uint64(1)<<63|1)
	f.Add(make([]byte, 17*8*3), uint8(16), uint16(8), uint16(64), uint32(0), uint32(1), true, ^uint64(0))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(63), uint16(0), uint16(1), uint32(1), uint32(0), false, ^uint64(0))
	f.Fuzz(func(t *testing.T, data []byte, w uint8, lo16, n16 uint16, idLo, span uint32, neg bool, fill uint64) {
		width := uint64(w%64) + 1
		buf := make([]byte, (len(data)+7)/8*8) // whole words, as every packed buffer is
		copy(buf, data)
		count := uint64(len(buf)) * 8 / width
		lo := min(uint64(lo16), count)
		n := int(min(uint64(n16), count-lo))
		bm := make([]uint64, (n+63)/64+1)
		for i := range bm {
			bm[i] = fill
		}
		want := filterSlow(buf, width, lo, n, idLo, span, neg, bm)
		FilterBits(buf, width, lo, n, idLo, span, neg, bm)
		for i := range bm[:(n+63)/64] {
			// Bits past n in the last word are the caller's to keep zero;
			// what FilterBits leaves there is not part of the contract.
			mask := ^uint64(0)
			if i == n/64 {
				mask = 1<<(n%64) - 1
			}
			if bm[i]&mask != want[i]&mask {
				t.Fatalf("width %d lo %d n %d [%d,+%d) neg %v: word %d = %#x, want %#x", width, lo, n, idLo, span, neg, i, bm[i]&mask, want[i]&mask)
			}
		}
		if bm[len(bm)-1] != fill {
			t.Fatalf("width %d lo %d n %d: wrote a word beyond the range", width, lo, n)
		}
	})
}

// BenchmarkFilterBits is a range predicate over a packed column a block
// at a time, on the packed words (FilterBits) and the way the scan kernel
// did it before: unpack the block, then compare the IDs.
func BenchmarkFilterBits(b *testing.B) {
	const rows, block = 1 << 18, 1024
	for _, width := range []uint64{4, 15, 17} {
		buf, _ := packRandom(rows, width, 42)
		idLo, span := uint32(1), uint32(bitMask(width)/2)
		var bm [block / 64]uint64
		var sink uint64
		report := func(b *testing.B) {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rows, "ns/row")
			_ = sink
		}
		b.Run(fmt.Sprintf("width=%d/packed", width), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for lo := uint64(0); lo < rows; lo += block {
					for w := range bm {
						bm[w] = ^uint64(0)
					}
					FilterBits(buf, width, lo, block, idLo, span, false, bm[:])
					sink += bm[0]
				}
			}
			report(b)
		})
		b.Run(fmt.Sprintf("width=%d/unpack-compare", width), func(b *testing.B) {
			var ids [block]uint32
			for i := 0; i < b.N; i++ {
				for lo := uint64(0); lo < rows; lo += block {
					UnpackBits(buf, width, lo, lo+block, ids[:])
					for w := range bm {
						var in uint64
						for i, id := range ids[w*64 : w*64+64] {
							_, below := bits.Sub32(id-idLo, span, 0)
							in |= uint64(below) << i
						}
						bm[w] = in
					}
					sink += bm[0]
				}
			}
			report(b)
		})
	}
}
