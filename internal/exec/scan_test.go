package exec

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"hyrisenv/internal/nvm"
	"hyrisenv/internal/storage"
)

var deltaTypes = []storage.ColType{storage.TypeInt64, storage.TypeFloat64, storage.TypeString}

// fuzzDelta builds a delta column of typ whose dictionary holds the keys
// cut from data: 8 bytes each for Int64 and Float64, and for String a
// length byte (mod 12) and that many bytes, zeros and shared prefixes
// included.
func fuzzDelta(t *testing.T, typ storage.ColType, data []byte) *storage.NVMDelta {
	d := newDelta(t, typ)
	for len(data) > 0 {
		var key []byte
		if typ == storage.TypeString {
			n := min(int(data[0]%12), len(data)-1)
			key, data = data[1:1+n], data[1+n:]
		} else {
			var b [8]byte
			n := copy(b[:], data)
			key, data = b[:], data[n:]
		}
		if _, err := d.Append(storage.DecodeValue(typ, key)); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

// newDelta returns an empty, unindexed delta column on a heap of its own
// that does not persist.
func newDelta(t testing.TB, typ storage.ColType) *storage.NVMDelta {
	h, err := nvm.CreateVolatile()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.Close() })
	d, err := storage.NewNVMDelta(h, typ, false)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// FuzzDeltaFilter holds the delta kernel — the interval test on value IDs
// or on key words, and the whole-key comparison of String rows whose word
// ties — to the definition: a row stays set exactly when it was set and
// its key compares with the bound as the operator demands. The bound is a
// dictionary key, the same key with a zero byte added or its last byte
// dropped, or bytes of its own; the bitmap covers up to a block of rows
// with random value IDs.
func FuzzDeltaFilter(f *testing.F) {
	f.Add(uint8(2), uint8(2), []byte("\x09region-00\x09region-15\x08region-1\x02ab\x03ab\x00\x09region-07"), uint8(5), []byte("x"), uint16(300), int64(1), ^uint64(0))
	f.Add(uint8(0), uint8(3), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0, 0, 0, 0, 0x80}, uint8(0), []byte{}, uint16(1024), int64(2), uint64(0x5555))
	f.Add(uint8(1), uint8(4), []byte{0x80, 0, 0, 0, 0, 0, 0, 0, 0x7f, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, uint8(200), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, uint16(65), int64(3), ^uint64(0))
	f.Add(uint8(0), uint8(1), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17}, uint8(4), []byte{}, uint16(128), int64(4), ^uint64(0))
	f.Fuzz(func(t *testing.T, typ, op uint8, keys []byte, pick uint8, own []byte, n16 uint16, seed int64, fill uint64) {
		d := fuzzDelta(t, deltaTypes[int(typ)%len(deltaTypes)], keys)
		dict := d.DictLen()
		var bound []byte
		switch k := uint64(pick); {
		case dict > 0 && k%4 == 0:
			bound = d.DictKey(k / 4 % dict)
		case dict > 0 && k%4 == 1:
			bound = append(bytes.Clone(d.DictKey(k/4%dict)), 0)
		case dict > 0 && k%4 == 2 && len(d.DictKey(k/4%dict)) > 0:
			key := d.DictKey(k / 4 % dict)
			bound = key[:len(key)-1]
		default:
			bound = own
		}
		if d.Type() != storage.TypeString { // a numeric bound is 8 bytes
			bound = append(bytes.Clone(bound), make([]byte, 8)...)[:8]
		}
		p := colPred{delta: d, op: Op(int(op) % 7), key: bound}
		if p.op == 6 {
			p.op = 99 // no operator: matches nothing
		}
		p.bindDelta()

		n := 0
		if dict > 0 {
			n = int(n16) % (blockRows + 1)
		}
		rng := rand.New(rand.NewSource(seed))
		ids := make([]uint32, n)
		for i := range ids {
			ids[i] = uint32(rng.Int63n(int64(dict)))
		}
		bm := make([]uint64, (n+63)/64)
		for i := range bm {
			bm[i] = fill ^ rng.Uint64()&rng.Uint64()
		}
		if n%64 != 0 {
			bm[len(bm)-1] &= 1<<(n%64) - 1
		}
		was := append([]uint64(nil), bm...)
		p.filterDelta(ids, bm)
		for i, id := range ids {
			set := was[i/64]>>(i%64)&1 == 1
			want := set && p.op.matches(bytes.Compare(d.DictKey(uint64(id)), bound))
			if got := bm[i/64]>>(i%64)&1 == 1; got != want {
				t.Fatalf("%s op %d bound %q: row %d (id %d, key %q, set %v) bit %v, want %v", d.Type(), p.op, bound, i, id, d.DictKey(uint64(id)), set, got, want)
			}
		}
	})
}

// BenchmarkDeltaFilter is one predicate over the delta a block at a time,
// as the scan kernel runs it, with every row live: Eq and Ne test value
// IDs, Lt the key words, over dictionaries of 4k and 100k keys. The
// String keys are decimals of random numbers, so few words tie. Binding
// builds the key words, outside the timed loop, as the first scan of a
// delta does once.
func BenchmarkDeltaFilter(b *testing.B) {
	const rows = 1 << 16
	for _, typ := range deltaTypes {
		for _, dict := range []int{4 << 10, 100 << 10} {
			rng := rand.New(rand.NewSource(int64(dict)))
			d := newDelta(b, typ)
			for d.DictLen() < uint64(dict) {
				x := rng.Int63()
				v := storage.Int(x)
				switch typ {
				case storage.TypeFloat64:
					v = storage.Float(float64(x) / 3)
				case storage.TypeString:
					v = storage.Str(fmt.Sprint(x))
				}
				if _, err := d.Append(v); err != nil {
					b.Fatal(err)
				}
			}
			ids := make([]uint32, rows)
			for i := range ids {
				ids[i] = uint32(rng.Intn(dict))
			}
			for _, op := range []Op{Eq, Ne, Lt} {
				b.Run(fmt.Sprintf("%s/dict=%dk/%s", typ, dict>>10, [...]string{"eq", "ne", "lt"}[op]), func(b *testing.B) {
					p := colPred{delta: d, op: op, key: d.DictKey(uint64(dict / 2))}
					p.bindDelta()
					b.ResetTimer()
					var sink uint64
					for i := 0; i < b.N; i++ {
						for lo := 0; lo < rows; lo += blockRows {
							var bm [blockWords]uint64
							for w := range bm {
								bm[w] = ^uint64(0)
							}
							p.filterDelta(ids[lo:lo+blockRows], bm[:])
							sink += bm[0]
						}
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rows, "ns/row")
					_ = sink
				})
			}
		}
	}
}
