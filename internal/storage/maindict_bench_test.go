package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"hyrisenv/internal/nvm"
)

// dictSink keeps the benchmarked reads from being optimized away.
var dictSink uint64

// BenchmarkMainDict times the main dictionary's reads on the shapes of
// the benchmark's scan table at 200k rows: the unique Int64 ids, 86.5k
// Float64 amounts, unique 32-byte hex payload strings and 16 short region
// strings — with no read latency modelled and at 200 ns a line. Each
// lookup probes a key of the dictionary.
func BenchmarkMainDict(b *testing.B) {
	const rows = 200_000
	rng := rand.New(rand.NewSource(1))
	shapes := []struct {
		name string
		typ  ColType
		n    int
		gen  func(i int) Value
	}{
		{"int64_200k", TypeInt64, rows, func(i int) Value { return Int(int64(i)) }},
		{"float64_86k", TypeFloat64, 86_500, func(i int) Value { return Float(float64(i) / 100) }},
		{"string32_200k", TypeString, rows, func(int) Value { return Str(fmt.Sprintf("%016x%016x", rng.Uint64(), rng.Uint64())) }},
		{"string_16", TypeString, 16, func(i int) Value { return Str(fmt.Sprintf("region-%02d", i)) }},
	}
	for _, readNS := range []int64{0, 200} {
		for _, sh := range shapes {
			h, err := nvm.Create(filepath.Join(b.TempDir(), "heap.nvm"), 64<<20, nvm.WithLatency(nvm.LatencyModel{ReadNS: readNS}))
			if err != nil {
				b.Fatal(err)
			}
			keys := make([][]byte, sh.n)
			for i := range keys {
				keys[i] = sh.gen(i).EncodeKey(nil)
			}
			slices.SortFunc(keys, bytes.Compare)
			m, err := nvmMainFromParts(h, sh.typ, keys, []uint64{0})
			if err != nil {
				b.Fatal(err)
			}
			probes := make([][]byte, 1024)
			for i := range probes {
				probes[i] = keys[rng.Intn(len(keys))]
			}
			b.Run(fmt.Sprintf("read=%dns/%s/LookupValueID", readNS, sh.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, ok := m.LookupValueID(probes[i%len(probes)]); !ok {
						b.Fatal("key not found")
					}
				}
			})
			b.Run(fmt.Sprintf("read=%dns/%s/LookupRange", readNS, sh.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					lo, hi := m.LookupRange(probes[i%len(probes)], probes[(i+1)%len(probes)])
					dictSink += lo ^ hi
				}
			})
			b.Run(fmt.Sprintf("read=%dns/%s/DictValue", readNS, sh.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					dictSink += uint64(m.DictValue(uint64(i % sh.n)).I)
				}
			})
			h.Close()
		}
	}
}
