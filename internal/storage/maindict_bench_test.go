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

// TestMainColumnSpace builds the five main columns of 200k rows shaped
// like the benchmark's table — unique Int64 ids, 20k customers, 16
// regions, amounts in whole cents out of 100k, unique 32-byte hex
// payloads — and logs each column's heap bytes a row: its blocks'
// payloads and 16-byte headers. The main partition stays at or below
// 70 bytes a row.
func TestMainColumnSpace(t *testing.T) {
	if testing.Short() {
		t.Skip("builds 1M keys")
	}
	const rows = 200_000
	mix := func(x uint64) uint64 {
		x += 0x9E3779B97F4A7C15
		x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
		x = (x ^ (x >> 27)) * 0x94D049BB133111EB
		return x ^ (x >> 31)
	}
	cols := []struct {
		name string
		typ  ColType
		gen  func(i, h uint64) Value
	}{
		{"id", TypeInt64, func(i, _ uint64) Value { return Int(int64(i)) }},
		{"customer", TypeInt64, func(_, h uint64) Value { return Int(int64(h % (rows/10 + 1))) }},
		{"region", TypeString, func(_, h uint64) Value { return Str(fmt.Sprintf("region-%02d", (h>>32)%16)) }},
		{"amount", TypeFloat64, func(_, h uint64) Value { return Float(float64((h>>36)%100_000) / 100) }},
		{"payload", TypeString, func(_, h uint64) Value { return Str(fmt.Sprintf("%016x%016x", h, mix(h))) }},
	}
	h, err := nvm.Create(filepath.Join(t.TempDir(), "heap.nvm"), 256<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	var total float64
	for _, c := range cols {
		keys := make([][]byte, rows)
		for i := range keys {
			keys[i] = c.gen(uint64(i), mix(mix(1)^uint64(i))).EncodeKey(nil)
		}
		m, err := BuildNVMMain(h, c.typ, keys)
		if err != nil {
			t.Fatal(err)
		}
		var used uint64
		m.Blocks(func(p nvm.PPtr) { used += 16 + h.BlockSize(p) })
		perRow := float64(used) / rows
		total += perRow
		t.Logf("%-8s %8d distinct %6.1f B/row", c.name, m.DictLen(), perRow)
	}
	t.Logf("main columns: %.1f B/row", total)
	if total > 70 {
		t.Errorf("main columns take %.1f B/row, more than 70", total)
	}
}
