package storage

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"slices"
	"testing"
)

// TestReadCheckpointRejectsCorruptCounts: a checkpoint whose main row
// count, delta row count, dictionary size or key length claims more than
// the stream holds is refused with an error — not a panic, and not an
// allocation of what the count claims. So is one whose main dictionary
// is out of order, which lookups would binary-search wrongly.
func TestReadCheckpointRejectsCorruptCounts(t *testing.T) {
	tbl := dramTable(t, ordersSchema(t), 0b001)
	for i := int64(0); i < 20; i++ {
		row, _ := tbl.AppendRow([]Value{Int(i), Str("c"), Float(1)}, 1)
		commitRow(tbl, row, 2)
	}
	if _, err := tbl.Merge(3); err != nil {
		t.Fatal(err)
	}
	row, _ := tbl.AppendRow([]Value{Int(99), Str("d"), Float(2)}, 1)
	commitRow(tbl, row, 4)
	var buf bytes.Buffer
	if err := tbl.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	// The header: magic, version, name blob, table ID, index mask, schema
	// blob; then the main and delta row counts, and column 0's main
	// dictionary: its size and its first key's length.
	offMR := 8 + 4 + len(tbl.Name) + 4 + 8 + 4 + len(tbl.Schema.Marshal())
	offDR := offMR + 8
	offDictN := offDR + 8
	offKeyLen := offDictN + 8
	le := binary.LittleEndian
	if le.Uint64(good[offMR:]) != 20 || le.Uint64(good[offDR:]) != 1 ||
		le.Uint64(good[offDictN:]) != 20 || le.Uint32(good[offKeyLen:]) != 8 {
		t.Fatal("the checkpoint layout is not the one this test corrupts")
	}
	h := testDRAMHeap(t)
	if _, err := ReadCheckpoint(h, bytes.NewReader(good)); err != nil {
		t.Fatalf("intact checkpoint: %v", err)
	}

	for _, c := range []struct {
		name string
		set  func(b []byte)
	}{
		{"main rows", func(b []byte) { le.PutUint64(b[offMR:], 1<<62) }},
		{"delta rows", func(b []byte) { le.PutUint64(b[offDR:], 1<<62) }},
		{"dictionary size", func(b []byte) { le.PutUint64(b[offDictN:], 1<<62) }},
		{"key length", func(b []byte) { le.PutUint32(b[offKeyLen:], math.MaxUint32) }},
		{"main dictionary order", func(b []byte) {
			first, second := b[offKeyLen+4:offKeyLen+12], b[offKeyLen+16:offKeyLen+24]
			var tmp [8]byte
			copy(tmp[:], first)
			copy(first, second)
			copy(second, tmp[:])
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			bad := slices.Clone(good)
			c.set(bad)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := ReadCheckpoint(h, bytes.NewReader(bad))
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatal("the corrupt checkpoint was accepted")
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<20 {
				t.Fatalf("refusing it allocated %d bytes", grew)
			}
		})
	}
}
