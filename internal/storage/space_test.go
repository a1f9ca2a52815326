package storage_test

import (
	"fmt"
	"strings"
	"testing"

	"hyrisenv"
	"hyrisenv/internal/storage"
)

// TestSpacePerRow is the space ledger of a merged table: it loads the
// benchmark's table shape — unique Int64 ids (indexed), customers out of
// rows/10, 16 regions, amounts out of 100k cents and unique 32-byte
// payloads — at 200k rows in 1000-row transactions, then merges, and
// logs the heap bytes a row of every structure, allocated and written:
// the delta generation as the load leaves it, and the main generation
// the merge builds. These are counts, not times, so the bounds do not
// drift: the two generations together at most 256 B/row, the main one
// at most 82.
func TestSpacePerRow(t *testing.T) {
	if testing.Short() {
		t.Skip("loads 200k rows")
	}
	const rows = 200_000
	mix := func(x uint64) uint64 {
		x += 0x9E3779B97F4A7C15
		x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
		x = (x ^ (x >> 27)) * 0x94D049BB133111EB
		return x ^ (x >> 31)
	}
	row := func(i uint64) []hyrisenv.Value {
		h := mix(mix(1) ^ i)
		return []hyrisenv.Value{
			hyrisenv.Int(int64(i)),
			hyrisenv.Int(int64(h % (rows/10 + 1))),
			hyrisenv.Str(fmt.Sprintf("region-%02d", (h>>32)%16)),
			hyrisenv.Float(float64((h>>36)%100_000) / 100),
			hyrisenv.Str(fmt.Sprintf("%016x%016x", h, mix(h))),
		}
	}
	db, err := hyrisenv.Open(hyrisenv.Config{Mode: hyrisenv.NVM, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl, err := db.CreateTable("orders", []hyrisenv.Column{
		{Name: "id", Type: hyrisenv.Int64},
		{Name: "customer", Type: hyrisenv.Int64},
		{Name: "region", Type: hyrisenv.String},
		{Name: "amount", Type: hyrisenv.Float64},
		{Name: "payload", Type: hyrisenv.String},
	}, "id")
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < rows; i += 1000 {
		tx := db.Begin()
		for j := i; j < i+1000; j++ {
			if _, err := tx.Insert(tbl, row(j)...); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	delta := storage.SpaceOf(tbl.Internal())
	if err := db.Merge("orders"); err != nil {
		t.Fatal(err)
	}
	main := storage.SpaceOf(tbl.Internal())

	perRow := func(n uint64) float64 { return float64(n) / rows }
	generation := func(name string, parts []storage.Space) float64 {
		var alloc, written uint64
		for _, s := range parts {
			if !strings.HasPrefix(s.Part, name+" ") {
				continue
			}
			t.Logf("%-36s %6.1f B/row allocated %6.1f written", s.Part, perRow(s.Alloc), perRow(s.Written))
			alloc, written = alloc+s.Alloc, written+s.Written
		}
		t.Logf("%-36s %6.1f B/row allocated %6.1f written", name+" generation", perRow(alloc), perRow(written))
		return perRow(alloc)
	}
	d, m := generation("delta", delta), generation("main", main)
	t.Logf("delta + main: %.1f B/row", d+m)
	if d+m > 256 {
		t.Errorf("the delta and main generations take %.1f B/row, more than 256", d+m)
	}
	if m > 82 {
		t.Errorf("the main generation takes %.1f B/row, more than 82", m)
	}
}
