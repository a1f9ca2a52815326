package csvio

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"testing/quick"

	"hyrisenv/internal/core"
	"hyrisenv/internal/exec"
	"hyrisenv/internal/shard"
	"hyrisenv/internal/storage"
	"hyrisenv/internal/txn"
)

// selectEq and scanAll wrap the transaction's scan for these
// fixed-schema tests, where an executor error is a test bug.
func selectEq(tx *shard.Tx, tbl *shard.Table, col int, val storage.Value) []uint64 {
	return scanAll(tx, tbl, exec.Pred{Col: col, Op: exec.Eq, Val: val})
}

func scanAll(tx *shard.Tx, tbl *shard.Table, preds ...exec.Pred) []uint64 {
	rows, err := tx.Select(context.Background(), tbl, preds...)
	if err != nil {
		panic(err)
	}
	return rows
}

func openVolatile() (*shard.Engine, error) {
	return shard.Open(shard.Config{Config: core.Config{Mode: txn.ModeNone}})
}

func volatileEngine(t *testing.T) *shard.Engine {
	t.Helper()
	e, err := openVolatile()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

const sample = `id:int,customer:string,amount:float
1,alice,9.99
2,bob,5
3,"comma, quoted",0.5
`

func TestImportBasics(t *testing.T) {
	e := volatileEngine(t)
	tbl, n, err := Import(e, "orders", strings.NewReader(sample), 2, "id")
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("imported %d", n)
	}
	tx := e.Begin()
	rows := selectEq(tx, tbl, 0, storage.Int(3))
	if len(rows) != 1 {
		t.Fatal("indexed import lookup")
	}
	if got := tbl.Value(1, rows[0]).S; got != "comma, quoted" {
		t.Fatalf("quoted cell = %q", got)
	}
	if got := tbl.Value(2, rows[0]).F; got != 0.5 {
		t.Fatalf("float cell = %v", got)
	}
}

func TestImportAppendsToExisting(t *testing.T) {
	e := volatileEngine(t)
	if _, _, err := Import(e, "orders", strings.NewReader(sample), 0); err != nil {
		t.Fatal(err)
	}
	tbl, n, err := Import(e, "orders", strings.NewReader(sample), 0)
	if err != nil || n != 3 {
		t.Fatalf("second import: n=%d err=%v", n, err)
	}
	tx := e.Begin()
	if got := len(scanAll(tx, tbl)); got != 6 {
		t.Fatalf("rows = %d", got)
	}
}

func TestImportErrors(t *testing.T) {
	e := volatileEngine(t)
	cases := []struct {
		name string
		csv  string
	}{
		{"bad header", "id;int\n1\n"},
		{"unknown type", "id:uuid\n1\n"},
		{"bad int", "id:int\nnope\n"},
		{"bad float", "v:float\nnope\n"},
		{"short row", "a:int,b:int\n1\n"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, _, err := Import(e, "t_"+strings.ReplaceAll(c.name, " ", "_"),
				strings.NewReader(c.csv), 0); err == nil {
				t.Fatal("accepted")
			}
		})
	}
	// Schema mismatch against an existing table.
	if _, _, err := Import(e, "orders", strings.NewReader(sample), 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Import(e, "orders", strings.NewReader("a:int\n1\n"), 0); err == nil {
		t.Fatal("column-count mismatch accepted")
	}
}

func TestExportImportRoundTrip(t *testing.T) {
	e := volatileEngine(t)
	tbl, _, err := Import(e, "orders", strings.NewReader(sample), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Delete one row: export only covers visible rows.
	tx := e.Begin()
	victim := selectEq(tx, tbl, 0, storage.Int(2))[0]
	if err := tx.Delete(tbl, victim); err != nil {
		t.Fatal(err)
	}
	tx.Commit()

	var buf bytes.Buffer
	n, err := Export(&buf, e.Begin(), tbl)
	if err != nil || n != 2 {
		t.Fatalf("export: n=%d err=%v", n, err)
	}
	// Re-import into a second engine: identical content.
	e2 := volatileEngine(t)
	tbl2, n2, err := Import(e2, "orders", bytes.NewReader(buf.Bytes()), 0)
	if err != nil || n2 != 2 {
		t.Fatalf("reimport: n=%d err=%v", n2, err)
	}
	tx2 := e2.Begin()
	for _, id := range []int64{1, 3} {
		rows := selectEq(tx2, tbl2, 0, storage.Int(id))
		if len(rows) != 1 {
			t.Fatalf("id %d lost in round trip", id)
		}
	}
	if got := tbl2.Schema.Cols[2].Type; got != storage.TypeFloat64 {
		t.Fatalf("schema type lost: %v", got)
	}
}

// Property: arbitrary values survive an export→import round trip,
// including negatives, unicode, embedded commas/quotes/newlines.
func TestCSVRoundTripProperty(t *testing.T) {
	f := func(ints []int64, strs []string) bool {
		n := len(ints)
		if len(strs) < n {
			n = len(strs)
		}
		if n == 0 {
			return true
		}
		e, _ := openVolatile()
		defer e.Close()
		sch, _ := storage.NewSchema(
			storage.ColumnDef{Name: "k", Type: storage.TypeInt64},
			storage.ColumnDef{Name: "s", Type: storage.TypeString},
		)
		tbl, err := e.CreateTable("t", sch)
		if err != nil {
			return false
		}
		tx := e.Begin()
		for i := 0; i < n; i++ {
			// encoding/csv normalizes \r\n to \n inside quoted fields
			// (RFC 4180); exclude carriage returns from the property.
			s := strings.ReplaceAll(strs[i], "\r", "")
			if _, err := tx.Insert(tbl, []storage.Value{storage.Int(ints[i]), storage.Str(s)}); err != nil {
				return false
			}
		}
		if err := tx.Commit(); err != nil {
			return false
		}

		var buf bytes.Buffer
		if _, err := Export(&buf, e.Begin(), tbl); err != nil {
			return false
		}
		e2, _ := openVolatile()
		defer e2.Close()
		tbl2, n2, err := Import(e2, "t", bytes.NewReader(buf.Bytes()), 0)
		if err != nil || n2 != n {
			return false
		}
		// Compare multisets.
		count := map[string]int{}
		tx1, tx2 := e.Begin(), e2.Begin()
		for _, r := range scanAll(tx1, tbl) {
			count[tbl.Value(0, r).String()+"\x00"+tbl.Value(1, r).S]++
		}
		for _, r := range scanAll(tx2, tbl2) {
			count[tbl2.Value(0, r).String()+"\x00"+tbl2.Value(1, r).S]--
		}
		for _, c := range count {
			if c != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
