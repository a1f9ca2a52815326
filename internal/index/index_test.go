package index

import (
	"path/filepath"
	"testing"

	"hyrisenv/internal/nvm"
)

func testHeap(t *testing.T) (*nvm.Heap, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "h.nvm")
	h, err := nvm.Create(path, 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.Close() })
	return h, path
}

// ids is a tiny attribute vector: rows -> value IDs.
var testIDs = []uint64{2, 0, 1, 2, 2, 0}

func idAt(r uint64) uint64 { return testIDs[r] }

// dramHeap returns a heap that does not persist.
func dramHeap(t *testing.T) *nvm.Heap {
	t.Helper()
	h, err := nvm.CreateVolatile()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.Close() })
	return h
}

// groupKeys builds the test index on each medium.
func groupKeys(t *testing.T) map[string]*NVMGroupKey {
	t.Helper()
	h, _ := testHeap(t)
	out := map[string]*NVMGroupKey{}
	for name, h := range map[string]*nvm.Heap{"dram": dramHeap(t), "nvm": h} {
		g, err := BuildNVMGroupKey(h, uint64(len(testIDs)), 3, idAt)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = g
	}
	return out
}

func collect(g *NVMGroupKey, id uint64) []uint64 {
	var out []uint64
	g.Rows(id, func(r uint64) bool { out = append(out, r); return true })
	return out
}

func TestGroupKeyRows(t *testing.T) {
	for name, g := range groupKeys(t) {
		t.Run(name, func(t *testing.T) {
			cases := map[uint64][]uint64{
				0: {1, 5},
				1: {2},
				2: {0, 3, 4},
			}
			for id, want := range cases {
				got := collect(g, id)
				if len(got) != len(want) {
					t.Fatalf("Rows(%d) = %v, want %v", id, got, want)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("Rows(%d) = %v, want %v", id, got, want)
					}
				}
			}
			// Out-of-range ID yields nothing.
			if rows := collect(g, 99); rows != nil {
				t.Fatalf("Rows(99) = %v", rows)
			}
			// Early stop.
			var n int
			g.Rows(2, func(uint64) bool { n++; return false })
			if n != 1 {
				t.Fatalf("early stop visited %d", n)
			}
		})
	}
}

func TestGroupKeyRange(t *testing.T) {
	for name, g := range groupKeys(t) {
		t.Run(name, func(t *testing.T) {
			var rows []uint64
			g.RowsInIDRange(0, 2, func(r uint64) bool { rows = append(rows, r); return true })
			if len(rows) != 3 { // ids 0 and 1: rows 1,5,2
				t.Fatalf("range rows = %v", rows)
			}
			rows = nil
			g.RowsInIDRange(1, 1, func(r uint64) bool { rows = append(rows, r); return true })
			if rows != nil {
				t.Fatalf("empty range returned %v", rows)
			}
			// Early stop across IDs.
			var n int
			g.RowsInIDRange(0, 3, func(uint64) bool { n++; return n < 2 })
			if n != 2 {
				t.Fatalf("range early stop visited %d", n)
			}
		})
	}
}

func TestGroupKeyEmpty(t *testing.T) {
	g, err := BuildNVMGroupKey(dramHeap(t), 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rows := collect(g, 0); rows != nil {
		t.Fatalf("empty group key returned %v", rows)
	}
}

func TestNVMGroupKeySurvivesReopen(t *testing.T) {
	h, path := testHeap(t)
	g, err := BuildNVMGroupKey(h, uint64(len(testIDs)), 3, idAt)
	if err != nil {
		t.Fatal(err)
	}
	h.SetRoot("gk", g.Root(), 0)
	h.Close()
	h2, err := nvm.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Close()
	root, _, _ := h2.Root("gk")
	g2 := AttachNVMGroupKey(h2, root)
	if got := collect(g2, 2); len(got) != 3 || got[0] != 0 {
		t.Fatalf("after reopen Rows(2) = %v", got)
	}
}
