package pstruct

import (
	"slices"
	"strings"
	"testing"

	"hyrisenv/internal/nvm"
)

// TestPostingList: a list of one value lives in its head word alone;
// each push after it stages a node in the arena, in front of the head it
// read, and a vector element publishes the new head. The scan yields
// the most recent value first, stops on request, and ListCheck finds a
// node outside the arena and a cycle.
func TestPostingList(t *testing.T) {
	h, _ := testHeap(t)
	a, _ := NewArena(h)
	heads, _ := NewVector(h, 8, 4)
	if _, err := heads.Append(ListEnd(5)); err != nil {
		t.Fatal(err)
	}
	if a.Used() != 0 {
		t.Fatalf("a list of one value used %d arena bytes", a.Used())
	}
	scan := func() []uint64 {
		var rows []uint64
		ListScan(h, heads.Get(0), func(v uint64) bool { rows = append(rows, v); return true })
		return rows
	}
	if got := scan(); !slices.Equal(got, []uint64{5}) {
		t.Fatalf("rows = %v, want [5]", got)
	}
	for _, row := range []uint64{9, 13} {
		node, err := ListStage(a, row, heads.Get(0))
		if err != nil {
			t.Fatal(err)
		}
		heads.StageSet(0, uint64(node))
		h.Fence()
		heads.Publish()
		h.Fence()
	}
	if got := scan(); !slices.Equal(got, []uint64{13, 9, 5}) {
		t.Fatalf("rows = %v, want [13 9 5]", got)
	}
	var seen int
	ListScan(h, heads.Get(0), func(uint64) bool { seen++; return false })
	if seen != 1 {
		t.Fatalf("scan did not stop: %d", seen)
	}
	ListScan(h, 0, func(uint64) bool { t.Fatal("the empty list yielded a value"); return true })
	if err := ListCheck(h, heads.Get(0), a.Contains); err != nil {
		t.Fatal(err)
	}

	// A node outside the arena, then a node that points back at itself.
	outside, _ := h.Alloc(plNodeLen)
	if err := ListCheck(h, uint64(outside), a.Contains); err == nil || !strings.Contains(err.Error(), "in no segment") {
		t.Fatalf("node outside the arena: %v", err)
	}
	head := heads.Get(0)
	h.SetU64(nvm.PPtr(head).Add(plOffNext), head)
	if err := ListCheck(h, head, a.Contains); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("cyclic list: %v", err)
	}
}
