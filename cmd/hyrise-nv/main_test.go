package main

import (
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"hyrisenv/internal/core"
	"hyrisenv/internal/nvm"
	"hyrisenv/internal/shard"
	"hyrisenv/internal/storage"
	"hyrisenv/internal/txn"
	"hyrisenv/internal/workload"
)

// TestMain doubles as the hyrise-nv command when the test binary is
// re-run with a subcommand as its first argument (the test runner's own
// arguments are all flags), so the tests below drive the real command
// line — log.Fatal exits included — in a child process.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && !strings.HasPrefix(os.Args[1], "-") {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// hyriseNV runs one subcommand against dir and returns its output.
func hyriseNV(t *testing.T, dir string, args ...string) string {
	t.Helper()
	args = append(args[:1:1], append([]string{"-dir", dir}, args[1:]...)...)
	out, err := exec.Command(os.Args[0], args...).CombinedOutput()
	if err != nil {
		t.Fatalf("hyrise-nv %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	return string(out)
}

// TestEverySubcommandOpensTheFleet creates NVM databases of one and of
// two shards with rows on every shard, and checks that stats, verify,
// recover, export and fsck open each at its recorded shard count: they
// see the fleet's table and all of its rows, and none plants a heap of
// its own at the top of a sharded directory.
func TestEverySubcommandOpensTheFleet(t *testing.T) {
	const rows = 300
	for _, shards := range []int{1, 2} {
		dir := t.TempDir()
		e, err := shard.Open(shard.Config{
			Config: core.Config{Mode: txn.ModeNVM, Dir: dir, NVMHeapSize: 16 << 20},
			Shards: shards,
		})
		if err != nil {
			t.Fatal(err)
		}
		tbl, err := e.CreateTable("orders", workload.Schema(), "id")
		if err != nil {
			t.Fatal(err)
		}
		spec, rng, tx := workload.DefaultSpec(rows), rand.New(rand.NewSource(1)), e.Begin()
		for i := 0; i < rows; i++ {
			if _, err := tx.Insert(tbl, spec.Row(rng, i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < shards; i++ {
			if tbl.Part(i).Rows() == 0 {
				t.Fatalf("%d shards: shard %d holds no rows", shards, i)
			}
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}

		if out := hyriseNV(t, dir, "stats"); !strings.Contains(out, "total=300") {
			t.Errorf("%d shards: stats does not report the table's %d rows:\n%s", shards, rows, out)
		}
		if out := hyriseNV(t, dir, "verify"); strings.Count(out, "table orders") != shards {
			t.Errorf("%d shards: verify does not check the table on every shard:\n%s", shards, out)
		}
		if out := hyriseNV(t, dir, "recover"); !strings.Contains(out, "(300 visible rows)") {
			t.Errorf("%d shards: recover does not see the table's %d rows:\n%s", shards, rows, out)
		}
		csv := filepath.Join(t.TempDir(), "orders.csv")
		hyriseNV(t, dir, "export", "-o", csv)
		b, err := os.ReadFile(csv)
		if err != nil {
			t.Fatal(err)
		}
		if lines := strings.Count(string(b), "\n"); lines != rows+1 {
			t.Errorf("%d shards: export wrote %d lines, want a header and %d rows", shards, lines, rows)
		}
		if out := hyriseNV(t, dir, "fsck"); !strings.Contains(out, "fsck: clean") {
			t.Errorf("%d shards: fsck is not clean:\n%s", shards, out)
		}

		_, err = os.Stat(filepath.Join(dir, "heap.nvm"))
		if top := err == nil; top != (shards == 1) {
			t.Errorf("%d shards: top-level heap.nvm present = %v", shards, top)
		}
	}
}

// TestFsckNeverCreatesAHeap checks that fsck of a missing heap — the
// whole database, or one shard of a fleet — fails and creates nothing.
func TestFsckNeverCreatesAHeap(t *testing.T) {
	empty := t.TempDir()
	fleet := t.TempDir()
	e, err := shard.Open(shard.Config{
		Config: core.Config{Mode: txn.ModeNVM, Dir: fleet, NVMHeapSize: 16 << 20},
		Shards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	lost := filepath.Join(shard.ShardDir(fleet, 2, 1), "heap.nvm")
	if err := os.Remove(lost); err != nil {
		t.Fatal(err)
	}
	for dir, heap := range map[string]string{empty: filepath.Join(empty, "heap.nvm"), fleet: lost} {
		out, err := exec.Command(os.Args[0], "fsck", "-dir", dir).CombinedOutput()
		if err == nil {
			t.Errorf("fsck of %s with no %s succeeded:\n%s", dir, heap, out)
		}
		if _, err := os.Stat(heap); !os.IsNotExist(err) {
			t.Errorf("fsck created %s (stat: %v)", heap, err)
		}
	}
}

// TestFsckReportsBrokenDeltaIndex seeds two faults into the dictionary
// index of a delta column of a closed database — a slot whose hash is
// not its key's, and a directory entry that names no bucket — and checks
// that fsck fails and names both. The faults are written at the offsets
// of pstruct.HashDict's layout: in its root, the arena root at 0 and the
// directory word (depth << 56 | address) at 8; the arena's first
// segment, whose pointer is word 64 of the arena root, starts with the
// first bucket, a depth hint and then slots of hash << 32 | record. The
// index's root is the second word of the storage.NVMDelta root.
func TestFsckReportsBrokenDeltaIndex(t *testing.T) {
	dir := t.TempDir()
	e, err := shard.Open(shard.Config{Config: core.Config{Mode: txn.ModeNVM, Dir: dir, NVMHeapSize: 16 << 20}})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := e.CreateTable("orders", workload.Schema(), "id")
	if err != nil {
		t.Fatal(err)
	}
	spec, rng, tx := workload.DefaultSpec(300), rand.New(rand.NewSource(1)), e.Begin()
	for i := 0; i < 300; i++ {
		if _, err := tx.Insert(tbl, spec.Row(rng, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	h := e.Heaps()[0]
	d := tbl.Part(0).DeltaColumnAt(0).(*storage.NVMDelta)
	idx := nvm.PPtr(h.U64(d.Root().Add(8)))
	slot := nvm.PPtr(h.U64(nvm.PPtr(h.U64(idx)).Add(64))).Add(8)
	h.SetU64(slot, h.U64(slot)^1<<32)
	h.Persist(slot, 8)
	dw := h.U64(idx.Add(8))
	directory, seeded := nvm.PPtr(dw&(1<<56-1)), false
	for j := uint64(0); j < 1<<(dw>>56) && !seeded; j++ {
		if p := directory.Add(4 * j); h.U32(p) != 0 {
			h.SetU32(p, 0xfffffff0)
			h.Persist(p, 4)
			seeded = true
		}
	}
	if !seeded {
		t.Fatal("the directory names one bucket only")
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	out, err := exec.Command(os.Args[0], "fsck", "-dir", dir).CombinedOutput()
	if err == nil {
		t.Fatalf("fsck of a broken index succeeded:\n%s", out)
	}
	for _, want := range []string{"FSCK FAILED", "slot 1 holds hash", "directory entry", "beyond the cursor"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("fsck output does not say %q:\n%s", want, out)
		}
	}
}

// TestFsckReportsBrokenMainDict seeds one fault into a main column's
// sorted dictionary of a closed, merged database — two keys swapped in
// the Int64 id column, or an offset of the String payload column pushed
// past the end of its bytes area — and checks that fsck fails, names the
// column and says what is broken.
func TestFsckReportsBrokenMainDict(t *testing.T) {
	for _, tc := range []struct {
		name  string
		col   int
		seed  func(h *nvm.Heap, dict nvm.PPtr)
		wants []string
	}{
		{"swapped keys", 0, func(h *nvm.Heap, dict nvm.PPtr) {
			k0, k1 := h.GetU64(dict.Add(16)), h.GetU64(dict.Add(24))
			h.PutU64(dict.Add(16), k1)
			h.PutU64(dict.Add(24), k0)
			h.Persist(dict.Add(16), 16)
		}, []string{"column 0:", "key 1 is not above key 0"}},
		{"offset past the end", 4, func(h *nvm.Heap, dict nvm.PPtr) {
			n := h.GetU64(dict)
			end := h.GetU32(dict.Add(16 + 4*n))
			h.PutU32(dict.Add(16+4), end+1)
			h.Persist(dict.Add(16+4), 4)
		}, []string{"column 4:", "offset 1", "lies past the end of the"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			e, err := shard.Open(shard.Config{Config: core.Config{Mode: txn.ModeNVM, Dir: dir, NVMHeapSize: 16 << 20}})
			if err != nil {
				t.Fatal(err)
			}
			tbl, err := e.CreateTable("orders", workload.Schema(), "id")
			if err != nil {
				t.Fatal(err)
			}
			spec, rng, tx := workload.DefaultSpec(300), rand.New(rand.NewSource(1)), e.Begin()
			for i := 0; i < 300; i++ {
				if _, err := tx.Insert(tbl, spec.Row(rng, i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			if _, err := e.Merge("orders"); err != nil {
				t.Fatal(err)
			}
			h := e.Heaps()[0]
			m := tbl.Part(0).MainColumnAt(tc.col).(*storage.NVMMain)
			tc.seed(h, nvm.PPtr(h.U64(m.Root())))
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}

			out, err := exec.Command(os.Args[0], "fsck", "-dir", dir).CombinedOutput()
			if err == nil {
				t.Fatalf("fsck of a broken main dictionary succeeded:\n%s", out)
			}
			for _, want := range append([]string{"FSCK FAILED"}, tc.wants...) {
				if !strings.Contains(string(out), want) {
					t.Errorf("fsck output does not say %q:\n%s", want, out)
				}
			}
		})
	}
}
