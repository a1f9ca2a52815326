package wal

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"

	"hyrisenv/internal/disk"
	"hyrisenv/internal/nvm"
	"hyrisenv/internal/storage"
)

func testSchema(t *testing.T) storage.Schema {
	t.Helper()
	s, err := storage.NewSchema(
		storage.ColumnDef{Name: "id", Type: storage.TypeInt64},
		storage.ColumnDef{Name: "name", Type: storage.TypeString},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRecordRoundTrip(t *testing.T) {
	sch := testSchema(t)
	recs := [][]byte{
		EncodeCreateTable(3, "orders", sch, 0),
		EncodeInsert(7, 3, 12, []storage.Value{storage.Int(5), storage.Str("x")}),
		EncodeInvalidate(7, 3, 4),
		EncodeCommit(7, 99),
	}
	var buf bytes.Buffer
	for _, r := range recs {
		buf.Write(r)
	}
	var got []Op
	n, valid, err := ReadRecords(&buf, func(op Op) error { got = append(got, op); return nil })
	if err != nil || n != 4 {
		t.Fatalf("n=%d err=%v", n, err)
	}
	total := 0
	for _, r := range recs {
		total += len(r)
	}
	if valid != uint64(total) {
		t.Fatalf("validBytes = %d, want %d", valid, total)
	}
	if got[0].Type != RecCreateTable || got[0].Name != "orders" || got[0].Table != 3 || got[0].Sch.NumCols() != 2 {
		t.Fatalf("create: %+v", got[0])
	}
	if got[1].Type != RecInsert || got[1].Txn != 7 || got[1].Row != 12 ||
		len(got[1].Vals) != 2 || got[1].Vals[0].I != 5 || got[1].Vals[1].S != "x" {
		t.Fatalf("insert: %+v", got[1])
	}
	if got[2].Type != RecInvalidate || got[2].Row != 4 {
		t.Fatalf("invalidate: %+v", got[2])
	}
	if got[3].Type != RecCommit || got[3].CID != 99 {
		t.Fatalf("commit: %+v", got[3])
	}
}

func TestReadRecordsStopsAtTornTail(t *testing.T) {
	rec := EncodeCommit(1, 2)
	full := append(append([]byte{}, rec...), rec...)
	for cut := len(rec) + 1; cut < len(full); cut++ {
		n, valid, err := ReadRecords(bytes.NewReader(full[:cut]), func(Op) error { return nil })
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		if n != 1 || valid != uint64(len(rec)) {
			t.Fatalf("cut=%d: n=%d valid=%d", cut, n, valid)
		}
	}
}

func TestReadRecordsRejectsCorruptCRC(t *testing.T) {
	rec := EncodeCommit(1, 2)
	rec[len(rec)-1] ^= 0xFF // corrupt payload byte
	n, _, err := ReadRecords(bytes.NewReader(rec), func(Op) error { return nil })
	if err != nil || n != 0 {
		t.Fatalf("n=%d err=%v, want clean stop", n, err)
	}
}

// TestWriterGroupCommit runs concurrent appenders, each syncing its own
// record: every record lands whole. Sharing one sync across a group is
// the commit batcher's job (txn.TestLogGroupCommitSharesSyncs).
func TestWriterGroupCommit(t *testing.T) {
	dir := t.TempDir()
	dev, err := disk.Open(filepath.Join(dir, "log"), disk.Model{})
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	w := NewWriter(dev, 0)

	const committers = 16
	var wg sync.WaitGroup
	for i := 0; i < committers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := w.Append(EncodeCommit(uint64(i), uint64(i))); err != nil {
				t.Error(err)
				return
			}
			if err := w.Sync(); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// All records durable and parseable.
	r := dev.SequentialReader(0)
	seen := map[uint64]bool{}
	n, _, err := ReadRecords(r, func(op Op) error { seen[op.Txn] = true; return nil })
	if err != nil || n != committers {
		t.Fatalf("n=%d err=%v", n, err)
	}
	for i := 0; i < committers; i++ {
		if !seen[uint64(i)] {
			t.Fatalf("commit %d lost", i)
		}
	}
}

func TestWriterAppendAfterClose(t *testing.T) {
	dev, err := disk.Open(filepath.Join(t.TempDir(), "log"), disk.Model{})
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	w := NewWriter(dev, 0)
	w.Close()
	if err := w.Append(EncodeCommit(1, 1)); err != ErrWriterClosed {
		t.Fatalf("err = %v", err)
	}
}

// TestWriterSyncAfterClose pins what a checkpoint rotation relies on: a
// commit group that appended to a writer the checkpoint then closed
// still syncs it, and the sync succeeds without touching the device —
// Close already made the records durable.
func TestWriterSyncAfterClose(t *testing.T) {
	dev, err := disk.Open(filepath.Join(t.TempDir(), "log"), disk.Model{})
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	w := NewWriter(dev, 0)
	if err := w.Append(EncodeCommit(1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	syncs := dev.Stats().Syncs
	if err := w.Sync(); err != nil {
		t.Fatalf("Sync after Close = %v, want nil", err)
	}
	if got := dev.Stats().Syncs; got != syncs {
		t.Fatalf("Sync after Close synced the device again (%d → %d)", syncs, got)
	}
}

// dramHeap returns a heap that does not persist, the log-based engine's.
func dramHeap(t *testing.T) *nvm.Heap {
	t.Helper()
	h, err := nvm.CreateVolatile()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.Close() })
	return h
}

// dramTable creates an empty orders table on a heap of its own.
func dramTable(t *testing.T, id uint32) *storage.Table {
	t.Helper()
	tbl, err := storage.CreateNVMTable(dramHeap(t), "orders", id, testSchema(t), 0)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// buildTable commits n rows through the storage layer directly.
func buildTable(t *testing.T, id uint32, n int) *storage.Table {
	t.Helper()
	tbl := dramTable(t, id)
	for i := 0; i < n; i++ {
		row, err := tbl.AppendRow([]storage.Value{storage.Int(int64(i)), storage.Str("c")}, 1)
		if err != nil {
			t.Fatal(err)
		}
		tbl.StampBegin(row, 2)
		tbl.ReleaseOwner(row, 1)
	}
	return tbl
}

func TestCheckpointRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	m, err := NewManager(dir, disk.Model{})
	if err != nil {
		t.Fatal(err)
	}
	tbl := buildTable(t, 1, 100)
	w, seq, err := m.WriteCheckpoint([]*storage.Table{tbl}, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 1 {
		t.Fatalf("seq = %d", seq)
	}
	w.Close()

	res, err := m.Recover(dramHeap(t))
	if err != nil {
		t.Fatal(err)
	}
	if !res.HasState || res.LastCID != 5 || res.NextTableID != 2 {
		t.Fatalf("res = %+v", res)
	}
	got := res.Tables[1]
	if got == nil || got.Rows() != 100 || got.Name != "orders" {
		t.Fatalf("table: %+v", got)
	}
	var sum int64
	got.ScanVisible(5, 0, func(row uint64) bool {
		sum += got.Value(0, row).I
		return true
	})
	if sum != 99*100/2 {
		t.Fatalf("sum = %d", sum)
	}
}

func TestRecoverReplaysCommittedOnly(t *testing.T) {
	dir := t.TempDir()
	m, err := NewManager(dir, disk.Model{})
	if err != nil {
		t.Fatal(err)
	}
	sch := testSchema(t)
	// No checkpoint yet: everything reconstructed from the log.
	w, seq, err := m.WriteCheckpoint(nil, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	_ = seq

	w.Append(EncodeCreateTable(1, "orders", sch, 0))
	// txn 10: rows 0,1 committed at CID 1.
	w.Append(EncodeInsert(10, 1, 0, []storage.Value{storage.Int(100), storage.Str("a")}))
	w.Append(EncodeInsert(10, 1, 1, []storage.Value{storage.Int(101), storage.Str("b")}))
	w.Append(EncodeCommit(10, 1))
	// txn 11: row 2 NEVER committed (crash before commit record).
	w.Append(EncodeInsert(11, 1, 2, []storage.Value{storage.Int(999), storage.Str("ghost")}))
	// txn 12: row 3 committed at CID 2, plus invalidation of row 0.
	w.Append(EncodeInsert(12, 1, 3, []storage.Value{storage.Int(103), storage.Str("d")}))
	w.Append(EncodeInvalidate(12, 1, 0))
	w.Append(EncodeCommit(12, 2))
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	w.Close()

	res, err := m.Recover(dramHeap(t))
	if err != nil {
		t.Fatal(err)
	}
	if res.LastCID != 2 {
		t.Fatalf("LastCID = %d", res.LastCID)
	}
	tbl := res.Tables[1]
	if tbl == nil {
		t.Fatal("table not recreated from log")
	}
	// Visible at CID 2: rows 1 (101) and 3 (103); row 0 invalidated,
	// row 2 uncommitted. Physical row IDs preserved (gap at 2).
	var ids []int64
	tbl.ScanVisible(2, 0, func(row uint64) bool {
		ids = append(ids, tbl.Value(0, row).I)
		return true
	})
	if len(ids) != 2 || ids[0] != 101 || ids[1] != 103 {
		t.Fatalf("visible ids = %v", ids)
	}
	if tbl.Rows() != 4 {
		t.Fatalf("Rows = %d, want 4 (gap preserved)", tbl.Rows())
	}
	// Row 0 visible at CID 1 (before invalidation).
	if !tbl.Visible(0, 1, 0) {
		t.Fatal("row 0 should be visible at CID 1")
	}
}

// TestRecoverCommitsOutOfRowOrder: row IDs are assigned at insert and
// commits are logged in CID order, so the log can commit a row before
// a lower one whose transaction commits later — or never. Replay must
// give each committed row its own values and leave the never-committed
// one an invisible filler.
func TestRecoverCommitsOutOfRowOrder(t *testing.T) {
	m, _ := NewManager(t.TempDir(), disk.Model{})
	w, _, err := m.WriteCheckpoint(nil, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	w.Append(EncodeCreateTable(1, "orders", testSchema(t), 0))
	// Rows 0..3 inserted by txns 20, 21, 22, 23; txn 22 never commits.
	w.Append(EncodeInsert(23, 1, 3, []storage.Value{storage.Int(103), storage.Str("d")}))
	w.Append(EncodeCommit(23, 1))
	w.Append(EncodeInsert(21, 1, 1, []storage.Value{storage.Int(101), storage.Str("b")}))
	w.Append(EncodeInvalidate(21, 1, 3))
	w.Append(EncodeCommit(21, 2))
	w.Append(EncodeInsert(22, 1, 2, []storage.Value{storage.Int(102), storage.Str("c")}))
	w.Append(EncodeInsert(20, 1, 0, []storage.Value{storage.Int(100), storage.Str("a")}))
	w.Append(EncodeCommit(20, 3))
	w.Close()

	res, err := m.Recover(dramHeap(t))
	if err != nil {
		t.Fatal(err)
	}
	tbl := res.Tables[1]
	if tbl.Rows() != 4 {
		t.Fatalf("Rows = %d, want 4", tbl.Rows())
	}
	for cid, want := range map[uint64][]int64{1: {103}, 2: {101}, 3: {100, 101}} {
		var got []int64
		tbl.ScanVisible(cid, 0, func(row uint64) bool {
			got = append(got, tbl.Value(0, row).I)
			return true
		})
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("visible at CID %d: %v, want %v", cid, got, want)
		}
	}
}

func TestRecoverStampsCheckpointedUncommittedRows(t *testing.T) {
	// A row whose body is in the checkpoint (begin=Inf) but whose commit
	// record is in the log must become visible after recovery.
	dir := t.TempDir()
	m, _ := NewManager(dir, disk.Model{})
	tbl := dramTable(t, 1)
	row, _ := tbl.AppendRow([]storage.Value{storage.Int(42), storage.Str("late")}, 9)
	w, _, err := m.WriteCheckpoint([]*storage.Table{tbl}, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	w.Append(EncodeInsert(9, 1, row, []storage.Value{storage.Int(42), storage.Str("late")}))
	w.Append(EncodeCommit(9, 4))
	w.Sync()
	w.Close()

	res, err := m.Recover(dramHeap(t))
	if err != nil {
		t.Fatal(err)
	}
	got := res.Tables[1]
	if !got.Visible(row, 4, 0) {
		t.Fatal("late-committed row invisible after recovery")
	}
	if got.Rows() != 1 {
		t.Fatalf("Rows = %d, want 1 (no duplicate append)", got.Rows())
	}
}

func TestRecoverFreshDatabase(t *testing.T) {
	m, _ := NewManager(t.TempDir(), disk.Model{})
	res, err := m.Recover(dramHeap(t))
	if err != nil {
		t.Fatal(err)
	}
	if res.HasState || len(res.Tables) != 0 || res.NextTableID != 1 {
		t.Fatalf("fresh recover: %+v", res)
	}
}

func TestCheckpointRotationRemovesOldFiles(t *testing.T) {
	dir := t.TempDir()
	m, _ := NewManager(dir, disk.Model{})
	tbl := buildTable(t, 1, 10)
	w1, seq1, err := m.WriteCheckpoint([]*storage.Table{tbl}, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	w1.Close()
	w2, seq2, err := m.WriteCheckpoint([]*storage.Table{tbl}, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	w2.Close()
	if seq2 != seq1+1 {
		t.Fatalf("seq2 = %d", seq2)
	}
	if _, err := os.Stat(filepath.Join(dir, "ckpt-000001")); !os.IsNotExist(err) {
		t.Fatal("old checkpoint not removed")
	}
	res, err := m.Recover(dramHeap(t))
	if err != nil || res.LastCID != 2 {
		t.Fatalf("recover after rotation: cid=%d err=%v", res.LastCID, err)
	}
}

func TestOpenLogForAppendTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	m, _ := NewManager(dir, disk.Model{})
	w, seq, err := m.WriteCheckpoint(nil, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	w.Append(EncodeCreateTable(1, "t", testSchema(t), 0))
	w.Append(EncodeCommit(1, 1))
	w.Sync()
	w.Close()
	// Simulate a torn tail by appending garbage directly.
	f, _ := os.OpenFile(filepath.Join(dir, "wal-000001.log"), os.O_APPEND|os.O_WRONLY, 0)
	f.Write([]byte{1, 2, 3})
	f.Close()

	res, err := m.Recover(dramHeap(t))
	if err != nil {
		t.Fatal(err)
	}
	w2, err := m.OpenLogForAppend(seq, res.ValidLogBytes)
	if err != nil {
		t.Fatal(err)
	}
	w2.Append(EncodeCommit(2, 2))
	w2.Sync()
	w2.Close()

	res2, err := m.Recover(dramHeap(t))
	if err != nil {
		t.Fatal(err)
	}
	if res2.LastCID != 2 {
		t.Fatalf("LastCID after torn-tail repair = %d", res2.LastCID)
	}
}

// TestOpenLogForAppendTruncatesMidLengthPrefixTear covers the nastier
// torn-tail shape: the crash cut the tail record inside its 8-byte
// length+CRC header, so the log ends with 1..7 bytes that are the real
// beginning of a record — not trailing garbage. Recovery must stop at
// the last whole record, report validBytes excluding the partial header,
// and OpenLogForAppend must truncate it so subsequent appends produce a
// log that replays cleanly.
func TestOpenLogForAppendTruncatesMidLengthPrefixTear(t *testing.T) {
	next := EncodeCommit(2, 2)
	for cut := 1; cut < 8 && cut < len(next); cut++ {
		dir := t.TempDir()
		m, _ := NewManager(dir, disk.Model{})
		w, seq, err := m.WriteCheckpoint(nil, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		w.Append(EncodeCreateTable(1, "t", testSchema(t), 0))
		w.Append(EncodeCommit(1, 1))
		w.Sync()
		w.Close()
		intact, err := os.Stat(filepath.Join(dir, "wal-000001.log"))
		if err != nil {
			t.Fatal(err)
		}
		// The torn tail: the first cut bytes of a real record's frame,
		// severed inside the length prefix.
		f, _ := os.OpenFile(filepath.Join(dir, "wal-000001.log"), os.O_APPEND|os.O_WRONLY, 0)
		f.Write(next[:cut])
		f.Close()

		res, err := m.Recover(dramHeap(t))
		if err != nil {
			t.Fatalf("cut=%d: recover: %v", cut, err)
		}
		if res.LastCID != 1 {
			t.Fatalf("cut=%d: LastCID = %d, want 1", cut, res.LastCID)
		}
		if res.ValidLogBytes != uint64(intact.Size()) {
			t.Fatalf("cut=%d: ValidLogBytes = %d, want %d (partial header must not count)",
				cut, res.ValidLogBytes, intact.Size())
		}
		w2, err := m.OpenLogForAppend(seq, res.ValidLogBytes)
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		w2.Append(EncodeCommit(2, 2))
		w2.Sync()
		w2.Close()

		res2, err := m.Recover(dramHeap(t))
		if err != nil {
			t.Fatalf("cut=%d: recover after repair: %v", cut, err)
		}
		if res2.LastCID != 2 {
			t.Fatalf("cut=%d: LastCID after repair = %d, want 2", cut, res2.LastCID)
		}
	}
}

func TestReplayRowMismatchDetected(t *testing.T) {
	dir := t.TempDir()
	m, _ := NewManager(dir, disk.Model{})
	w, _, _ := m.WriteCheckpoint(nil, 0, 1)
	w.Append(EncodeCreateTable(1, "t", testSchema(t), 0))
	// Invalidate of a row that never existed.
	w.Append(EncodeInvalidate(5, 1, 99))
	w.Append(EncodeCommit(5, 1))
	w.Sync()
	w.Close()
	if _, err := m.Recover(dramHeap(t)); err == nil {
		t.Fatal("replay of invalid row accepted")
	}
}

// ReadRecords must never panic or loop on arbitrary input; CRC framing
// turns any corruption into a clean stop or a typed error.
func TestReadRecordsRobustnessFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(0xF022))
	valid := append(append(
		EncodeCreateTable(1, "t", testSchema(t), 0),
		EncodeInsert(5, 1, 0, []storage.Value{storage.Int(1), storage.Str("a")})...),
		EncodeCommit(5, 1)...)
	for trial := 0; trial < 400; trial++ {
		buf := append([]byte{}, valid...)
		// Random mutations: flips, truncations, garbage prefixes.
		switch trial % 3 {
		case 0:
			for k := 0; k < 1+rng.Intn(8); k++ {
				buf[rng.Intn(len(buf))] ^= byte(1 + rng.Intn(255))
			}
		case 1:
			buf = buf[:rng.Intn(len(buf))]
		case 2:
			junk := make([]byte, rng.Intn(64))
			rng.Read(junk)
			buf = append(junk, buf...)
		}
		ReadRecords(bytes.NewReader(buf), func(Op) error { return nil }) // must not panic
	}
}

// Property: any sequence of valid records survives a round trip intact.
func TestRecordStreamProperty(t *testing.T) {
	sch := testSchema(t)
	f := func(ops []uint8, txn uint64, row uint64) bool {
		var buf bytes.Buffer
		var wantTypes []uint8
		for _, o := range ops {
			switch o % 4 {
			case 0:
				buf.Write(EncodeInsert(txn, 1, row, []storage.Value{storage.Int(int64(o)), storage.Str("s")}))
				wantTypes = append(wantTypes, RecInsert)
			case 1:
				buf.Write(EncodeInvalidate(txn, 1, row))
				wantTypes = append(wantTypes, RecInvalidate)
			case 2:
				buf.Write(EncodeCommit(txn, uint64(o)))
				wantTypes = append(wantTypes, RecCommit)
			case 3:
				buf.Write(EncodeCreateTable(uint32(o), "t", sch, uint64(o)))
				wantTypes = append(wantTypes, RecCreateTable)
			}
		}
		var gotTypes []uint8
		n, validBytes, err := ReadRecords(&buf, func(op Op) error {
			gotTypes = append(gotTypes, op.Type)
			return nil
		})
		if err != nil || n != len(wantTypes) || validBytes == 0 && len(wantTypes) > 0 {
			return false
		}
		for i := range wantTypes {
			if gotTypes[i] != wantTypes[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Multi-table checkpoints store table dumps back to back; recovery must
// consume each table's bytes exactly (regression test: a per-table
// buffered reader used to over-read into the next table).
func TestMultiTableCheckpointRecovery(t *testing.T) {
	for _, compress := range []bool{false, true} {
		t.Run(fmt.Sprintf("compress=%v", compress), func(t *testing.T) {
			dir := t.TempDir()
			m, err := NewManager(dir, disk.Model{})
			if err != nil {
				t.Fatal(err)
			}
			m.SetCompression(compress)
			var tables []*storage.Table
			for id := uint32(1); id <= 4; id++ {
				tables = append(tables, buildTable(t, id, 50*int(id)))
			}
			w, _, err := m.WriteCheckpoint(tables, 9, 5)
			if err != nil {
				t.Fatal(err)
			}
			w.Close()
			res, err := m.Recover(dramHeap(t))
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Tables) != 4 || res.LastCID != 9 || res.NextTableID != 5 {
				t.Fatalf("res: tables=%d cid=%d next=%d", len(res.Tables), res.LastCID, res.NextTableID)
			}
			for id := uint32(1); id <= 4; id++ {
				tbl := res.Tables[id]
				if tbl == nil {
					t.Fatalf("table %d lost", id)
				}
				var n int
				var sum int64
				tbl.ScanVisible(9, 0, func(row uint64) bool {
					n++
					sum += tbl.Value(0, row).I
					return true
				})
				want := 50 * int(id)
				if n != want || sum != int64(want)*(int64(want)-1)/2 {
					t.Fatalf("table %d: n=%d sum=%d", id, n, sum)
				}
			}
		})
	}
}

func TestCompressedCheckpointSmaller(t *testing.T) {
	dir1, dir2 := t.TempDir(), t.TempDir()
	tbl := buildTable(t, 1, 2000)
	plain, _ := NewManager(dir1, disk.Model{})
	w, _, err := plain.WriteCheckpoint([]*storage.Table{tbl}, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	comp, _ := NewManager(dir2, disk.Model{})
	comp.SetCompression(true)
	w, _, err = comp.WriteCheckpoint([]*storage.Table{tbl}, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	sizeOf := func(dir string) int64 {
		fi, err := os.Stat(filepath.Join(dir, "ckpt-000001"))
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	ps, cs := sizeOf(dir1), sizeOf(dir2)
	if cs >= ps {
		t.Fatalf("compressed %d >= plain %d", cs, ps)
	}
	// Both recover identically.
	r1, err := plain.Recover(dramHeap(t))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := comp.Recover(dramHeap(t))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Tables[1].Rows() != r2.Tables[1].Rows() {
		t.Fatal("compressed recovery differs")
	}
}
