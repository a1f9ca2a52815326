// Package crashtest provides exhaustive crash-point enumeration for the
// NVM persistence protocols: it runs a standard workload once to count
// persist barriers, then replays it under the pessimistic shadow crash
// model (internal/nvm), cutting power at every barrier — optionally with
// randomized cache-line tearing — and after each simulated crash reopens
// the heap, runs the full fsck suite (heap allocator, persistent
// structures, MVCC stamps, indexes) and verifies the logical outcome
// against what the application knew at crash time: committed effects
// present, aborted effects absent, the in-flight transaction applied
// all-or-nothing.
package crashtest

import (
	"context"
	"fmt"

	"hyrisenv/internal/core"
	"hyrisenv/internal/exec"
	"hyrisenv/internal/storage"
	"hyrisenv/internal/txn"
)

// intent is the effect set of one not-yet-committed transaction.
type intent struct {
	inserts []int64
	deletes []int64
}

// Recorder tracks the intended effect of every transaction the workload
// issues, playing the role of the application's own knowledge of what it
// asked the database to do. It is entirely volatile: a simulated crash
// freezes it at the exact transaction that was in flight, which is
// precisely the information the post-recovery verification needs.
type Recorder struct {
	// present maps order id -> expected visibility from committed
	// transactions only (true: committed insert; false: committed delete).
	present map[int64]bool
	// aborted holds ids whose inserting transaction aborted.
	aborted []int64
	// inflight is the transaction cut by the crash, if any.
	inflight *intent
	// Verify, when a workload sets it, replaces the id-set comparison of
	// VerifyRecovered: the workload keeps its own model of what it asked
	// for (see Generative) and checks the recovered engine against it.
	Verify func(*core.Engine) error
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{present: map[int64]bool{}} }

func (r *Recorder) begin(ins, del []int64) { r.inflight = &intent{inserts: ins, deletes: del} }

func (r *Recorder) committed() {
	for _, id := range r.inflight.inserts {
		r.present[id] = true
	}
	for _, id := range r.inflight.deletes {
		r.present[id] = false
	}
	r.inflight = nil
}

func (r *Recorder) abortedTxn() {
	r.aborted = append(r.aborted, r.inflight.inserts...)
	r.inflight = nil
}

func ordersSchema() (storage.Schema, error) {
	return storage.NewSchema(
		storage.ColumnDef{Name: "id", Type: storage.TypeInt64},
		storage.ColumnDef{Name: "customer", Type: storage.TypeString},
		storage.ColumnDef{Name: "amount", Type: storage.TypeFloat64},
	)
}

func orderRow(id int64) []storage.Value {
	return []storage.Value{
		storage.Int(id),
		storage.Str(fmt.Sprintf("cust-%d", id%5)),
		storage.Float(float64(id) * 1.5),
	}
}

// insertTxn commits one transaction inserting the given ids.
func insertTxn(e *core.Engine, tbl *storage.Table, rec *Recorder, ids ...int64) error {
	tx := e.Begin()
	rec.begin(ids, nil)
	for _, id := range ids {
		if _, err := tx.Insert(tbl, orderRow(id)); err != nil {
			return err
		}
	}
	if err := tx.Commit(); err != nil {
		return err
	}
	rec.committed()
	return nil
}

// mutateTxn commits one transaction inserting ins and deleting (by id
// column) del.
func mutateTxn(e *core.Engine, tbl *storage.Table, rec *Recorder, ins, del []int64) error {
	tx := e.Begin()
	rec.begin(ins, del)
	for _, id := range ins {
		if _, err := tx.Insert(tbl, orderRow(id)); err != nil {
			return err
		}
	}
	for _, id := range del {
		rows, err := e.Exec().Select(context.Background(), tx, tbl,
			exec.Pred{Col: 0, Op: exec.Eq, Val: storage.Int(id)})
		if err != nil {
			return err
		}
		if len(rows) != 1 {
			return fmt.Errorf("crashtest: id %d matches %d rows, want 1", id, len(rows))
		}
		if err := tx.Delete(tbl, rows[0]); err != nil {
			return err
		}
	}
	if err := tx.Commit(); err != nil {
		return err
	}
	rec.committed()
	return nil
}

// Workload is the standard crash-test workload: table creation with a
// secondary index, committed multi-row inserts, a committed delete, a
// main/delta merge, a scavenge of the merge garbage, an aborted
// transaction, a mixed insert+delete transaction, and post-merge inserts
// landing in the fresh delta. It exercises every persistent structure
// (vectors, blobs, skip lists, hash chains, posting lists, bit-packed
// mains, group-key indexes, MVCC stamp vectors, the allocator and root
// directory) so that enumerating its barriers enumerates crash points in
// every protocol. Deterministic: the barrier count is identical on every
// run with the same engine configuration.
func Workload(e *core.Engine, rec *Recorder) error {
	sch, err := ordersSchema()
	if err != nil {
		return err
	}
	tbl, err := e.CreateTable("orders", sch, "customer")
	if err != nil {
		return err
	}
	for batch := int64(0); batch < 4; batch++ {
		if err := insertTxn(e, tbl, rec, batch*3, batch*3+1, batch*3+2); err != nil {
			return err
		}
	}
	if err := mutateTxn(e, tbl, rec, nil, []int64{2, 7}); err != nil {
		return err
	}
	if _, err := e.Merge("orders"); err != nil {
		return err
	}
	if _, err := e.Scavenge(); err != nil {
		return err
	}
	// Aborted transaction: its inserts must never become visible.
	tx := e.Begin()
	rec.begin([]int64{100, 101}, nil)
	for _, id := range []int64{100, 101} {
		if _, err := tx.Insert(tbl, orderRow(id)); err != nil {
			return err
		}
	}
	if err := tx.Abort(); err != nil {
		return err
	}
	rec.abortedTxn()
	// Mixed transaction against the merged table: inserts hit the fresh
	// delta while the delete invalidates a main row.
	if err := mutateTxn(e, tbl, rec, []int64{200, 201}, []int64{5}); err != nil {
		return err
	}
	if err := groupTxn(e, tbl, rec, [][]int64{{400, 401}, {402}, {403, 404}}); err != nil {
		return err
	}
	return insertTxn(e, tbl, rec, 300, 301, 302)
}

// groupTxn commits one batch of insert transactions through the
// persist-group commit protocol (txn.CommitGroup), so the barrier
// enumeration sweeps the group's schedule: the shared commit-intent
// fence, the shared stamp fence and the single per-batch durability
// drain. The group's lastCID advance is one 8-byte persist covering
// every member, so a crash anywhere in the schedule must roll back or
// commit the whole batch — the recorder models it as one atomic intent.
func groupTxn(e *core.Engine, tbl *storage.Table, rec *Recorder, members [][]int64) error {
	var all []int64
	for _, ids := range members {
		all = append(all, ids...)
	}
	rec.begin(all, nil)
	txns := make([]*txn.Txn, len(members))
	for i, ids := range members {
		tx := e.Begin()
		for _, id := range ids {
			if _, err := tx.Insert(tbl, orderRow(id)); err != nil {
				return err
			}
		}
		txns[i] = tx
	}
	if err := e.Manager().CommitGroup(txns); err != nil {
		return err
	}
	rec.committed()
	return nil
}

// VerifyRecovered checks the recovered engine against the recorder's
// crash-time knowledge: every committed insert is visible (unless the
// in-flight transaction deleted it), every committed delete and every
// aborted insert is invisible, no phantom rows exist, and the in-flight
// transaction — if any — was applied atomically: all of its effects or
// none of them.
func VerifyRecovered(e *core.Engine, rec *Recorder) error {
	if rec.Verify != nil {
		return rec.Verify(e)
	}
	tbl, err := e.Table("orders")
	if err != nil {
		return rec.tableLost()
	}
	tx := e.Begin()
	rows, err := e.Exec().ScanAll(context.Background(), tx, tbl)
	if err != nil {
		return err
	}
	got := make(map[int64]bool, len(rows))
	for _, vals := range exec.Project(tbl, rows, 0) {
		id := vals[0].I
		if got[id] {
			return fmt.Errorf("crashtest: id %d visible twice", id)
		}
		got[id] = true
	}
	return rec.verify(got)
}

// tableLost handles the case where the crash cut table creation itself;
// that is only acceptable while nothing had committed.
func (rec *Recorder) tableLost() error {
	for id, want := range rec.present {
		if want {
			return fmt.Errorf("crashtest: table lost but id %d was committed", id)
		}
	}
	return nil
}

// verify checks the recovered id->visible map against the recorder's
// crash-time knowledge (the engine-independent core of VerifyRecovered).
func (rec *Recorder) verify(got map[int64]bool) error {
	insSet := map[int64]bool{}
	delSet := map[int64]bool{}
	if rec.inflight != nil {
		for _, id := range rec.inflight.inserts {
			insSet[id] = true
		}
		for _, id := range rec.inflight.deletes {
			delSet[id] = true
		}
	}

	for id, want := range rec.present {
		switch {
		case want && !got[id] && !delSet[id]:
			return fmt.Errorf("crashtest: committed id %d missing after recovery", id)
		case !want && got[id]:
			return fmt.Errorf("crashtest: deleted id %d resurrected after recovery", id)
		}
	}
	for _, id := range rec.aborted {
		if got[id] {
			return fmt.Errorf("crashtest: aborted id %d visible after recovery", id)
		}
	}
	for id := range got {
		if !rec.present[id] && !insSet[id] {
			return fmt.Errorf("crashtest: phantom id %d visible after recovery", id)
		}
	}

	// All-or-nothing for the transaction in flight at the crash.
	if rec.inflight != nil {
		insApplied, delApplied := 0, 0
		for _, id := range rec.inflight.inserts {
			if got[id] {
				insApplied++
			}
		}
		for _, id := range rec.inflight.deletes {
			if !got[id] {
				delApplied++
			}
		}
		all := insApplied == len(rec.inflight.inserts) && delApplied == len(rec.inflight.deletes)
		none := insApplied == 0 && delApplied == 0
		if !all && !none {
			return fmt.Errorf("crashtest: in-flight transaction applied partially: %d/%d inserts, %d/%d deletes",
				insApplied, len(rec.inflight.inserts), delApplied, len(rec.inflight.deletes))
		}
	}
	return nil
}
