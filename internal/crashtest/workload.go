// Package crashtest provides exhaustive crash-point enumeration for the
// NVM persistence protocols: it runs a workload on a sharded engine once
// to count the persist barriers of each heap, then replays it under the
// pessimistic shadow crash model (internal/nvm), cutting power to every
// heap at each barrier of each — optionally with randomized cache-line
// tearing — and after each simulated crash reopens the database, runs
// the full fsck suite (heap allocator, persistent structures, MVCC
// stamps, indexes) on every shard and verifies the logical outcome
// against what the application knew at crash time: committed effects
// present, aborted effects absent, the in-flight transaction applied
// all-or-nothing across every shard it touched.
package crashtest

import (
	"context"
	"fmt"

	"hyrisenv/internal/exec"
	"hyrisenv/internal/shard"
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
	Verify func(*shard.Engine) error
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
func insertTxn(e *shard.Engine, tbl *shard.Table, rec *Recorder, ids ...int64) error {
	return mutateTxn(e, tbl, rec, ids, nil)
}

// mutateTxn commits one transaction inserting ins and deleting (by id
// column) del.
func mutateTxn(e *shard.Engine, tbl *shard.Table, rec *Recorder, ins, del []int64) error {
	tx := e.Begin()
	rec.begin(ins, del)
	for _, id := range ins {
		if _, err := tx.Insert(tbl, orderRow(id)); err != nil {
			return err
		}
	}
	for _, id := range del {
		rows, err := tx.Select(context.Background(), tbl,
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

// abortTxn inserts the given ids in one transaction and aborts it.
func abortTxn(e *shard.Engine, tbl *shard.Table, rec *Recorder, ids ...int64) error {
	tx := e.Begin()
	rec.begin(ids, nil)
	for _, id := range ids {
		if _, err := tx.Insert(tbl, orderRow(id)); err != nil {
			return err
		}
	}
	if err := tx.Abort(); err != nil {
		return err
	}
	rec.abortedTxn()
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
func Workload(e *shard.Engine, rec *Recorder) error {
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
	if err := abortTxn(e, tbl, rec, 100, 101); err != nil {
		return err
	}
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
func groupTxn(e *shard.Engine, tbl *shard.Table, rec *Recorder, members [][]int64) error {
	var all []int64
	for _, ids := range members {
		all = append(all, ids...)
	}
	rec.begin(all, nil)
	txs := make([]*shard.Tx, len(members))
	for i, ids := range members {
		txs[i] = e.Begin()
		for _, id := range ids {
			if _, err := txs[i].Insert(tbl, orderRow(id)); err != nil {
				return err
			}
		}
	}
	if err := commitGroup(e, txs); err != nil {
		return err
	}
	rec.committed()
	return nil
}

// commitGroup commits txs as one persist group on shard 0's manager.
// The group protocol is a single heap's, so it needs a fleet of one:
// the workloads that run it (Workload, Generative) refuse a larger one.
func commitGroup(e *shard.Engine, txs []*shard.Tx) error {
	if e.Shards() != 1 {
		return fmt.Errorf("crashtest: group commit needs a fleet of one, not %d shards", e.Shards())
	}
	parts := make([]*txn.Txn, len(txs))
	for i, tx := range txs {
		parts[i] = tx.Part(0)
	}
	return e.Shard(0).Manager().CommitGroup(parts)
}

// VerifyRecovered checks the recovered engine against the recorder's
// crash-time knowledge: every committed insert is visible (unless the
// in-flight transaction deleted it), every committed delete and every
// aborted insert is invisible, no phantom rows exist, and the in-flight
// transaction — if any — was applied atomically: all of its effects or
// none of them, across every shard it touched.
func VerifyRecovered(e *shard.Engine, rec *Recorder) error {
	if rec.Verify != nil {
		return rec.Verify(e)
	}
	tbl, err := e.Table("orders")
	if err != nil {
		return rec.tableLost()
	}
	tx := e.Begin()
	rows, err := tx.Select(context.Background(), tbl)
	if err != nil {
		return err
	}
	got := make(map[int64]bool, len(rows))
	for _, r := range rows {
		id := tbl.Value(0, r).I
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

// Workload2PC is the standard sharded crash workload, for a fleet of two
// or more: single-shard committed transactions (fast path), cross-shard
// committed transactions (two-phase commit), an aborted cross-shard
// transaction, a cross-shard mixed insert+delete and a final
// cross-shard batch. Deterministic for a fixed shard count: keys are
// chosen by scanning the integers for ids that hash to each shard, so
// the same points recur on every run.
func Workload2PC(e *shard.Engine, rec *Recorder) error {
	sch, err := ordersSchema()
	if err != nil {
		return err
	}
	tbl, err := e.CreateTable("orders", sch, "customer")
	if err != nil {
		return err
	}

	// Six deterministic ids per shard.
	const perShard = 6
	byShard := make([][]int64, e.Shards())
	for id, filled := int64(0), 0; filled < e.Shards()*perShard; id++ {
		s := e.ShardOf(storage.Int(id))
		if len(byShard[s]) < perShard {
			byShard[s] = append(byShard[s], id)
			filled++
		}
	}

	// Single-shard commits: one per shard, exercising each shard's
	// unmodified fast path under the sharded engine.
	for s := 0; s < e.Shards(); s++ {
		if err := insertTxn(e, tbl, rec, byShard[s][:2]...); err != nil {
			return err
		}
	}
	// Cross-shard commits: 2PC across shard pairs (0,1), (1,2), ...
	for s := 0; s < e.Shards(); s++ {
		n := (s + 1) % e.Shards()
		if err := insertTxn(e, tbl, rec, byShard[s][2], byShard[n][3]); err != nil {
			return err
		}
	}
	// Aborted cross-shard transaction: nothing of it may ever surface.
	if err := abortTxn(e, tbl, rec, byShard[0][4], byShard[1][4]); err != nil {
		return err
	}
	// Cross-shard mixed transaction: inserts on every shard plus a
	// delete of a row committed by the fast path above.
	var mixed []int64
	for s := 0; s < e.Shards(); s++ {
		mixed = append(mixed, byShard[s][5])
	}
	if err := mutateTxn(e, tbl, rec, mixed, []int64{byShard[0][0]}); err != nil {
		return err
	}
	// Final cross-shard batch, so the last barriers of the run sit
	// inside the 2PC window.
	return insertTxn(e, tbl, rec, byShard[0][1]+1000000, byShard[1][1]+1000000)
}
