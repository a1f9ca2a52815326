package storage

import (
	"fmt"
	"sync"
	"sync/atomic"

	"hyrisenv/internal/index"
	"hyrisenv/internal/mvcc"
	"hyrisenv/internal/nvm"
	"hyrisenv/internal/pstruct"
)

// Table is a main/delta column-store table with MVCC row state. Rows are
// addressed by a table-wide row ID: IDs below MainRows() live in the
// immutable main partition, the rest in the append-only delta.
//
// Concurrency model: the complete partition state (columns, MVCC
// vectors, indexes) lives in an immutable *partitions* value published
// through an atomic pointer. Readers take a View — a snapshot of that
// pointer — and every operation through one View is self-consistent even
// while a merge builds and swaps in a new partition generation
// (lock-free readers; the superseded generation stays readable). Row IDs
// are only meaningful relative to a generation; the Epoch counter lets
// the transaction layer detect stale row IDs across a merge.
//
// The table lives on a heap: the NVM heap of the Hyrise-NV engine, or a
// heap that does not persist for the log-based and volatile engines —
// the same structures either way. It is anchored at a root block holding
// the schema and a single pointer to the current partition set; the
// merge persists the complete new set before swapping that one pointer,
// which makes it crash-atomic on NVM.
type Table struct {
	Name   string
	ID     uint32
	Schema Schema

	indexMask uint64

	h    *nvm.Heap
	root nvm.PPtr

	parts atomic.Pointer[partitions]
	epoch atomic.Uint64

	// writeMu serializes row appends and blocks them during a merge so
	// column vectors stay aligned and no append lands in a superseded
	// delta.
	writeMu sync.Mutex
}

// partitions is one immutable generation of the table's storage.
type partitions struct {
	main  []*NVMMain
	delta []*NVMDelta
	// mainIdx holds the group-key index of each indexed column's main
	// partition; nil for an unindexed column, and for an indexed one
	// whose indexes a checkpoint load has yet to rebuild.
	mainIdx   []*index.NVMGroupKey
	mainMVCC  *mvcc.Store
	deltaMVCC *mvcc.Store
}

// View is a consistent snapshot of one partition generation. All reads
// made through the same View agree on row addressing and content,
// regardless of concurrent merges.
type View struct {
	t  *Table
	ps *partitions
}

// View captures the current partition generation.
func (t *Table) View() View { return View{t: t, ps: t.parts.Load()} }

// Epoch returns the merge generation counter; it increments on every
// partition swap. Row IDs obtained under one epoch must not be used for
// writes under another.
func (t *Table) Epoch() uint64 { return t.epoch.Load() }

// Table root block: schemaBlob u64 | partitionSet u64 | id u64 | indexMask u64.
const (
	trOffSchema    = 0
	trOffPS        = 8
	trOffID        = 16
	trOffIndexMask = 24
	trRootSize     = 32
)

// Partition-set block: ncols u64 | mainBegin | mainEnd | deltaBegin |
// deltaEnd | per column (mainColRoot, deltaColRoot, mainIdxRoot). An
// unindexed column's mainIdxRoot is 0; an indexed column's delta index
// is its delta column's posting lists.
const (
	psOffNCols      = 0
	psOffMainBegin  = 8
	psOffMainEnd    = 16
	psOffDeltaBegin = 24
	psOffDeltaEnd   = 32
	psOffCols       = 40
	psColSize       = 24
)

func psSize(ncols int) uint64 { return psOffCols + uint64(ncols)*psColSize }

func (t *Table) psPtr() nvm.PPtr {
	return nvm.PPtr(t.h.GetU64(t.root.Add(trOffPS)))
}

// CreateNVMTable allocates an empty table on h. On NVM the caller must
// link t.Root() into the catalog to make the table durable.
func CreateNVMTable(h *nvm.Heap, name string, id uint32, schema Schema, indexMask uint64) (*Table, error) {
	t := &Table{Name: name, ID: id, Schema: schema, indexMask: indexMask, h: h}
	ps, err := t.buildNVMPartitionSet(nil, nil)
	if err != nil {
		return nil, err
	}
	if err := t.writeRoot(ps); err != nil {
		return nil, err
	}
	return t, nil
}

// writeRoot allocates and persists the table's root block over the
// partition set ps, and attaches ps.
func (t *Table) writeRoot(ps nvm.PPtr) error {
	h := t.h
	schemaBlob, err := pstruct.WriteBlob(h, t.Schema.Marshal())
	if err != nil {
		return err
	}
	root, err := h.Alloc(trRootSize)
	if err != nil {
		return err
	}
	h.PutU64(root.Add(trOffSchema), uint64(schemaBlob))
	h.PutU64(root.Add(trOffPS), uint64(ps))
	h.PutU64(root.Add(trOffID), uint64(t.ID))
	h.PutU64(root.Add(trOffIndexMask), t.indexMask)
	h.Persist(root, trRootSize)
	t.root = root
	parts, err := t.attachPartitionSet(ps, false)
	if err != nil {
		return err
	}
	t.parts.Store(parts)
	return nil
}

// OpenNVMTable re-hydrates a persistent table from its root. The work is
// O(columns), independent of row count — the instant-restart property.
func OpenNVMTable(h *nvm.Heap, name string, root nvm.PPtr) (*Table, error) {
	schemaBytes := pstruct.ReadBlob(h, nvm.PPtr(h.GetU64(root.Add(trOffSchema))))
	schema, err := UnmarshalSchema(schemaBytes)
	if err != nil {
		return nil, fmt.Errorf("storage: table %s: %w", name, err)
	}
	t := &Table{
		Name:      name,
		ID:        uint32(h.GetU64(root.Add(trOffID))),
		Schema:    schema,
		indexMask: h.GetU64(root.Add(trOffIndexMask)),
		h:         h,
		root:      root,
	}
	parts, err := t.attachPartitionSet(nvm.PPtr(h.GetU64(root.Add(trOffPS))), true)
	if err != nil {
		return nil, fmt.Errorf("storage: table %s: %w", name, err)
	}
	t.parts.Store(parts)
	return t, nil
}

// buildNVMPartitionSet allocates a partition set with the given main
// columns and MVCC begin stamps (nil = empty main), fresh deltas, and
// freshly built group-key indexes for indexed columns.
func (t *Table) buildNVMPartitionSet(mainCols []*NVMMain, mainBegins []uint64) (nvm.PPtr, error) {
	h := t.h
	ncols := t.Schema.NumCols()
	if mainCols == nil {
		mainCols = make([]*NVMMain, ncols)
		for i, c := range t.Schema.Cols {
			mc, err := BuildNVMMain(h, c.Type, nil)
			if err != nil {
				return 0, err
			}
			mainCols[i] = mc
		}
	}
	ends := make([]uint64, len(mainBegins))
	for i := range ends {
		ends[i] = mvcc.Inf
	}
	var stamps [4]*pstruct.Vector
	for i, vals := range [][]uint64{mainBegins, ends, nil, nil} {
		v, err := pstruct.NewVector(h, 8, 10)
		if err != nil {
			return 0, err
		}
		if _, err := v.AppendN(vals); err != nil {
			return 0, err
		}
		stamps[i] = v
	}
	deltas := make([]*NVMDelta, ncols)
	gks := make([]*index.NVMGroupKey, ncols)
	for i := range deltas {
		dc, err := NewNVMDelta(h, t.Schema.Cols[i].Type, t.Indexed(i))
		if err != nil {
			return 0, err
		}
		deltas[i] = dc
		if t.Indexed(i) {
			m := mainCols[i]
			if gks[i], err = index.BuildNVMGroupKey(h, m.Rows(), m.DictLen(), m.ValueID); err != nil {
				return 0, err
			}
		}
	}
	return t.writePartitionSet(mainCols, deltas, gks, stamps)
}

// writePartitionSet allocates and persists a partition-set block naming
// the given columns, main indexes (nil: none) and MVCC vectors (main
// begin, main end, delta begin, delta end).
func (t *Table) writePartitionSet(main []*NVMMain, delta []*NVMDelta, gks []*index.NVMGroupKey, stamps [4]*pstruct.Vector) (nvm.PPtr, error) {
	h := t.h
	ncols := len(main)
	ps, err := h.Alloc(psSize(ncols))
	if err != nil {
		return 0, err
	}
	h.PutU64(ps.Add(psOffNCols), uint64(ncols))
	h.PutU64(ps.Add(psOffMainBegin), uint64(stamps[0].Root()))
	h.PutU64(ps.Add(psOffMainEnd), uint64(stamps[1].Root()))
	h.PutU64(ps.Add(psOffDeltaBegin), uint64(stamps[2].Root()))
	h.PutU64(ps.Add(psOffDeltaEnd), uint64(stamps[3].Root()))
	for i := 0; i < ncols; i++ {
		base := ps.Add(psOffCols + uint64(i)*psColSize)
		h.PutU64(base, uint64(main[i].Root()))
		h.PutU64(base.Add(8), uint64(delta[i].Root()))
		var gkRoot nvm.PPtr
		if gks[i] != nil {
			gkRoot = gks[i].Root()
		}
		h.PutU64(base.Add(16), uint64(gkRoot))
	}
	h.Persist(ps, psSize(ncols))
	return ps, nil
}

// attachPartitionSet re-hydrates the in-memory handles from ps. After a
// restart the delta may carry one torn row append, which is trimmed
// before the MVCC stores are built, so that each is built exactly once.
// Their volatile owner vectors are the one structure here whose size
// follows the row count; they are allocated zeroed, a segment at a time,
// never filled row by row.
func (t *Table) attachPartitionSet(psPtr nvm.PPtr, afterRestart bool) (*partitions, error) {
	h := t.h
	ncols := t.Schema.NumCols()
	ps := &partitions{
		main:    make([]*NVMMain, ncols),
		delta:   make([]*NVMDelta, ncols),
		mainIdx: make([]*index.NVMGroupKey, ncols),
	}
	for i := 0; i < ncols; i++ {
		base := psPtr.Add(psOffCols + uint64(i)*psColSize)
		ps.main[i] = AttachNVMMain(h, nvm.PPtr(h.GetU64(base)))
		ps.delta[i] = AttachNVMDelta(h, nvm.PPtr(h.GetU64(base.Add(8))))
		if gk := nvm.PPtr(h.GetU64(base.Add(16))); !gk.IsNil() {
			ps.mainIdx[i] = index.AttachNVMGroupKey(h, gk)
		}
	}
	deltaBegin := pstruct.AttachVector(h, nvm.PPtr(h.GetU64(psPtr.Add(psOffDeltaBegin))))
	deltaEnd := pstruct.AttachVector(h, nvm.PPtr(h.GetU64(psPtr.Add(psOffDeltaEnd))))
	if afterRestart {
		if err := alignAfterRestart(ps.delta, deltaBegin, deltaEnd); err != nil {
			return nil, err
		}
	}
	ps.mainMVCC = mvcc.NewStore(
		pstruct.AttachVector(h, nvm.PPtr(h.GetU64(psPtr.Add(psOffMainBegin)))),
		pstruct.AttachVector(h, nvm.PPtr(h.GetU64(psPtr.Add(psOffMainEnd)))),
	)
	ps.deltaMVCC = mvcc.NewStore(deltaBegin, deltaEnd)
	return ps, nil
}

// alignAfterRestart reconciles the delta's structures after a crash cut
// a row append between its two fences, where any subset of the publish
// words may have become durable. Each column first completes a
// dictionary entry whose index link survived without its length and
// aligns its posting-list heads with its dictionary (repairTornAppend);
// then, as the row was never made visible (begin = Inf), the shortest
// structure governs and the rest are cut back to it. Work is
// O(columns), not O(rows).
func alignAfterRestart(delta []*NVMDelta, begin, end *pstruct.Vector) error {
	rows := begin.Len()
	if el := end.Len(); el < rows {
		rows = el
	}
	for _, d := range delta {
		if err := d.repairTornAppend(); err != nil {
			return err
		}
		if d.Rows() < rows {
			rows = d.Rows()
		}
	}
	if begin.Len() > rows {
		begin.Truncate(rows)
	}
	if end.Len() > rows {
		end.Truncate(rows)
	}
	for _, d := range delta {
		if d.Rows() > rows {
			d.Truncate(rows)
		}
	}
	return nil
}

// Root returns the table's root pointer.
func (t *Table) Root() nvm.PPtr { return t.root }

// --- View accessors -----------------------------------------------------------

// MainRows returns the number of rows in the main partition.
func (v View) MainRows() uint64 { return v.ps.mainMVCC.Rows() }

// Rows returns the total row count (main + delta, including dead rows).
func (v View) Rows() uint64 { return v.ps.mainMVCC.Rows() + v.ps.deltaMVCC.Rows() }

// DeltaRows returns the number of delta rows.
func (v View) DeltaRows() uint64 { return v.ps.deltaMVCC.Rows() }

// MVCCFor resolves a table row ID to its MVCC store and local row index.
func (v View) MVCCFor(row uint64) (*mvcc.Store, uint64) {
	mr := v.ps.mainMVCC.Rows()
	if row < mr {
		return v.ps.mainMVCC, row
	}
	return v.ps.deltaMVCC, row - mr
}

// MainMVCC exposes the main partition's MVCC store.
func (v View) MainMVCC() *mvcc.Store { return v.ps.mainMVCC }

// DeltaMVCC exposes the delta partition's MVCC store.
func (v View) DeltaMVCC() *mvcc.Store { return v.ps.deltaMVCC }

// MainColumnAt returns main column i.
func (v View) MainColumnAt(i int) MainColumn { return v.ps.main[i] }

// DeltaColumnAt returns delta column i.
func (v View) DeltaColumnAt(i int) DeltaColumn { return v.ps.delta[i] }

// Value returns the (possibly dead) value of column col at table row ID
// row, ignoring visibility — callers check MVCC first.
func (v View) Value(col int, row uint64) Value {
	mr := v.ps.mainMVCC.Rows()
	if row < mr {
		return v.ps.main[col].Value(row)
	}
	return v.ps.delta[col].Value(row - mr)
}

// Visible reports MVCC visibility of table row ID row.
func (v View) Visible(row, snapCID, selfTID uint64) bool {
	s, local := v.MVCCFor(row)
	return s.Visible(local, snapCID, selfTID)
}

// ScanVisible calls fn for every row visible at snapCID to selfTID.
func (v View) ScanVisible(snapCID, selfTID uint64, fn func(row uint64) bool) {
	mr := v.ps.mainMVCC.Rows()
	for r := uint64(0); r < mr; r++ {
		if v.ps.mainMVCC.Visible(r, snapCID, selfTID) && !fn(r) {
			return
		}
	}
	dr := v.ps.deltaMVCC.Rows()
	for r := uint64(0); r < dr; r++ {
		if v.ps.deltaMVCC.Visible(r, snapCID, selfTID) && !fn(mr+r) {
			return
		}
	}
}

// --- Table-level convenience (single-call consistency) -------------------------

// MainRows returns the main partition row count of the current generation.
func (t *Table) MainRows() uint64 { return t.View().MainRows() }

// Rows returns the total row count of the current generation.
func (t *Table) Rows() uint64 { return t.View().Rows() }

// DeltaRows returns the delta row count (the merge trigger metric).
func (t *Table) DeltaRows() uint64 { return t.View().DeltaRows() }

// MVCCFor resolves a row ID against the current generation.
func (t *Table) MVCCFor(row uint64) (*mvcc.Store, uint64) { return t.View().MVCCFor(row) }

// MainMVCC exposes the current generation's main MVCC store.
func (t *Table) MainMVCC() *mvcc.Store { return t.View().MainMVCC() }

// DeltaMVCC exposes the current generation's delta MVCC store.
func (t *Table) DeltaMVCC() *mvcc.Store { return t.View().DeltaMVCC() }

// MainColumnAt returns main column i of the current generation.
func (t *Table) MainColumnAt(i int) MainColumn { return t.View().MainColumnAt(i) }

// DeltaColumnAt returns delta column i of the current generation.
func (t *Table) DeltaColumnAt(i int) DeltaColumn { return t.View().DeltaColumnAt(i) }

// Value reads a cell in the current generation.
func (t *Table) Value(col int, row uint64) Value { return t.View().Value(col, row) }

// Visible checks MVCC visibility in the current generation.
func (t *Table) Visible(row, snapCID, selfTID uint64) bool {
	return t.View().Visible(row, snapCID, selfTID)
}

// ScanVisible iterates the current generation's visible rows.
func (t *Table) ScanVisible(snapCID, selfTID uint64, fn func(row uint64) bool) {
	t.View().ScanVisible(snapCID, selfTID, fn)
}

// --- Writes ---------------------------------------------------------------------

// RowLog is the transaction layer's part of a row append: its undo
// record for the row is staged and published with the row's own
// structures, under the same two fences. StageRow writes the record for
// table row ID row where nothing reaches it yet, PublishRow makes it
// count, UnstageRow forgets a staged record that will not be published.
type RowLog interface {
	StageRow(t *Table, row uint64) error
	PublishRow()
	UnstageRow()
}

// AppendRow appends vals as a new delta row owned by transaction owner.
// The row starts invisible (begin = Inf); the commit protocol stamps it.
// Indexed columns post the row under its value ID here. It returns the
// table row ID (relative to the current epoch).
func (t *Table) AppendRow(vals []Value, owner uint64) (uint64, error) {
	return t.AppendRowLogged(vals, owner, nil)
}

// AppendRowLogged is AppendRow with the caller's undo record for the row
// (nil for none) riding the append.
//
// The append costs two fences whatever the schema.
// The stage half writes every line the row needs — per column the
// attribute-vector slot and, for a new value, the dictionary slot and the
// index node with the key; the posting of indexed columns; the MVCC begin
// and end slots; the undo record — where nothing reaches them, and
// flushes them. One fence makes all of it durable. The publish half then
// stores the words that make it reachable, in the order concurrent
// readers need (dictionary and heads lengths, list heads and index links,
// attribute-vector lengths, MVCC lengths last), and a second fence makes
// those durable before the row ID is returned, long before commit
// stamps it. A stage that fails publishes nothing. A crash between the
// fences may keep any subset of the publish words; restart cuts every
// structure back to the shortest (alignAfterRestart).
func (t *Table) AppendRowLogged(vals []Value, owner uint64, log RowLog) (uint64, error) {
	if err := t.Schema.Validate(vals); err != nil {
		return 0, err
	}
	t.writeMu.Lock()
	defer t.writeMu.Unlock()
	ps := t.parts.Load()
	row := ps.mainMVCC.Rows() + ps.deltaMVCC.Rows()
	return row, t.appendRowNVM(ps, vals, owner, row, log)
}

// stageRow is the stage half of a row append.
func (t *Table) stageRow(ps *partitions, vals []Value, owner, row uint64, log RowLog) error {
	for i, v := range vals {
		if _, err := ps.delta[i].StageAppend(v); err != nil {
			return err
		}
	}
	if _, err := ps.deltaMVCC.StageRow(owner); err != nil {
		return err
	}
	if log != nil {
		return log.StageRow(t, row)
	}
	return nil
}

// publishRow is the publish half of a row append:
// lengths, heads and links of the dictionaries, then attribute-vector
// lengths (both per column, in NVMDelta.Publish), then the MVCC lengths
// that let a reader count the row.
func publishRow(ps *partitions, log RowLog) {
	for _, d := range ps.delta {
		d.Publish()
	}
	ps.deltaMVCC.PublishRow()
	if log != nil {
		log.PublishRow()
	}
}

// settleRow finishes a published row after the second fence (see
// pstruct.HashList.Settle); what it flushes rides the next fence.
func settleRow(ps *partitions) {
	for _, d := range ps.delta {
		d.Settle()
	}
}

// unstageRow forgets a row whose stage half failed. Nothing of it was
// published, so there is nothing to cut back; what it wrote is
// overwritten by the next row or stays behind as arena bytes nothing
// names.
func unstageRow(ps *partitions, log RowLog) {
	for _, d := range ps.delta {
		d.Unstage()
	}
	ps.deltaMVCC.UnstageRow()
	if log != nil {
		log.UnstageRow()
	}
}

// StampBegin durably sets the begin CID of table row ID row.
func (t *Table) StampBegin(row, cid uint64) {
	s, local := t.MVCCFor(row)
	s.SetBegin(local, cid)
	s.PersistBegin(local)
}

// StampEnd durably sets the end CID of table row ID row.
func (t *Table) StampEnd(row, cid uint64) {
	s, local := t.MVCCFor(row)
	s.SetEnd(local, cid)
	s.PersistEnd(local)
}

// ReleaseOwner clears the write lock of row if held by owner.
func (t *Table) ReleaseOwner(row, owner uint64) {
	s, local := t.MVCCFor(row)
	s.ReleaseRow(local, owner)
}
