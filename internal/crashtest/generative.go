package crashtest

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"hyrisenv/internal/exec"
	"hyrisenv/internal/shard"
	"hyrisenv/internal/storage"
	"hyrisenv/internal/txn"
)

// The generative workload. Where Workload is one fixed script, Generative
// draws a sequence of operations from a seed — inserts of fresh and
// repeated values in every column type, updates, deletes, aborts,
// transactions that span tables, two transactions open at once, group
// commits, merges and scavenges — and keeps a model of what the
// database must hold: a plain map per table, copied at Begin for
// snapshot isolation. While it runs, reads are checked against the
// model; after a power cut the recovered database must equal the model
// as of the last acknowledged commit, or that plus the whole of the
// commit that was in flight.

// version is one row version of the model. Column 0 of every table is
// its key; ver tells two versions of one key apart.
type version struct {
	vals []storage.Value
	ver  uint64
}

type tableState map[int64]version

// dbState maps table name to live rows by key.
type dbState map[string]tableState

func (s dbState) clone() dbState {
	out := make(dbState, len(s))
	for name, rows := range s {
		c := make(tableState, len(rows))
		for k, v := range rows {
			c[k] = v
		}
		out[name] = c
	}
	return out
}

// genTable is one table of the generated schema.
type genTable struct {
	name    string
	cols    []storage.ColumnDef
	indexed []string
}

var genTables = []genTable{
	{
		name: "ga",
		cols: []storage.ColumnDef{
			{Name: "id", Type: storage.TypeInt64},
			{Name: "name", Type: storage.TypeString},
			{Name: "amount", Type: storage.TypeFloat64},
			{Name: "qty", Type: storage.TypeInt64},
		},
		indexed: []string{"id", "name"},
	},
	{
		name: "gb",
		cols: []storage.ColumnDef{
			{Name: "id", Type: storage.TypeInt64},
			{Name: "tag", Type: storage.TypeString},
			{Name: "score", Type: storage.TypeFloat64},
		},
		indexed: []string{"tag"}, // few distinct tags: long posting lists
	},
}

func (gt genTable) indexedCols() []int {
	var cols []int
	for c, def := range gt.cols {
		for _, name := range gt.indexed {
			if def.Name == name {
				cols = append(cols, c)
			}
		}
	}
	return cols
}

// genTxn is one open transaction and what the model says it did.
type genTxn struct {
	tx   *shard.Tx
	view dbState                     // what it must read: its snapshot plus its own writes
	ins  map[string]tableState       // versions it inserted
	del  map[string]map[int64]uint64 // committed versions it invalidated, by key
}

func (t *genTxn) applyTo(s dbState) {
	for name, keys := range t.del {
		for k, ver := range keys {
			if s[name][k].ver == ver {
				delete(s[name], k)
			}
		}
	}
	for name, rows := range t.ins {
		for k, v := range rows {
			s[name][k] = v
		}
	}
}

type gen struct {
	e   *shard.Engine
	rng *rand.Rand

	tables    map[string]*shard.Table
	committed dbState
	open      []*genTxn
	// inflight holds the transactions whose commit has been issued and
	// not yet acknowledged: one, or the members of a group.
	inflight []*genTxn

	// attempt is the row version whose insert is under way, with its
	// table: what a power cut inside a row append was writing.
	attempt      *version
	attemptTable genTable

	nextKey int64
	nextVer uint64
	fresh   int
	// used remembers every value ever written to an indexed column, by
	// table, column and encoded key, so that index probes also ask for
	// values that only aborted or cut transactions wrote.
	used map[string]map[int]map[string]storage.Value
}

// Generative returns the workload of the given seed and length for
// Config.Workload, in a fleet of one: its group commits run on shard
// 0's manager. It is deterministic: the same seed issues the same
// barriers on every run under one engine configuration.
func Generative(seed int64, steps int) func(*shard.Engine, *Recorder) error {
	return func(e *shard.Engine, rec *Recorder) error {
		g := &gen{
			e:         e,
			rng:       rand.New(rand.NewSource(seed)),
			tables:    map[string]*shard.Table{},
			committed: dbState{},
			used:      map[string]map[int]map[string]storage.Value{},
		}
		rec.Verify = g.verify
		return g.run(steps)
	}
}

func (g *gen) run(steps int) error {
	for _, gt := range genTables {
		g.committed[gt.name] = tableState{}
		g.used[gt.name] = map[int]map[string]storage.Value{}
	}
	for _, gt := range genTables {
		sch, err := storage.NewSchema(gt.cols...)
		if err != nil {
			return err
		}
		tbl, err := g.e.CreateTable(gt.name, sch, gt.indexed...)
		if err != nil {
			return err
		}
		g.tables[gt.name] = tbl
	}
	for i := 0; i < steps; i++ {
		if err := g.step(); err != nil {
			return fmt.Errorf("step %d: %w", i, err)
		}
	}
	for len(g.open) > 0 {
		if err := g.commit(g.open[0]); err != nil {
			return err
		}
	}
	return g.checkReads(g.e.Begin(), g.committed)
}

// step performs one randomly drawn operation.
func (g *gen) step() error {
	if len(g.open) == 0 {
		switch p := g.rng.Intn(20); {
		case p == 0:
			_, err := g.e.Merge(genTables[g.rng.Intn(len(genTables))].name)
			return err
		case p == 1:
			_, err := g.e.Scavenge()
			return err
		case p == 2:
			return g.checkReads(g.e.Begin(), g.committed)
		}
		g.begin()
	}
	t := g.open[g.rng.Intn(len(g.open))]
	switch p := g.rng.Intn(100); {
	case p < 45:
		return g.insert(t)
	case p < 60:
		return g.mutate(t, true)
	case p < 70:
		return g.mutate(t, false)
	case p < 75:
		return g.checkReads(t.tx, t.view)
	case p < 80:
		if len(g.open) < 2 {
			g.begin()
		}
		return nil
	case p < 84:
		return g.abort(t)
	case p < 88 && len(g.open) == 2:
		return g.commitGroup()
	default:
		return g.commit(t)
	}
}

func (g *gen) begin() {
	g.open = append(g.open, &genTxn{
		tx:   g.e.Begin(),
		view: g.committed.clone(),
		ins:  map[string]tableState{},
		del:  map[string]map[int64]uint64{},
	})
}

func (g *gen) closeTxn(t *genTxn) {
	for i, o := range g.open {
		if o == t {
			g.open = append(g.open[:i], g.open[i+1:]...)
			return
		}
	}
}

// value draws a value of type typ: one time in three a value never
// used before, otherwise one of a small pool, so that dictionaries see
// both new entries and repeats.
func (g *gen) value(typ storage.ColType) storage.Value {
	fresh := g.rng.Intn(3) == 0
	if fresh {
		g.fresh++
	}
	switch typ {
	case storage.TypeInt64:
		if fresh {
			return storage.Int(1000 + int64(g.fresh))
		}
		return storage.Int([]int64{0, -1, 7, 1 << 40, math.MinInt64}[g.rng.Intn(5)])
	case storage.TypeFloat64:
		if fresh {
			return storage.Float(float64(g.fresh) + 0.5)
		}
		return storage.Float([]float64{0, -2.5, 3.25, 1e300, math.SmallestNonzeroFloat64}[g.rng.Intn(5)])
	default:
		if fresh {
			// Up to 60 bytes, so that keys end anywhere in a cache line.
			return storage.Str(fmt.Sprintf("u%0*d", 1+g.rng.Intn(60), g.fresh))
		}
		return storage.Str([]string{"", "a", "bb", "tag-0", "tag-1", strings.Repeat("x", 150)}[g.rng.Intn(6)])
	}
}

func (g *gen) newVersion(gt genTable, key int64) version {
	vals := make([]storage.Value, len(gt.cols))
	vals[0] = storage.Int(key)
	for c := 1; c < len(vals); c++ {
		vals[c] = g.value(gt.cols[c].Type)
	}
	for _, c := range gt.indexedCols() {
		if g.used[gt.name][c] == nil {
			g.used[gt.name][c] = map[string]storage.Value{}
		}
		g.used[gt.name][c][string(vals[c].EncodeKey(nil))] = vals[c]
	}
	g.nextVer++
	return version{vals: vals, ver: g.nextVer}
}

func (t *genTxn) put(name string, key int64, v version) {
	if t.ins[name] == nil {
		t.ins[name] = tableState{}
	}
	t.ins[name][key] = v
	t.view[name][key] = v
}

func (g *gen) insert(t *genTxn) error {
	gt := genTables[g.rng.Intn(len(genTables))]
	g.nextKey++
	v := g.newVersion(gt, g.nextKey)
	g.attempt, g.attemptTable = &v, gt
	if _, err := t.tx.Insert(g.tables[gt.name], v.vals); err != nil {
		return err
	}
	g.attempt = nil
	t.put(gt.name, g.nextKey, v)
	return nil
}

func sortedKeys(rows tableState) []int64 {
	keys := make([]int64, 0, len(rows))
	for k := range rows {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// mutate updates or deletes a row t can see. The model knows whether the
// engine must refuse: the version was replaced by a commit after t's
// snapshot, or the other open transaction holds it.
func (g *gen) mutate(t *genTxn, update bool) error {
	gt := genTables[g.rng.Intn(len(genTables))]
	keys := sortedKeys(t.view[gt.name])
	if len(keys) == 0 {
		return nil
	}
	key := keys[g.rng.Intn(len(keys))]
	target := t.view[gt.name][key]
	tbl := g.tables[gt.name]
	rows, err := t.tx.Select(context.Background(), tbl,
		exec.Pred{Col: 0, Op: exec.Eq, Val: storage.Int(key)})
	if err != nil {
		return err
	}
	if len(rows) != 1 {
		return fmt.Errorf("table %s key %d: %d rows visible to its transaction, want 1", gt.name, key, len(rows))
	}

	own := t.ins[gt.name][key].ver == target.ver
	wantConflict := false
	if !own {
		wantConflict = g.committed[gt.name][key].ver != target.ver
		for _, o := range g.open {
			if _, held := o.del[gt.name][key]; held && o != t {
				wantConflict = true
			}
		}
	}
	var next version
	if update {
		next = g.newVersion(gt, key)
		g.attempt, g.attemptTable = &next, gt
		_, err = t.tx.Update(tbl, rows[0], next.vals)
		g.attempt = nil
	} else {
		err = t.tx.Delete(tbl, rows[0])
	}
	switch {
	case wantConflict && errors.Is(err, txn.ErrConflict):
		return nil
	case wantConflict:
		return fmt.Errorf("table %s key %d: write to a version another transaction replaced or holds returned %v, want a conflict", gt.name, key, err)
	case err != nil:
		return err
	}
	if own {
		delete(t.ins[gt.name], key)
	} else {
		if t.del[gt.name] == nil {
			t.del[gt.name] = map[int64]uint64{}
		}
		t.del[gt.name][key] = target.ver
	}
	delete(t.view[gt.name], key)
	if update {
		t.put(gt.name, key, next)
	}
	return nil
}

func (g *gen) commit(t *genTxn) error {
	g.inflight = []*genTxn{t}
	if err := t.tx.Commit(); err != nil {
		return err
	}
	g.acknowledged()
	return nil
}

func (g *gen) commitGroup() error {
	g.inflight = append([]*genTxn(nil), g.open...)
	txs := make([]*shard.Tx, len(g.inflight))
	for i, t := range g.inflight {
		txs[i] = t.tx
	}
	if err := commitGroup(g.e, txs); err != nil {
		return err
	}
	g.acknowledged()
	return nil
}

func (g *gen) acknowledged() {
	for _, t := range g.inflight {
		t.applyTo(g.committed)
		g.closeTxn(t)
	}
	g.inflight = nil
}

func (g *gen) abort(t *genTxn) error {
	g.closeTxn(t)
	return t.tx.Abort()
}

// readTable returns what tx sees of tbl, by key.
func readTable(tx *shard.Tx, tbl *shard.Table) (map[int64][]storage.Value, error) {
	rows, err := tx.Select(context.Background(), tbl)
	if err != nil {
		return nil, err
	}
	got := make(map[int64][]storage.Value, len(rows))
	for _, r := range rows {
		vals := make([]storage.Value, tbl.Schema.NumCols())
		for c := range vals {
			vals[c] = tbl.Value(c, r)
		}
		if _, dup := got[vals[0].I]; dup {
			return nil, fmt.Errorf("table %s: key %d visible twice", tbl.Name, vals[0].I)
		}
		got[vals[0].I] = vals
	}
	return got, nil
}

// diff describes the first difference between what was read and what the
// model holds, or returns "".
func diff(got map[int64][]storage.Value, want tableState) string {
	for k, v := range want {
		g, ok := got[k]
		if !ok {
			return fmt.Sprintf("key %d is missing", k)
		}
		for c := range v.vals {
			if !g[c].Equal(v.vals[c]) {
				return fmt.Sprintf("key %d column %d reads %v, want %v", k, c, g[c], v.vals[c])
			}
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			return fmt.Sprintf("key %d is visible and should not be", k)
		}
	}
	return ""
}

// checkIndexes asks every index of the table for every value the
// workload ever wrote to its column; each answer must be exactly the
// visible rows that carry the value.
func (g *gen) checkIndexes(tx *shard.Tx, gt genTable, tbl *shard.Table, want map[int64][]storage.Value) error {
	for _, c := range gt.indexedCols() {
		for _, val := range g.used[gt.name][c] {
			rows, err := tx.Select(context.Background(), tbl, exec.Pred{Col: c, Op: exec.Eq, Val: val})
			if err != nil {
				return err
			}
			found := map[int64]bool{}
			for _, r := range rows {
				key := tbl.Value(0, r).I
				if found[key] {
					return fmt.Errorf("table %s: index on column %d returns key %d twice for %v", gt.name, c, key, val)
				}
				found[key] = true
			}
			for k, vals := range want {
				if vals[c].Equal(val) != found[k] {
					return fmt.Errorf("table %s: index on column %d for %v: key %d found=%v, want %v",
						gt.name, c, val, k, found[k], !found[k])
				}
			}
			if len(found) > len(want) {
				return fmt.Errorf("table %s: index on column %d returns rows that are not visible for %v", gt.name, c, val)
			}
		}
	}
	return nil
}

// checkReads compares everything tx can read with the model.
func (g *gen) checkReads(tx *shard.Tx, want dbState) error {
	for _, gt := range genTables {
		got, err := readTable(tx, g.tables[gt.name])
		if err != nil {
			return err
		}
		if d := diff(got, want[gt.name]); d != "" {
			return fmt.Errorf("table %s: %s", gt.name, d)
		}
		if err := g.checkIndexes(tx, gt, g.tables[gt.name], got); err != nil {
			return err
		}
	}
	return nil
}

// verify checks a recovered engine against the model as the power cut
// froze it: every table equals the acknowledged state, or every table
// equals that plus all of the commit in flight; every index agrees; and
// the database takes the lost writes again.
func (g *gen) verify(e *shard.Engine) error {
	outcomes := []dbState{g.committed}
	if len(g.inflight) > 0 {
		after := g.committed.clone()
		for _, t := range g.inflight {
			t.applyTo(after)
		}
		outcomes = append(outcomes, after)
	}
	g.tables = map[string]*shard.Table{}
	rd := e.Begin()
	got := map[string]map[int64][]storage.Value{}
	for _, gt := range genTables {
		tbl, err := e.Table(gt.name)
		if err != nil {
			// The cut fell inside table creation, before any transaction.
			if len(outcomes) > 1 || len(g.committed[gt.name]) > 0 {
				return fmt.Errorf("table %s lost with committed rows", gt.name)
			}
			continue
		}
		g.tables[gt.name] = tbl
		if got[gt.name], err = readTable(rd, tbl); err != nil {
			return err
		}
	}
	applied := -1
	var why string
	for i, want := range outcomes {
		why = ""
		for name := range g.tables {
			if d := diff(got[name], want[name]); d != "" {
				why = fmt.Sprintf("table %s: %s", name, d)
				break
			}
		}
		if why == "" {
			applied = i
			break
		}
	}
	if applied < 0 {
		return fmt.Errorf("recovered state matches neither the acknowledged commits nor those plus the commit in flight (%s)", why)
	}
	for _, gt := range genTables {
		if tbl := g.tables[gt.name]; tbl != nil {
			if err := g.checkIndexes(rd, gt, tbl, got[gt.name]); err != nil {
				return err
			}
		}
	}
	return g.probe(e, outcomes[applied].clone(), applied == 0)
}

// probe writes to the recovered database what the cut was writing — the
// rows of a commit that was lost, the row whose append was under way —
// under the same keys where those are free, so that a dictionary or
// index entry the cut left behind is hit by its own value, plus one
// fresh row per table; commits; and checks reads, indexes and the fsck
// once more.
func (g *gen) probe(e *shard.Engine, want dbState, lost bool) error {
	t := &genTxn{tx: e.Begin(), view: want, ins: map[string]tableState{}}
	add := func(gt genTable, v version) error {
		if tbl := g.tables[gt.name]; tbl != nil {
			if _, err := t.tx.Insert(tbl, v.vals); err != nil {
				return fmt.Errorf("probe insert: %w", err)
			}
			t.put(gt.name, v.vals[0].I, v)
		}
		return nil
	}
	again := func(gt genTable, v version) error {
		if _, taken := want[gt.name][v.vals[0].I]; taken {
			g.nextKey++
			v.vals = append([]storage.Value{storage.Int(g.nextKey)}, v.vals[1:]...)
		}
		return add(gt, v)
	}
	if g.attempt != nil {
		if err := again(g.attemptTable, *g.attempt); err != nil {
			return err
		}
	}
	for _, gt := range genTables {
		if lost {
			for _, cut := range g.inflight {
				for _, k := range sortedKeys(cut.ins[gt.name]) {
					if err := again(gt, cut.ins[gt.name][k]); err != nil {
						return err
					}
				}
			}
		}
		g.nextKey++
		if err := add(gt, g.newVersion(gt, g.nextKey)); err != nil {
			return err
		}
	}
	if err := t.tx.Commit(); err != nil {
		return fmt.Errorf("probe commit: %w", err)
	}
	rd := e.Begin()
	for _, gt := range genTables {
		tbl := g.tables[gt.name]
		if tbl == nil {
			continue
		}
		got, err := readTable(rd, tbl)
		if err != nil {
			return err
		}
		if d := diff(got, want[gt.name]); d != "" {
			return fmt.Errorf("after the probe, table %s: %s", gt.name, d)
		}
		if err := g.checkIndexes(rd, gt, tbl, got); err != nil {
			return fmt.Errorf("after the probe: %w", err)
		}
	}
	if err := e.Fsck(); err != nil {
		return fmt.Errorf("fsck after the probe: %w", err)
	}
	return nil
}
