// Package publishcheck enforces the NVM crash-consistency discipline:
// every mutation of NVM-resident state must be flushed and fenced
// before anything makes it reachable. A store that makes an object
// newly reachable from NVM-resident state (a *publication*) must be
// dominated, on every path, by flush+fence of that object's dirty
// fields.
//
// The analysis reasons about the abstract objects of the points-to
// layer (internal/analysis/ptr). The fact lattice maps each abstract
// object to its durability state
//
//	dirty -> flushed -> persisted
//
// with may-semantics for dirty/flushed (join = union, keeping the first
// write site) and must-semantics for persisted/fenced (join =
// intersection/conjunction). Because writes, flushes and persists are
// applied to the points-to set of their address expression, a write
// through any alias — a derived slice, an interface method, a stored
// function value, a pointer loaded back out of the heap — lands on the
// same abstract object the later persist or publication names.
//
// Publications are:
//
//   - Heap.SetRoot: everything reachable from the published pointer
//     becomes visible to recovery;
//   - Heap.CasU64: a compare-and-swap of a persistent word is a
//     linearization point whatever the type of its new value, so it
//     publishes every object with a pending write;
//   - a store (Heap.SetU64/SetU32/PutU64/PutU32) whose target may be an
//     already-published block and whose value carries heap objects: the
//     pointee becomes reachable from the persisted root through the
//     target;
//   - a call of an in-package function that publishes (summaries carry
//     the published object set to the caller);
//   - a call, across a package boundary, of a publish half of the
//     engine's two-half mutation protocol (see below).
//
// The storage layers mutate NVM in two halves (package pstruct): a
// Stage* half writes and flushes bytes nothing reaches yet, a Publish*
// half stores and flushes the word that makes them reachable, neither
// fences, and the caller fences between and after them. Inside the
// package that implements a half the analysis sees its real stores and
// flushes. From another package — summaries do not cross packages — the
// halves are recognized by name, like the Persist* and Flush* families,
// and modeled on two pseudo-objects: a Stage* call (or Arena.Alloc,
// which flushes its cursor) leaves "lines staged for publication"
// flushed and unfenced; a Publish* call publishes them, which is a
// finding while they are pending, and leaves "publish words" flushed and
// unfenced on state recovery can reach. One Heap.Fence settles both.
// That is enough to approve stage, fence, publish, fence across any
// number of structures and to flag a publish that runs ahead of the
// stage fence, without knowing which structure is which.
//
// At each publication every reachable object with a pending (dirty or
// flushed-but-unfenced) write is reported, naming both the publication
// and the unflushed write. A return is reported the same way when it
// leaves a pending write on an object that is statically reachable
// from the persisted root, or on a block allocated in the package that
// it hands back through its results — the constructor shape, whose
// caller links the block and so publishes it torn. Returns that propagate a
// non-nil error are exempt: the construction is abandoned and the
// scavenger reclaims it. Fences are global — one Heap.Fence makes every
// flushed object durable, matching the hardware's sfence semantics.
//
// Two waivers lift the return obligation:
//
//   - a //nvm:nopersist <reason> annotation in the function's doc
//     comment, for deferred-durability contracts such as group-commit
//     batching. The reason is mandatory, and an annotation the
//     analysis proves to have no effect is itself reported, so
//     obsolete annotations cannot accumulate;
//   - a package-private function (unexported name, or a method on an
//     unexported type) with at least one in-package caller transfers
//     the obligation to its callers through its summary. Exported
//     functions keep it: external callers can only learn the contract
//     from the doc comment.
//
// Package nvm is exempt: it is the trusted base layer defining the
// barrier primitives.
package publishcheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"hyrisenv/internal/analysis"
	"hyrisenv/internal/analysis/cfg"
	"hyrisenv/internal/analysis/dataflow"
	"hyrisenv/internal/analysis/ptr"
	"hyrisenv/internal/analysis/summary"
)

// Analyzer is the publishcheck analysis.
var Analyzer = &analysis.Analyzer{
	Name: "publishcheck",
	Doc:  "objects must be flushed and fenced before a store publishes them from NVM-resident state",
	Run:  run,
}

// protocolPkgs are the packages (by name, as everywhere in this suite)
// whose Stage*/Publish* functions and methods are the two halves of the
// mutation protocol.
var protocolPkgs = map[string]bool{
	"pstruct": true, "vec": true, "mvcc": true, "index": true, "storage": true,
}

// The pseudo-objects of the two-half protocol. Their IDs are negative so
// that they can share the fact maps with the points-to graph's objects.
var (
	stagedObj    = &ptr.Obj{ID: -1, Label: "lines staged for publication"}
	publishWords = &ptr.Obj{ID: -2, Label: "publish words", Published: true}
)

// objOf resolves an object ID of a fact map: a pseudo-object or one of
// g's.
func objOf(g *ptr.Graph, id int) *ptr.Obj {
	switch id {
	case stagedObj.ID:
		return stagedObj
	case publishWords.ID:
		return publishWords
	}
	return g.Obj(id)
}

// halfOf classifies a call that resolved to no in-package callee as a
// half of the two-half protocol, by the name and declaring package of
// what it calls.
func halfOf(pass *analysis.Pass, call *ast.CallExpr) (stage, publish bool) {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return false, false
	}
	fn, ok := pass.Info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg() == pass.Pkg || !protocolPkgs[fn.Pkg().Name()] {
		return false, false
	}
	name := fn.Name()
	if recv := analysis.ReceiverType(pass.Info, call); name == "Alloc" && recv != nil && analysis.NamedFrom(recv, "pstruct", "Arena") {
		return true, false
	}
	return strings.HasPrefix(name, "Stage"), strings.HasPrefix(name, "Publish")
}

// ---------------------------------------------------------------------------
// The persist vocabulary and the waivers.

// heapWriteNames are the nvm.Heap methods that store to the mapping.
var heapWriteNames = map[string]bool{
	"SetU64": true, "PutU64": true, "PutU32": true, "SetU32": true,
}

// flushAtNames are the per-element flush methods (pstruct vectors, MVCC
// stamp stores). Unlike "Flush" the names are unambiguous, so they are
// matched on any receiver; plain Flush/FlushBytes require a Heap
// receiver to avoid classifying bufio.Writer.Flush as an NVM event.
var flushAtNames = map[string]bool{
	"FlushAt": true, "FlushBegin": true, "FlushEnd": true,
}

// sliceMutators are package-level functions known to write through a
// slice argument (pstruct.PackBits, the writer of the bit-sliced format).
var sliceMutators = map[string]bool{
	"PackBits": true,
}

// nopersist reports whether fn carries a //nvm:nopersist annotation and
// whether it has the mandatory reason.
func nopersist(fn *ast.FuncDecl) (annotated, reasoned bool) {
	if fn.Doc == nil {
		return false, false
	}
	for _, c := range fn.Doc.List {
		if rest, ok := strings.CutPrefix(c.Text, "//nvm:nopersist"); ok {
			return true, strings.TrimSpace(rest) != ""
		}
	}
	return false, false
}

// pkgPrivate reports whether fn is invisible outside its package: an
// unexported function, or a method whose receiver type is unexported.
func pkgPrivate(obj *types.Func, fn *ast.FuncDecl) bool {
	if !fn.Name.IsExported() {
		return true
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	for {
		p, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return !n.Obj().Exported()
	}
	return false
}

var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// isErrorReturn reports whether ret propagates a (possibly) non-nil
// error — an abort path on which nothing written becomes reachable.
// `return nil` / `return x, nil` do not qualify: they are the success
// path and keep the return-obligation.
func isErrorReturn(info *types.Info, ret *ast.ReturnStmt) bool {
	for _, res := range ret.Results {
		if id, ok := res.(*ast.Ident); ok && id.Name == "nil" {
			continue
		}
		t := info.TypeOf(res)
		if t != nil && types.Implements(t, errorIface) {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// The per-object fact lattice.

// A write is one pending NVM mutation of one abstract object.
type write struct {
	pos  token.Pos
	what string
}

// ofact maps abstract-object IDs to their durability state. nil is the
// lattice bottom ("unvisited"). Facts are immutable.
type ofact struct {
	dirty   map[int]write // may be written and unflushed
	flushed map[int]write // may be flushed but unfenced
	// persisted objects were made durable on every path (must-set).
	persisted map[int]bool
	// fenced is true when every path has executed a fence.
	fenced bool
}

func cloneWrites(m map[int]write) map[int]write {
	out := make(map[int]write, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func (f *ofact) clone() *ofact {
	if f == nil {
		return &ofact{dirty: map[int]write{}, flushed: map[int]write{}, persisted: map[int]bool{}}
	}
	p := make(map[int]bool, len(f.persisted))
	for k, v := range f.persisted {
		p[k] = v
	}
	return &ofact{dirty: cloneWrites(f.dirty), flushed: cloneWrites(f.flushed), persisted: p, fenced: f.fenced}
}

var lattice = dataflow.Lattice[*ofact]{
	Bottom: func() *ofact { return nil },
	Join: func(a, b *ofact) *ofact {
		if a == nil {
			return b
		}
		if b == nil {
			return a
		}
		out := a.clone()
		for id, w := range b.dirty {
			if have, ok := out.dirty[id]; !ok || w.pos < have.pos {
				out.dirty[id] = w
			}
		}
		for id, w := range b.flushed {
			if have, ok := out.flushed[id]; !ok || w.pos < have.pos {
				out.flushed[id] = w
			}
		}
		for id := range out.persisted {
			if !b.persisted[id] {
				delete(out.persisted, id)
			}
		}
		out.fenced = a.fenced && b.fenced
		return out
	},
	Equal: func(a, b *ofact) bool {
		if (a == nil) != (b == nil) {
			return false
		}
		if a == nil {
			return true
		}
		if a.fenced != b.fenced || len(a.dirty) != len(b.dirty) ||
			len(a.flushed) != len(b.flushed) || len(a.persisted) != len(b.persisted) {
			return false
		}
		for id, w := range a.dirty {
			if b.dirty[id] != w {
				return false
			}
		}
		for id, w := range a.flushed {
			if b.flushed[id] != w {
				return false
			}
		}
		for id := range a.persisted {
			if !b.persisted[id] {
				return false
			}
		}
		return true
	},
}

// ---------------------------------------------------------------------------
// Events.

type evKind int

const (
	evWrite evKind = iota
	evFlush
	evPersist
	evFence
	evPublish
	evCall
)

// An event is one durability-relevant effect of a call. objs carries
// the target objects (nil on evFlush/evPersist means "address unknown —
// apply to everything", so unresolved pointers cannot launder a missed
// clear; an evWrite with no objects is not tracked).
type event struct {
	kind evKind
	what string
	objs []*ptr.Obj
	// all marks an evPublish of every object with a pending write.
	all   bool
	sum   *osum        // evCall
	bound map[int]bool // evCall: the externs its arguments and receiver point to
	pos   token.Pos
}

// osum is the per-object durability summary of one function.
type osum struct {
	dirty     map[int]bool
	flushed   map[int]bool
	persists  map[int]bool // persisted on every path
	fences    bool         // fences on every path
	publishes map[int]bool // objects (transitively) published by the function
	seeds     map[int]bool // externs its parameters and receiver are seeded with
}

func newOsum() *osum {
	return &osum{dirty: map[int]bool{}, flushed: map[int]bool{}, persists: map[int]bool{}, publishes: map[int]bool{}}
}

func sameSet(a, b map[int]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

func (s *osum) equal(t *osum) bool {
	if (s == nil) != (t == nil) {
		return false
	}
	if s == nil {
		return true
	}
	return s.fences == t.fences && sameSet(s.dirty, t.dirty) && sameSet(s.flushed, t.flushed) &&
		sameSet(s.persists, t.persists) && sameSet(s.publishes, t.publishes)
}

// eventsOf classifies one call into its durability events, in
// application order.
func eventsOf(pass *analysis.Pass, g *ptr.Graph, call *ast.CallExpr, sums map[*types.Func]*osum) []event {
	name, pkgName := analysis.CalleeName(pass.Info, call)
	recv := analysis.ReceiverType(pass.Info, call)
	onHeap := recv != nil && analysis.NamedFrom(recv, "nvm", "Heap")
	arg := func(i int) ast.Expr {
		if i < len(call.Args) {
			return call.Args[i]
		}
		return nil
	}
	recvExpr := func() ast.Expr {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			return sel.X
		}
		return nil
	}

	switch {
	case onHeap && name == "SetRoot":
		var pub []*ptr.Obj
		for _, a := range call.Args {
			if t := pass.Info.TypeOf(a); t != nil && analysis.NamedFrom(t, "nvm", "PPtr") {
				pub = append(pub, g.PublishReach(g.PointsTo(a))...)
			}
		}
		return []event{{kind: evPublish, what: "Heap.SetRoot", objs: pub, pos: call.Pos()}}
	case onHeap && name == "CasU64":
		// The new value is often a bare uint64 that carries no objects,
		// so the swap publishes everything pending; like SetRoot's slot,
		// the swapped word itself is not tracked as a write.
		return []event{{kind: evPublish, what: "Heap.CasU64", all: true, pos: call.Pos()}}
	case onHeap && heapWriteNames[name]:
		evs := []event{}
		// A store of a pointer-carrying value into an already-published
		// block is a publication of everything the value reaches — except
		// the target itself: with flow-insensitive field contents, the
		// value of an init-sequence store often reads back as the block
		// under construction, and "storing into X publishes X" would
		// flag every correct init-persist-link sequence.
		if targets := g.PointsTo(arg(0)); anyPublished(targets) {
			if pub := minusTargets(g.PublishReach(g.PointsTo(arg(1))), targets); len(pub) > 0 {
				evs = append(evs, event{kind: evPublish, what: "Heap." + name, objs: pub, pos: call.Pos()})
			}
		}
		evs = append(evs, event{kind: evWrite, what: "Heap." + name, objs: g.PointsTo(arg(0)), pos: call.Pos()})
		return evs
	case analysis.PersistNames[name]:
		var objs []*ptr.Obj
		switch name {
		case "Persist", "PersistBytes":
			if onHeap {
				objs = g.PointsTo(arg(0))
			} else {
				objs = g.PointsTo(recvExpr())
			}
		default: // PersistAt / PersistRange / PersistBegin / PersistEnd
			objs = g.PointsTo(recvExpr())
		}
		return []event{{kind: evPersist, what: name, objs: objs, pos: call.Pos()}}
	case name == "SetNoPersist":
		return []event{{kind: evWrite, what: "SetNoPersist", objs: g.PointsTo(recvExpr()), pos: call.Pos()}}
	case onHeap && (name == "Flush" || name == "FlushBytes"):
		return []event{{kind: evFlush, what: "Heap." + name, objs: g.PointsTo(arg(0)), pos: call.Pos()}}
	case flushAtNames[name]:
		return []event{{kind: evFlush, what: name, objs: g.PointsTo(recvExpr()), pos: call.Pos()}}
	case onHeap && (name == "Fence" || name == "Drain"):
		return []event{{kind: evFence, what: "Heap." + name, pos: call.Pos()}}
	case (name == "copy" || name == "clear") && pkgName == "" && len(call.Args) > 0:
		if g.NVMSlice(call.Args[0]) {
			return []event{{kind: evWrite, what: name + " into Heap.Bytes", objs: nvmOnly(g.PointsTo(call.Args[0])), pos: call.Pos()}}
		}
		return nil
	case sliceMutators[name]:
		for _, a := range call.Args {
			if g.NVMSlice(a) {
				return []event{{kind: evWrite, what: name + " into Heap.Bytes", objs: nvmOnly(g.PointsTo(a)), pos: call.Pos()}}
			}
		}
		return nil
	}

	// In-package callees — static or resolved through the points-to
	// callgraph (interface dispatch, function values) — contribute
	// their object summaries.
	var evs []event
	for _, callee := range g.Callees(call) {
		if s, ok := sums[callee]; ok {
			evs = append(evs, event{kind: evCall, what: "call of " + callee.Name(), sum: s, bound: boundExterns(g, call, recvExpr()), pos: call.Pos()})
		}
	}
	if len(evs) > 0 {
		return evs
	}
	what := "call of " + name
	switch stage, publish := halfOf(pass, call); {
	case stage:
		staged := []*ptr.Obj{stagedObj}
		return []event{
			{kind: evWrite, what: what, objs: staged, pos: call.Pos()},
			{kind: evFlush, what: what, objs: staged, pos: call.Pos()},
		}
	case publish:
		words := []*ptr.Obj{publishWords}
		return []event{
			{kind: evPublish, what: what, objs: []*ptr.Obj{stagedObj}, pos: call.Pos()},
			{kind: evWrite, what: what, objs: words, pos: call.Pos()},
			{kind: evFlush, what: what, objs: words, pos: call.Pos()},
		}
	}
	return nil
}

// boundExterns returns the externs a call's arguments and receiver
// point to.
func boundExterns(g *ptr.Graph, call *ast.CallExpr, recv ast.Expr) map[int]bool {
	bound := map[int]bool{}
	for _, e := range append([]ast.Expr{recv}, call.Args...) {
		for _, o := range g.PointsTo(e) {
			if o.Kind == ptr.Extern {
				bound[o.ID] = true
			}
		}
	}
	return bound
}

func anyPublished(objs []*ptr.Obj) bool {
	for _, o := range objs {
		if o.Published {
			return true
		}
	}
	return false
}

// minusTargets removes the store's own target objects from a published
// set: a store into X never newly publishes X through itself.
func minusTargets(pub, targets []*ptr.Obj) []*ptr.Obj {
	drop := map[int]bool{}
	for _, t := range targets {
		drop[t.ID] = true
	}
	out := pub[:0:0]
	for _, o := range pub {
		if !drop[o.ID] {
			out = append(out, o)
		}
	}
	return out
}

func nvmOnly(objs []*ptr.Obj) []*ptr.Obj {
	out := objs[:0:0]
	for _, o := range objs {
		if o.NVM {
			out = append(out, o)
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Transfer.

// apply folds one event into the fact. Publications only mutate state
// here; reporting happens in the dedicated pass that re-walks the facts.
// imp is the calling function's importable-extern set: pending writes a
// callee summary carries on extern objects outside it are dropped, and
// so are those on the callee's parameter seeds that the call site's
// arguments do not point to (see funcInfo.imp).
func apply(g *ptr.Graph, imp map[int]bool, f *ofact, ev event) *ofact {
	out := f.clone()
	switch ev.kind {
	case evWrite:
		if ev.objs == nil {
			return out // untracked write
		}
		for _, o := range ev.objs {
			if _, ok := out.dirty[o.ID]; !ok {
				out.dirty[o.ID] = write{pos: ev.pos, what: ev.what}
			}
			delete(out.persisted, o.ID)
		}
	case evFlush:
		if len(ev.objs) == 0 {
			// Address unknown: flush everything, the v2 rule.
			for id, w := range out.dirty {
				if _, ok := out.flushed[id]; !ok {
					out.flushed[id] = w
				}
				delete(out.dirty, id)
			}
			return out
		}
		for _, o := range ev.objs {
			if w, ok := out.dirty[o.ID]; ok {
				if _, had := out.flushed[o.ID]; !had {
					out.flushed[o.ID] = w
				}
				delete(out.dirty, o.ID)
			}
		}
	case evPersist:
		if len(ev.objs) == 0 {
			// Address unknown: a persist clears every pending write —
			// anything else would invent findings the code discharges.
			out.dirty = map[int]write{}
			out.flushed = map[int]write{}
			return out
		}
		for _, o := range ev.objs {
			delete(out.dirty, o.ID)
			delete(out.flushed, o.ID)
			out.persisted[o.ID] = true
		}
	case evFence:
		out.flushed = map[int]write{}
		out.fenced = true
	case evPublish:
		if ev.all {
			out.dirty = map[int]write{}
			out.flushed = map[int]write{}
		}
		for _, o := range ev.objs {
			delete(out.dirty, o.ID)
			delete(out.flushed, o.ID)
		}
	case evCall:
		s := ev.sum
		if s.fences {
			out.flushed = map[int]write{}
			out.fenced = true
		}
		for id := range s.persists {
			delete(out.dirty, id)
			delete(out.flushed, id)
			out.persisted[id] = true
		}
		for id := range s.publishes {
			delete(out.dirty, id)
			delete(out.flushed, id)
		}
		importable := func(id int) bool {
			o := objOf(g, id)
			return o == nil || o.Kind != ptr.Extern || imp[id] && (!s.seeds[id] || ev.bound[id])
		}
		for id := range s.dirty {
			if !importable(id) {
				continue
			}
			if _, ok := out.dirty[id]; !ok {
				out.dirty[id] = write{pos: ev.pos, what: ev.what}
			}
			delete(out.persisted, id)
		}
		for id := range s.flushed {
			if !importable(id) {
				continue
			}
			if _, ok := out.flushed[id]; !ok {
				out.flushed[id] = write{pos: ev.pos, what: ev.what}
			}
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Driver.

type funcInfo struct {
	decl  *ast.FuncDecl
	graph *cfg.Graph
	// imp is the set of extern-object IDs this function may import from
	// callee summaries: the externs reachable from its own parameters
	// and receiver. A callee's parameter-seed externs stand for that
	// callee's *unknown* callers; at a known call site the actual
	// arguments are bound into the callee's points-to sets, so dirt on
	// an extern the caller cannot name through its own parameters is
	// residue it could never discharge — importing it only manufactures
	// false positives at the caller's returns. Site-specific objects
	// (blocks, composites) always import.
	//
	// An extern the callee's own parameters are seeded with imports only
	// where the call site's arguments or receiver point to it. Externs
	// are shared per type, so the nvm.PPtr extern seeds every PPtr
	// parameter and is reachable from nearly every receiver: without
	// this rule a helper that writes through a PPtr parameter charges
	// every caller with that extern, although the caller wrote through,
	// and flushed, an address of its own.
	imp   map[int]bool
	seeds map[int]bool // osum.seeds
}

func run(pass *analysis.Pass) error {
	if pass.Pkg.Name() == "nvm" {
		return nil
	}
	g := ptr.Of(pass)
	fns := summary.Functions(pass)
	infos := map[*types.Func]*funcInfo{}
	for obj, fd := range fns {
		info := &funcInfo{decl: fd, graph: cfg.New(fd.Body), imp: map[int]bool{}, seeds: map[int]bool{}}
		sig := obj.Type().(*types.Signature)
		var seeds []*ptr.Obj
		if r := sig.Recv(); r != nil {
			seeds = append(seeds, g.PointsToObj(r)...)
		}
		for i := 0; i < sig.Params().Len(); i++ {
			seeds = append(seeds, g.PointsToObj(sig.Params().At(i))...)
		}
		for _, o := range seeds {
			if o.Kind == ptr.Extern {
				info.seeds[o.ID] = true
			}
		}
		for _, o := range g.Reachable(seeds) {
			info.imp[o.ID] = true
		}
		infos[obj] = info
	}

	// Bottom-up object summaries over the package callgraph, iterated
	// to a fixpoint so recursion converges.
	sums := map[*types.Func]*osum{}
	const maxRounds = 10
	for round := 0; round < maxRounds; round++ {
		changed := false
		for obj, info := range infos {
			s := summarize(pass, g, info, sums)
			if !s.equal(sums[obj]) {
				sums[obj] = s
				changed = true
			}
		}
		if !changed {
			break
		}
	}

	// Caller counts gate the obligation-shift waiver. summary.Callers
	// sees static calls and function-value references; the points-to
	// callgraph adds call sites resolved through interface dispatch and
	// stored function values, so a helper invoked only dynamically still
	// transfers its obligation instead of being reported at its return.
	callers := summary.Callers(pass, fns)
	for caller, info := range infos {
		analysis.ForEachCall(info.decl.Body, func(call *ast.CallExpr) {
			for _, callee := range g.Callees(call) {
				if callee == caller {
					continue
				}
				if _, inPkg := infos[callee]; inPkg {
					callers[callee]++
				}
			}
		})
	}

	for obj, info := range infos {
		checkFunc(pass, g, obj, info, sums, callers[obj])
	}
	return nil
}

func analyze(pass *analysis.Pass, g *ptr.Graph, info *funcInfo, sums map[*types.Func]*osum) *dataflow.Result[*ofact] {
	transfer := func(n ast.Node, in *ofact) *ofact {
		if _, ok := n.(*ast.DeferStmt); ok {
			return in
		}
		f := in
		analysis.ForEachCall(n, func(call *ast.CallExpr) {
			for _, ev := range eventsOf(pass, g, call, sums) {
				f = apply(g, info.imp, f, ev)
			}
		})
		return f
	}
	return dataflow.Forward(info.graph, lattice, (&ofact{}).clone(), transfer)
}

// applyDefers folds deferred calls (LIFO) into the return fact.
// Publications inside defers report in the defer's own walk, so only
// state effects apply here.
func applyDefers(pass *analysis.Pass, g *ptr.Graph, info *funcInfo, sums map[*types.Func]*osum, f *ofact) *ofact {
	for i := len(info.graph.Defers) - 1; i >= 0; i-- {
		for _, ev := range eventsOf(pass, g, info.graph.Defers[i].Call, sums) {
			if ev.kind == evPublish {
				continue
			}
			f = apply(g, info.imp, f, ev)
		}
	}
	return f
}

// forEachReturn visits every return with the fact it returns under: the
// fact before it, then the calls in its results — `return build(h)`
// hands back what build left pending — then the deferred calls.
func forEachReturn(pass *analysis.Pass, g *ptr.Graph, info *funcInfo, sums map[*types.Func]*osum, res *dataflow.Result[*ofact], visit func(*ast.ReturnStmt, *ofact)) {
	res.NodeFacts(info.graph, func(n ast.Node, before *ofact) {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return
		}
		f := before
		if f != nil {
			analysis.ForEachCall(ret, func(call *ast.CallExpr) {
				for _, ev := range eventsOf(pass, g, call, sums) {
					f = apply(g, info.imp, f, ev)
				}
			})
		}
		visit(ret, applyDefers(pass, g, info, sums, f))
	})
}

// summarize computes one function's object summary under the current
// (possibly still converging) summary map.
func summarize(pass *analysis.Pass, g *ptr.Graph, info *funcInfo, sums map[*types.Func]*osum) *osum {
	res := analyze(pass, g, info, sums)
	s := newOsum()
	s.seeds = info.seeds
	s.fences = true
	first := true
	returns := 0
	forEachReturn(pass, g, info, sums, res, func(ret *ast.ReturnStmt, f *ofact) {
		returns++
		if f == nil {
			f = (&ofact{}).clone()
		}
		if !isErrorReturn(pass.Info, ret) {
			for id := range f.dirty {
				s.dirty[id] = true
			}
			for id := range f.flushed {
				s.flushed[id] = true
			}
		}
		if first {
			for id := range f.persisted {
				s.persists[id] = true
			}
			s.fences = f.fenced
			first = false
		} else {
			for id := range s.persists {
				if !f.persisted[id] {
					delete(s.persists, id)
				}
			}
			s.fences = s.fences && f.fenced
		}
	})
	if returns == 0 {
		s.fences = false
		s.persists = map[int]bool{}
	}
	// Publications — own and transitive — propagate to callers so a
	// caller's pending object published deep in a callee still reports
	// at the caller's call site.
	for _, fi := range []*funcInfo{info} {
		analysis.ForEachCall(fi.decl.Body, func(call *ast.CallExpr) {
			for _, ev := range eventsOf(pass, g, call, sums) {
				switch ev.kind {
				case evPublish:
					for _, o := range ev.objs {
						s.publishes[o.ID] = true
					}
				case evCall:
					for id := range ev.sum.publishes {
						s.publishes[id] = true
					}
				}
			}
		})
	}
	return s
}

// ---------------------------------------------------------------------------
// Reporting.

func checkFunc(pass *analysis.Pass, g *ptr.Graph, obj *types.Func, info *funcInfo, sums map[*types.Func]*osum, nCallers int) {
	fn := info.decl
	annotated, reasoned := nopersist(fn)
	if annotated && !reasoned {
		pass.Reportf(fn.Pos(), "//nvm:nopersist on %s must carry a reason", fn.Name.Name)
	}
	res := analyze(pass, g, info, sums)

	// Publications: always an error while a reachable object is
	// pending, under any contract.
	res.NodeFacts(info.graph, func(n ast.Node, before *ofact) {
		if _, ok := n.(*ast.DeferStmt); ok {
			return
		}
		f := before
		analysis.ForEachCall(n, func(call *ast.CallExpr) {
			for _, ev := range eventsOf(pass, g, call, sums) {
				switch ev.kind {
				case evPublish:
					reportPublication(pass, g, f, ev)
				case evCall:
					for id := range ev.sum.publishes {
						if w, verb, ok := pendingOf(f, id); ok {
							pass.Reportf(ev.pos,
								"%s publishes %s while its %s at %s is %s",
								ev.what, objOf(g, id).Label, w.what, pass.Fset.Position(w.pos), verb)
						}
					}
				}
				f = apply(g, info.imp, f, ev)
			}
		})
	})

	// Returns: the first non-error return that leaves a write pending on
	// an object recovery can reach once the function is done.
	var (
		dirtyRet *ast.ReturnStmt
		id       int
		w        write
		verb     string
	)
	forEachReturn(pass, g, info, sums, res, func(ret *ast.ReturnStmt, f *ofact) {
		if dirtyRet != nil || f == nil || isErrorReturn(pass.Info, ret) {
			return
		}
		var ok bool
		if id, w, verb, ok = firstExposedPending(g, ret, f); ok {
			dirtyRet = ret
		}
	})
	shifted := pkgPrivate(obj, fn) && nCallers > 0
	switch {
	case dirtyRet != nil && !annotated && !shifted:
		o := objOf(g, id)
		state, where := "unpersisted", "published"
		if verb == "flushed but not fenced" {
			state = "flushed-but-unfenced"
		}
		if !o.Published {
			where = "returned"
		}
		pass.Reportf(dirtyRet.Pos(),
			"function %s returns with %s write to %s %s (%s at %s); persist it or annotate the function with //nvm:nopersist <reason>",
			fn.Name.Name, state, where, o.Label, w.what, pass.Fset.Position(w.pos))
	case annotated && reasoned && (dirtyRet == nil || shifted):
		// The annotation has no effect: the function is clean at every
		// publication and non-error return, or its obligation already
		// falls on in-package callers.
		pass.Reportf(fn.Pos(),
			"//nvm:nopersist on %s is unnecessary: every publication and non-error return is clean, or the obligation falls on its in-package callers; delete the annotation",
			fn.Name.Name)
	}
}

func reportPublication(pass *analysis.Pass, g *ptr.Graph, f *ofact, ev event) {
	// Deterministic order: report the lowest-ID pending object.
	ids := make([]int, 0, len(ev.objs))
	for _, o := range ev.objs {
		ids = append(ids, o.ID)
	}
	if ev.all && f != nil {
		for id := range f.dirty {
			ids = append(ids, id)
		}
		for id := range f.flushed {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	for _, id := range ids {
		if w, verb, ok := pendingOf(f, id); ok {
			pass.Reportf(ev.pos,
				"%s publishes %s while its %s at %s is %s",
				ev.what, objOf(g, id).Label, w.what, pass.Fset.Position(w.pos), verb)
			return // one report per publication
		}
	}
}

func pendingOf(f *ofact, id int) (write, string, bool) {
	if f == nil {
		return write{}, "", false
	}
	if w, ok := f.dirty[id]; ok {
		return w, "not persisted", true
	}
	if w, ok := f.flushed[id]; ok {
		return w, "flushed but not fenced", true
	}
	return write{}, "", false
}

// firstExposedPending returns the earliest pending write at ret on an
// object recovery can reach once the function returns: one statically
// reachable from the persisted root, or a block allocated in the
// package (by the function or by a callee that handed it up) that ret
// hands back.
func firstExposedPending(g *ptr.Graph, ret *ast.ReturnStmt, f *ofact) (int, write, string, bool) {
	returned := map[int]bool{}
	for _, r := range ret.Results {
		for _, o := range g.PublishReach(g.PointsTo(r)) {
			if o.Kind == ptr.Block {
				returned[o.ID] = true
			}
		}
	}
	bestID, bestW, bestVerb, found := 0, write{}, "", false
	consider := func(id int, w write, verb string) {
		if !objOf(g, id).Published && !returned[id] {
			return
		}
		if !found || w.pos < bestW.pos {
			bestID, bestW, bestVerb, found = id, w, verb, true
		}
	}
	for id, w := range f.dirty {
		consider(id, w, "not persisted")
	}
	for id, w := range f.flushed {
		consider(id, w, "flushed but not fenced")
	}
	return bestID, bestW, bestVerb, found
}
