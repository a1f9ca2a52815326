// Package ptr is a package-set Andersen-style points-to analysis for
// the nvmcheck suite: flow-insensitive, field-sensitive, solved to a
// fixpoint over one type-checked package at a time.
//
// The abstract heap distinguishes four origins:
//
//   - Block: an NVM heap block — a Heap.Alloc result, an nvm.Open /
//     nvm.Create mapping, or a PPtr-carrying value entering the package
//     from outside (parameters, external call results). Blocks are the
//     objects whose durability the persist analyzers reason about.
//   - HeapObj: a volatile Go allocation (new, make, composite literal,
//     append backing array).
//   - Frame: an addressed stack slot (&x). Its pointee field is unified
//     with the variable's own node, so *&x == x by construction.
//   - FuncVal: a function value — a named function referenced as a
//     value, a method value with its bound receiver, or a func literal.
//
// Cross-package calls are modeled by intrinsics for the nvm/pstruct API
// (Bytes aliases its block, U64/SetU64 load/store a block's pointer
// field, PPtr.Add stays in the block, SetRoot stores into the persisted
// root object) and by type-shared extern objects for everything else,
// so summaries compose the way the v2 name-based engine did while the
// objects give the analyzers an alias-aware vocabulary.
//
// On top of the solved points-to sets the package derives:
//
//   - a static callgraph that resolves interface-method and
//     function-value calls through the points-to sets of the receiver
//     or function expression (Callees), replacing the direct-call-only
//     graph in internal/analysis/summary;
//   - NVM-origin classification (Obj.NVM) and published-reachability
//     (Obj.Published: reachable from the persisted root set);
//   - escape facts (Obj.Escapes) for sharecheck's unshared-object
//     exemption;
//   - resolution metrics (Stats) for nvmcheck -stats.
//
// Graphs are cached per *types.Package, so the analyzers of one run
// share a single solve.
package ptr

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"sync"

	"hyrisenv/internal/analysis"
)

// Kind classifies the origin of an abstract object.
type Kind int

const (
	// Block is an NVM heap block.
	Block Kind = iota
	// HeapObj is a volatile Go allocation.
	HeapObj
	// Frame is an addressed stack slot.
	Frame
	// FuncVal is a function value.
	FuncVal
	// Extern is an opaque object entering from outside the package,
	// shared per type so summaries unify across functions.
	Extern
)

// An Obj is one abstract heap object.
type Obj struct {
	ID   int
	Kind Kind
	// NVM marks objects that live in (or carry pointers into) the
	// persistent heap.
	NVM bool
	// Published marks objects reachable from the persisted root set —
	// recovery can follow a pointer chain to them, so dirty writes into
	// them are visible after a crash.
	Published bool
	// Escapes marks objects reachable from outside the allocating
	// function: globals, external calls, goroutines, channels, returns.
	Escapes bool
	// Pos is the allocation site (NoPos for extern objects).
	Pos token.Pos
	// Label is a short human-readable description for diagnostics.
	Label string
	// Type is the allocated or carried type when known.
	Type types.Type

	// Fn and Lit identify FuncVal objects: a named function or method
	// (Fn) or a func literal (Lit). recvNode holds the bound receiver
	// of a method value (-1 when unbound).
	Fn       *types.Func
	Lit      *ast.FuncLit
	recvNode int

	// frameVar is the variable a Frame object stands for.
	frameVar types.Object
	// site marks objects created at an allocation site in the package
	// under analysis (counted in Stats).
	site bool
}

// Stats are the resolution metrics surfaced by nvmcheck -stats.
type Stats struct {
	// CallSites counts dynamic call sites (interface dispatch and
	// function-value calls); Resolved of them bound at least one
	// callee through the points-to sets.
	CallSites  int
	Resolved   int
	Unresolved int
	// AllocSites counts in-package allocation sites, split by origin.
	AllocSites int
	NVMAlloc   int
	Volatile   int
}

type loadc struct {
	dst, src int
	field    string
	typ      types.Type // type of the loaded value, for extern seeding
}

type storec struct {
	dst   int // node whose pointees receive the store
	field string
	src   int
}

type dync struct {
	call   *ast.CallExpr
	fun    int    // node of the function expression (-1 for iface)
	recv   int    // node of the receiver (-1 for func values)
	method string // method name for interface dispatch
}

type retKey struct {
	fn any // *types.Func or *ast.FuncLit
	i  int
}

// Graph is the solved points-to model of one package.
type Graph struct {
	fset  *token.FileSet
	info  *types.Info
	tpkg  *types.Package
	files []*ast.File

	objs []*Obj
	pts  []map[int]struct{}
	succ []map[int]struct{}

	varNodes  map[types.Object]int
	exprNodes map[ast.Expr]int
	fields    map[int]map[string]int
	frameObjs map[types.Object]int
	funcObjs  map[any]int // *types.Func or *ast.FuncLit -> obj ID
	externs   map[string]int
	retNodes  map[retKey]int
	callRes   map[*ast.CallExpr][]int

	loads  []loadc
	stores []storec
	dyns   []dync
	bound  map[string]bool

	fns      map[*types.Func]*ast.FuncDecl
	callees  map[*ast.CallExpr]map[*types.Func]struct{}
	dynSites map[*ast.CallExpr]bool

	// sinks are nodes whose pointees escape the package (external call
	// arguments, goroutine arguments, channel payloads, returns).
	sinks []int
	// rootObj is the persisted-root object: SetRoot stores into its
	// pointee field, Root loads from it.
	rootObj int

	stats Stats
}

var cache sync.Map // *types.Package -> *Graph

// Of returns the (cached) solved graph for the package of pass.
func Of(pass *analysis.Pass) *Graph {
	return build(pass.Fset, pass.Files, pass.Pkg, pass.Info)
}

// For returns the (cached) solved graph for a loaded package; used by
// cmd/nvmcheck to surface Stats without running an analyzer.
func For(pkg *analysis.Package) *Graph {
	return build(pkg.Fset, pkg.Syntax, pkg.Types, pkg.Info)
}

func build(fset *token.FileSet, files []*ast.File, tpkg *types.Package, info *types.Info) *Graph {
	if g, ok := cache.Load(tpkg); ok {
		return g.(*Graph)
	}
	g := &Graph{
		fset:      fset,
		info:      info,
		tpkg:      tpkg,
		files:     files,
		varNodes:  map[types.Object]int{},
		exprNodes: map[ast.Expr]int{},
		fields:    map[int]map[string]int{},
		frameObjs: map[types.Object]int{},
		funcObjs:  map[any]int{},
		externs:   map[string]int{},
		retNodes:  map[retKey]int{},
		callRes:   map[*ast.CallExpr][]int{},
		bound:     map[string]bool{},
		callees:   map[*ast.CallExpr]map[*types.Func]struct{}{},
		dynSites:  map[*ast.CallExpr]bool{},
	}
	g.fns = functions(files, info)
	root := g.newObj(Extern, token.NoPos, "persisted root", nil)
	root.NVM, root.Published, root.Escapes = true, true, true
	g.rootObj = root.ID
	g.generate()
	g.solve()
	g.deriveFacts()
	actual, _ := cache.LoadOrStore(tpkg, g)
	return actual.(*Graph)
}

// functions mirrors summary.Functions without needing a Pass.
func functions(files []*ast.File, info *types.Info) map[*types.Func]*ast.FuncDecl {
	fns := map[*types.Func]*ast.FuncDecl{}
	for _, file := range files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj, ok := info.Defs[fd.Name].(*types.Func); ok {
				fns[obj] = fd
			}
		}
	}
	return fns
}

// ---------------------------------------------------------------------------
// Node and object management.

func (g *Graph) newNode() int {
	g.pts = append(g.pts, nil)
	g.succ = append(g.succ, nil)
	return len(g.pts) - 1
}

func (g *Graph) newObj(k Kind, pos token.Pos, label string, t types.Type) *Obj {
	o := &Obj{ID: len(g.objs), Kind: k, Pos: pos, Label: label, Type: t, recvNode: -1}
	g.objs = append(g.objs, o)
	return o
}

func (g *Graph) addTo(n, obj int) bool {
	if g.pts[n] == nil {
		g.pts[n] = map[int]struct{}{}
	}
	if _, ok := g.pts[n][obj]; ok {
		return false
	}
	g.pts[n][obj] = struct{}{}
	return true
}

func (g *Graph) addCopy(src, dst int) {
	if src < 0 || dst < 0 || src == dst {
		return
	}
	if g.succ[src] == nil {
		g.succ[src] = map[int]struct{}{}
	}
	g.succ[src][dst] = struct{}{}
}

func (g *Graph) varNode(v types.Object) int {
	if n, ok := g.varNodes[v]; ok {
		return n
	}
	n := g.newNode()
	g.varNodes[v] = n
	return n
}

// fieldNode returns the node holding what objID's field points to. The
// pseudo-fields "*" (pointee / block-stored pointers), "[*]" (slice or
// array elements) and "[k]" (map keys) join the named struct fields.
func (g *Graph) fieldNode(objID int, field string) int {
	o := g.objs[objID]
	if o.Kind == Frame && field == "*" {
		n := g.varNode(o.frameVar)
		if g.fields[objID] == nil {
			g.fields[objID] = map[string]int{}
		}
		g.fields[objID][field] = n
		return n
	}
	m := g.fields[objID]
	if m == nil {
		m = map[string]int{}
		g.fields[objID] = m
	}
	if n, ok := m[field]; ok {
		return n
	}
	n := g.newNode()
	m[field] = n
	return n
}

// typeExtern returns the shared extern object for type t. Sharing per
// type unifies field facts across every function that sees a value of
// the type, which is what lets interprocedural summaries compose.
func (g *Graph) typeExtern(t types.Type) int {
	key := types.TypeString(t, nil)
	if id, ok := g.externs[key]; ok {
		return id
	}
	o := g.newObj(Extern, token.NoPos, key+" from outside the package", t)
	o.Escapes = true
	if carriesPPtr(t) {
		o.NVM = true
		o.Published = true
	}
	g.externs[key] = o.ID
	return o.ID
}

// carriesPPtr reports whether t is, or transitively contains, the
// nvm.PPtr persistent-pointer type or the nvm.Heap itself.
func carriesPPtr(t types.Type) bool {
	seen := map[types.Type]bool{}
	var walk func(t types.Type) bool
	walk = func(t types.Type) bool {
		if t == nil || seen[t] {
			return false
		}
		seen[t] = true
		if analysis.NamedFrom(t, "nvm", "PPtr") || analysis.NamedFrom(t, "nvm", "Heap") {
			return true
		}
		switch t := t.Underlying().(type) {
		case *types.Pointer:
			return walk(t.Elem())
		case *types.Slice:
			return walk(t.Elem())
		case *types.Array:
			return walk(t.Elem())
		case *types.Map:
			return walk(t.Key()) || walk(t.Elem())
		case *types.Chan:
			return walk(t.Elem())
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				if walk(t.Field(i).Type()) {
					return true
				}
			}
		}
		if n, ok := t.(*types.Named); ok {
			return walk(n.Underlying())
		}
		return false
	}
	return walk(t)
}

// ---------------------------------------------------------------------------
// Solver: iterate copy propagation, loads, stores and dynamic-call
// binding to a fixpoint. Package-sized inputs converge in a handful of
// rounds; the cap is a runaway backstop.

func (g *Graph) solve() {
	const maxRounds = 100
	for round := 0; round < maxRounds; round++ {
		changed := false
		// Copy edges to a local fixpoint first: cheap, and it keeps the
		// expensive load/store/call scans to few outer rounds.
		for {
			inner := false
			for src := 0; src < len(g.succ); src++ {
				if len(g.pts[src]) == 0 || len(g.succ[src]) == 0 {
					continue
				}
				for dst := range g.succ[src] {
					for obj := range g.pts[src] {
						if g.addTo(dst, obj) {
							inner = true
						}
					}
				}
			}
			if !inner {
				break
			}
			changed = true
		}
		for _, ld := range g.loads {
			if ld.src < 0 || ld.dst < 0 {
				continue // untracked operand: nothing to propagate
			}
			for obj := range g.pts[ld.src] {
				fn := g.fieldNode(obj, ld.field)
				if g.objs[obj].Kind == Extern && len(g.pts[fn]) == 0 && ld.typ != nil && !isBasicNonPPtr(ld.typ) {
					if g.addTo(fn, g.typeExtern(ld.typ)) {
						changed = true
					}
				}
				g.addCopy(fn, ld.dst)
				for o := range g.pts[fn] {
					if g.addTo(ld.dst, o) {
						changed = true
					}
				}
			}
		}
		for _, st := range g.stores {
			if st.dst < 0 || st.src < 0 {
				continue // untracked operand: nothing to propagate
			}
			for obj := range g.pts[st.dst] {
				fn := g.fieldNode(obj, st.field)
				g.addCopy(st.src, fn)
				for o := range g.pts[st.src] {
					if g.addTo(fn, o) {
						changed = true
					}
				}
			}
		}
		for i := range g.dyns {
			if g.bindDyn(&g.dyns[i]) {
				changed = true
			}
		}
		if !changed {
			break
		}
	}
}

// isBasicNonPPtr reports whether t is a plain scalar that cannot carry
// provenance — extern fields of such types stay empty.
func isBasicNonPPtr(t types.Type) bool {
	if analysis.IsPPtr(t) {
		return false
	}
	_, ok := t.Underlying().(*types.Basic)
	return ok && !carriesPPtr(t)
}

// bindDyn binds a dynamic call site to every in-package callee its
// function or receiver points-to set has revealed so far.
func (g *Graph) bindDyn(d *dync) bool {
	changed := false
	bindObj := func(objID int) {
		key := fmt.Sprintf("%p:%d", d.call, objID)
		if g.bound[key] {
			return
		}
		o := g.objs[objID]
		var fn *types.Func
		recv := -1
		switch {
		case d.method != "": // interface dispatch: look the method up on the concrete type
			if o.Type == nil {
				g.bound[key] = true
				return
			}
			obj, _, _ := types.LookupFieldOrMethod(o.Type, true, g.tpkg, d.method)
			f, ok := obj.(*types.Func)
			if !ok {
				g.bound[key] = true
				return
			}
			fn = f
			recv = d.recv
		case o.Kind == FuncVal:
			fn = o.Fn
			recv = o.recvNode
			if fn == nil && o.Lit != nil {
				// Func literal: parameters and results were already
				// nodes when the literal was walked; bind directly.
				g.bindLitCall(d.call, o.Lit)
				g.bound[key] = true
				changed = true
				return
			}
		default:
			g.bound[key] = true
			return
		}
		g.bound[key] = true
		if fn == nil {
			return
		}
		g.recordCallee(d.call, fn)
		if _, ok := g.fns[fn]; ok {
			args := make([]int, len(d.call.Args))
			for i, a := range d.call.Args {
				n, ok := g.exprNodes[a]
				if !ok {
					n = -1
				}
				args[i] = n
			}
			g.bindStatic(d.call, fn, recv, args, g.callRes[d.call])
		}
		changed = true
	}
	if d.method != "" {
		if d.recv < 0 {
			return false
		}
		for objID := range g.pts[d.recv] {
			bindObj(objID)
		}
	} else if d.fun >= 0 {
		for objID := range g.pts[d.fun] {
			bindObj(objID)
		}
	}
	return changed
}

func (g *Graph) recordCallee(call *ast.CallExpr, fn *types.Func) {
	if g.callees[call] == nil {
		g.callees[call] = map[*types.Func]struct{}{}
	}
	g.callees[call][fn] = struct{}{}
}

// ---------------------------------------------------------------------------
// Derived facts: published-reachability and escape closure.

func (g *Graph) deriveFacts() {
	// Published: close over fields from the seed set (persisted root,
	// extern NVM objects).
	work := []int{}
	for _, o := range g.objs {
		if o.Published {
			work = append(work, o.ID)
		}
	}
	for len(work) > 0 {
		id := work[len(work)-1]
		work = work[:len(work)-1]
		for _, fn := range g.fields[id] {
			for tgt := range g.pts[fn] {
				t := g.objs[tgt]
				if !t.Published {
					t.Published = true
					work = append(work, tgt)
				}
			}
		}
	}

	// Escapes: seed from sink nodes and published objects, close over
	// fields and over variables captured by escaping func literals.
	for _, n := range g.sinks {
		for id := range g.pts[n] {
			g.objs[id].Escapes = true
		}
	}
	for _, o := range g.objs {
		if o.Published {
			o.Escapes = true
		}
	}
	for {
		changed := false
		for _, o := range g.objs {
			if !o.Escapes {
				continue
			}
			for _, fn := range g.fields[o.ID] {
				for tgt := range g.pts[fn] {
					if !g.objs[tgt].Escapes {
						g.objs[tgt].Escapes = true
						changed = true
					}
				}
			}
			if o.Kind == FuncVal && o.Lit != nil {
				if g.markCaptures(o.Lit) {
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}

	// Resolution metrics.
	for call := range g.dynSites {
		g.stats.CallSites++
		if _, ok := g.callees[call]; ok {
			g.stats.Resolved++
		} else {
			g.stats.Unresolved++
		}
	}
	for _, o := range g.objs {
		if !o.site {
			continue
		}
		g.stats.AllocSites++
		if o.NVM {
			g.stats.NVMAlloc++
		} else {
			g.stats.Volatile++
		}
	}
}

// markCaptures marks every object pointed to by a variable the literal
// captures from an enclosing function as escaping: once the closure
// leaves the package, unknown code can reach those objects.
func (g *Graph) markCaptures(lit *ast.FuncLit) bool {
	changed := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := g.info.Uses[id].(*types.Var)
		if !ok || v.Pos() == token.NoPos {
			return true
		}
		if v.Pos() >= lit.Pos() && v.Pos() < lit.End() {
			return true // declared inside the literal
		}
		if v.Parent() == g.tpkg.Scope() {
			return true // package globals escape through their own sink
		}
		if fo, ok := g.frameObjs[v]; ok && !g.objs[fo].Escapes {
			g.objs[fo].Escapes = true
			changed = true
		}
		for objID := range g.pts[g.varNode(v)] {
			if !g.objs[objID].Escapes {
				g.objs[objID].Escapes = true
				changed = true
			}
		}
		return true
	})
	return changed
}

// ---------------------------------------------------------------------------
// Query API.

// PointsTo returns the abstract objects e may point to (or carry, for
// PPtr-typed scalars), sorted by ID. Nil when e was never a tracked
// expression.
func (g *Graph) PointsTo(e ast.Expr) []*Obj {
	n, ok := g.exprNodes[e]
	if !ok || n < 0 {
		return nil
	}
	return g.objsOf(n)
}

// PointsToObj returns the abstract objects variable v may point to.
func (g *Graph) PointsToObj(v types.Object) []*Obj {
	n, ok := g.varNodes[v]
	if !ok {
		return nil
	}
	return g.objsOf(n)
}

func (g *Graph) objsOf(n int) []*Obj {
	out := make([]*Obj, 0, len(g.pts[n]))
	for id := range g.pts[n] {
		out = append(out, g.objs[id])
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Callees returns the in- and cross-package functions call may invoke,
// combining static resolution with points-to-resolved interface and
// function-value dispatch. Sorted by position for determinism.
func (g *Graph) Callees(call *ast.CallExpr) []*types.Func {
	m := g.callees[call]
	out := make([]*types.Func, 0, len(m))
	for fn := range m {
		out = append(out, fn)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pos() != out[j].Pos() {
			return out[i].Pos() < out[j].Pos()
		}
		return out[i].FullName() < out[j].FullName()
	})
	return out
}

// Reachable returns the closure of objs over the points-to sets of
// their fields: everything recovery could follow a pointer chain to,
// starting from objs.
func (g *Graph) Reachable(objs []*Obj) []*Obj {
	return g.reach(objs, true)
}

// PublishReach is Reachable for publication semantics: the closure does
// not traverse the fields of type-shared extern objects. An extern
// merges every object of its type across the package, so following its
// fields would make any publication reach — and so falsely publish —
// every block that ever flowed through a slot of that type. The extern
// itself stays in the set: that is what carries obligations bound to
// parameters across calls.
func (g *Graph) PublishReach(objs []*Obj) []*Obj {
	return g.reach(objs, false)
}

func (g *Graph) reach(objs []*Obj, throughExterns bool) []*Obj {
	seen := map[int]bool{}
	var work []int
	for _, o := range objs {
		if !seen[o.ID] {
			seen[o.ID] = true
			work = append(work, o.ID)
		}
	}
	for len(work) > 0 {
		id := work[len(work)-1]
		work = work[:len(work)-1]
		if !throughExterns && g.objs[id].Kind == Extern {
			continue
		}
		for _, fn := range g.fields[id] {
			for tgt := range g.pts[fn] {
				if !seen[tgt] {
					seen[tgt] = true
					work = append(work, tgt)
				}
			}
		}
	}
	out := make([]*Obj, 0, len(seen))
	for id := range seen {
		out = append(out, g.objs[id])
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// NVMSlice reports whether e is a slice that may alias NVM-resident
// memory (a Heap.Bytes view or a derivation of one).
func (g *Graph) NVMSlice(e ast.Expr) bool {
	for _, o := range g.PointsTo(e) {
		if o.NVM {
			return true
		}
	}
	return false
}

// Label returns the diagnostic label of abstract object id.
func (g *Graph) Label(id int) string { return g.objs[id].Label }

// Obj returns the abstract object with the given ID.
func (g *Graph) Obj(id int) *Obj { return g.objs[id] }

// FrameObj returns the addressed-stack-slot object of local variable v,
// or nil when v was never addressed in the analyzed package. A frame
// object with Escapes unset is provably confined to its function: its
// address was never shipped to a goroutine, stored into escaping state
// or passed to an opaque callee.
func (g *Graph) FrameObj(v types.Object) *Obj {
	if id, ok := g.frameObjs[v]; ok {
		return g.objs[id]
	}
	return nil
}

// Published reports whether abstract object id is statically reachable
// from the persisted root set.
func (g *Graph) Published(id int) bool { return g.objs[id].Published }

// Stats returns the resolution metrics of the solved graph.
func (g *Graph) Stats() Stats { return g.stats }

// Pos renders a token position through the graph's file set.
func (g *Graph) Pos(p token.Pos) token.Position { return g.fset.Position(p) }
