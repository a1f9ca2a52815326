package summary

import (
	"go/ast"
	"go/types"
	"sort"

	"hyrisenv/internal/analysis"
	"hyrisenv/internal/analysis/ptr"
)

// Global is the module-wide resolved callgraph: one node per function
// (identified by types.Func.FullName, the identity that survives the
// source-vs-export-data split — see analysis.Program), one edge per
// resolved call site. Edges come from each package's points-to graph
// (ptr.Graph.Callees), so they include dynamic calls through function
// values, method values and stored callbacks wherever the Andersen
// solver resolved them, not just static calls; unresolved dynamic sites
// simply have no edge, a blind spot the nvmcheck -selfcheck resolution
// floor keeps bounded.
//
// Summaries are assembled bottom-up over the package DAG: packages are
// visited dependencies-first (Program.Packages order), each contributing
// its local call sites, and Close then propagates effect facts across
// package boundaries to a fixpoint — the cross-package summary layer
// protocheck and recoverycheck are built on.
type Global struct {
	Prog *analysis.Program

	// edges maps caller full name to callee full names, every resolved
	// callee included whether or not it is declared in the program.
	edges map[string]map[string]bool
	// objs maps every full name seen as a caller or callee to one
	// representative *types.Func, for primitive classification of
	// functions whose bodies live outside the program.
	objs map[string]*types.Func

	persistOnce bool
	persist     map[string]uint64
}

// Graph builds the whole-program callgraph of prog.
func Graph(prog *analysis.Program) *Global {
	g := &Global{
		Prog:  prog,
		edges: map[string]map[string]bool{},
		objs:  map[string]*types.Func{},
	}
	for _, pkg := range prog.Packages {
		pg := ptr.For(pkg)
		for _, file := range pkg.Syntax {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				caller, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				cname := caller.FullName()
				g.objs[cname] = caller
				if g.edges[cname] == nil {
					g.edges[cname] = map[string]bool{}
				}
				ast.Inspect(fd, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					for _, fn := range g.calleesAt(pg, pkg, call) {
						name := fn.FullName()
						g.edges[cname][name] = true
						if g.objs[name] == nil {
							g.objs[name] = fn
						}
					}
					return true
				})
			}
		}
	}
	return g
}

func (g *Global) calleesAt(pg *ptr.Graph, pkg *analysis.Package, call *ast.CallExpr) []*types.Func {
	fns := pg.Callees(call)
	if len(fns) == 0 {
		if fn := staticCallee(pkg.Info, call); fn != nil {
			fns = []*types.Func{fn}
		}
	}
	return fns
}

// CalleesAt resolves one call site of pkg to concrete functions, static
// and points-to-resolved dynamic callees alike, sorted by full name.
func (g *Global) CalleesAt(pkg *analysis.Package, call *ast.CallExpr) []*types.Func {
	fns := g.calleesAt(ptr.For(pkg), pkg, call)
	sort.Slice(fns, func(i, j int) bool { return fns[i].FullName() < fns[j].FullName() })
	return fns
}

// Callees returns the callee full names of one caller, sorted.
func (g *Global) Callees(fullName string) []string {
	out := make([]string, 0, len(g.edges[fullName]))
	for name := range g.edges[fullName] {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Edges counts resolved call edges, for -stats.
func (g *Global) Edges() int {
	n := 0
	for _, set := range g.edges {
		n += len(set)
	}
	return n
}

// Nodes counts callgraph nodes (declared callers), for -stats.
func (g *Global) Nodes() int { return len(g.edges) }

// Reach returns the full names of every declared function reachable —
// across package boundaries — from the declared functions satisfying
// root, roots included.
func (g *Global) Reach(root func(f *analysis.ProgFunc) bool) map[string]bool {
	reached := map[string]bool{}
	var work []string
	for _, f := range g.Prog.Funcs() {
		if root(f) {
			name := f.FullName()
			reached[name] = true
			work = append(work, name)
		}
	}
	for len(work) > 0 {
		name := work[len(work)-1]
		work = work[:len(work)-1]
		for _, callee := range g.Callees(name) {
			if reached[callee] || g.Prog.FuncNamed(callee) == nil {
				continue
			}
			reached[callee] = true
			work = append(work, callee)
		}
	}
	return reached
}

// Close computes, for every declared function, the transitive union of
// effect bits over the whole-program callgraph:
//
//	eff(f) = primitive(f) ∪ ⋃ over callees c of f:
//	         primitive(c) ∪ (eff(c) when c is declared in the program)
//
// primitive classifies what a function does *itself* (by name and
// receiver — it is consulted for export-data functions whose bodies are
// outside the program, so it must not require a body). The closure runs
// bottom-up over the package DAG and iterates to a fixpoint, so
// recursion and cross-package cycles converge as long as the effect
// domain is a finite bitmask.
func (g *Global) Close(primitive func(fn *types.Func) uint64) map[string]uint64 {
	eff := map[string]uint64{}
	for name, fn := range g.objs {
		if g.Prog.FuncNamed(name) != nil {
			eff[name] = primitive(fn)
		}
	}
	for changed := true; changed; {
		changed = false
		for name := range eff {
			cur := eff[name]
			for callee := range g.edges[name] {
				if ce, ok := eff[callee]; ok {
					cur |= ce
				} else if fn := g.objs[callee]; fn != nil {
					cur |= primitive(fn)
				}
			}
			if cur != eff[name] {
				eff[name] = cur
				changed = true
			}
		}
	}
	return eff
}

// Persist-effect bits: what a call transitively does to NVM durability,
// the cross-package persist summary consumed by protocheck (and
// available to future analyzers).
const (
	EffStore   uint64 = 1 << iota // SetU64/PutU64/PutU32/CasU64/SetRoot
	EffFlush                      // Flush/FlushBytes (ordered, unfenced)
	EffFence                      // Fence
	EffPersist                    // Persist/PersistBytes (flush+fence)
	EffDrain                      // Drain (fence + device durability)
)

// PersistEffects returns the transitive persist-effect summary of every
// declared function. The result is computed once and cached; Global is
// not safe for concurrent first use.
func (g *Global) PersistEffects() map[string]uint64 {
	if !g.persistOnce {
		g.persist = g.Close(PersistPrimitive)
		g.persistOnce = true
	}
	return g.persist
}

// PersistPrimitive classifies one function's own persist effect: nvm
// heap methods map to their bit, everything else to zero. Matching is by
// receiver (package *name* nvm, type Heap — the testdata stub contract)
// and method name.
func PersistPrimitive(fn *types.Func) uint64 {
	if fn == nil {
		return 0
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return 0
	}
	if !analysis.NamedFrom(sig.Recv().Type(), "nvm", "Heap") {
		return 0
	}
	switch fn.Name() {
	case "SetU64", "PutU64", "PutU32", "SetU32", "CasU64", "SetRoot":
		return EffStore
	case "Flush", "FlushBytes":
		return EffFlush
	case "Fence":
		return EffFence
	case "Persist", "PersistBytes":
		return EffPersist
	case "Drain":
		return EffDrain
	}
	return 0
}

// HasMethods reports whether t (or its pointer type) has methods with
// every one of the given names — the receiver-shape heuristic the
// whole-program analyzers use to recognize protocol roles (a 2PC
// participant has Prepare and CommitPrepared, a coordinator has Decide
// and Forget) without naming concrete repo types, so testdata stubs
// match identically.
func HasMethods(t types.Type, names ...string) bool {
	for {
		p, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	for _, name := range names {
		obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(n), true, n.Obj().Pkg(), name)
		if _, isFunc := obj.(*types.Func); !isFunc {
			return false
		}
	}
	return true
}
