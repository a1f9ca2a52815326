// Package pptrcheck enforces that NVM offsets (nvm.PPtr) are the only
// currency used to reference NVM-resident data. Virtual addresses are
// not stable: the heap file may be mapped at a different base address on
// every Open, so anything derived from the mapping is invalidated by a
// remap.
//
// The analyzer reports:
//
//   - conversions of nvm.PPtr to uintptr or unsafe.Pointer — the
//     offset must never be laundered into an address;
//   - package-level variables whose type contains nvm.PPtr — durable
//     offsets cached in volatile globals dangle across restarts and, in
//     tests that reopen heaps, across remaps;
//   - a []byte obtained from Heap.Bytes that is still used after a
//     Close or Open call in the same function — the slice aliases the
//     old mapping.
//
// Package nvm itself is exempt: it is the trusted base layer and has to
// touch the mapping directly.
package pptrcheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"hyrisenv/internal/analysis"
	"hyrisenv/internal/analysis/cfg"
	"hyrisenv/internal/analysis/dataflow"
	"hyrisenv/internal/analysis/ptr"
)

// Analyzer is the pptrcheck analysis.
var Analyzer = &analysis.Analyzer{
	Name: "pptrcheck",
	Doc:  "nvm.PPtr offsets must not be converted to addresses, cached in globals, or aliased across heap remaps",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if pass.Pkg.Name() == "nvm" {
		return nil // the heap implementation is the trusted base layer
	}
	for _, file := range pass.Files {
		checkGlobals(pass, file)
		ast.Inspect(file, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				checkConversion(pass, call)
			}
			if fn, ok := n.(*ast.FuncDecl); ok && fn.Body != nil {
				checkRemapAliasing(pass, fn)
			}
			return true
		})
	}
	return nil
}

// containsPPtr reports whether t embeds nvm.PPtr anywhere in its
// structure (fields, elements, map keys/values).
func containsPPtr(t types.Type, seen map[types.Type]bool) bool {
	if t == nil || seen[t] {
		return false
	}
	seen[t] = true
	if analysis.IsPPtr(t) {
		return true
	}
	switch t := t.Underlying().(type) {
	case *types.Pointer:
		return containsPPtr(t.Elem(), seen)
	case *types.Slice:
		return containsPPtr(t.Elem(), seen)
	case *types.Array:
		return containsPPtr(t.Elem(), seen)
	case *types.Map:
		return containsPPtr(t.Key(), seen) || containsPPtr(t.Elem(), seen)
	case *types.Chan:
		return containsPPtr(t.Elem(), seen)
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if containsPPtr(t.Field(i).Type(), seen) {
				return true
			}
		}
	}
	return false
}

// checkConversion flags PPtr → uintptr / unsafe.Pointer conversions.
func checkConversion(pass *analysis.Pass, call *ast.CallExpr) {
	if len(call.Args) != 1 {
		return
	}
	tv, ok := pass.Info.Types[call.Fun]
	if !ok || !tv.IsType() {
		return
	}
	dst := tv.Type
	src := pass.Info.TypeOf(call.Args[0])
	if !analysis.IsPPtr(src) {
		return
	}
	basic, isBasic := dst.Underlying().(*types.Basic)
	switch {
	case isBasic && basic.Kind() == types.Uintptr:
		pass.Reportf(call.Pos(), "nvm.PPtr converted to uintptr; offsets are not addresses — index through Heap.Bytes instead")
	case isBasic && basic.Kind() == types.UnsafePointer:
		pass.Reportf(call.Pos(), "nvm.PPtr converted to unsafe.Pointer; offsets are not addresses — index through Heap.Bytes instead")
	}
}

// checkGlobals flags package-level variables whose type contains
// nvm.PPtr.
func checkGlobals(pass *analysis.Pass, file *ast.File) {
	for _, decl := range file.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.VAR {
			continue
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for _, name := range vs.Names {
				obj := pass.Info.Defs[name]
				if obj == nil || name.Name == "_" {
					continue
				}
				if containsPPtr(obj.Type(), map[types.Type]bool{}) {
					pass.Reportf(name.Pos(),
						"package-level var %s holds nvm.PPtr; durable offsets must not be cached in volatile globals — resolve them from a root at startup",
						name.Name)
				}
			}
		}
	}
}

// remapFact is the flow fact of the remap-aliasing analysis: live is
// the set of Heap.Bytes-derived slice variables whose mapping is still
// valid, stale the set invalidated by a remap on some path, with the
// position of the remap that killed each. nil = unvisited bottom; both
// sets are may-sets (join = union), so a slice that survives a remap on
// one branch only is still reported at a later use.
type remapFact struct {
	live  []types.Object // sorted by Pos
	stale map[types.Object]token.Pos
}

func sortedObjs(in []types.Object) []types.Object {
	sort.Slice(in, func(i, j int) bool { return in[i].Pos() < in[j].Pos() })
	return in
}

var remapLattice = dataflow.Lattice[*remapFact]{
	Bottom: func() *remapFact { return nil },
	Join: func(a, b *remapFact) *remapFact {
		if a == nil {
			return b
		}
		if b == nil {
			return a
		}
		liveSet := map[types.Object]bool{}
		for _, o := range a.live {
			liveSet[o] = true
		}
		var live []types.Object
		live = append(live, a.live...)
		for _, o := range b.live {
			if !liveSet[o] {
				live = append(live, o)
			}
		}
		stale := map[types.Object]token.Pos{}
		for o, p := range a.stale {
			stale[o] = p
		}
		for o, p := range b.stale {
			if prev, ok := stale[o]; !ok || p < prev {
				stale[o] = p
			}
		}
		return &remapFact{live: sortedObjs(live), stale: stale}
	},
	Equal: func(a, b *remapFact) bool {
		if (a == nil) != (b == nil) {
			return false
		}
		if a == nil {
			return true
		}
		if len(a.live) != len(b.live) || len(a.stale) != len(b.stale) {
			return false
		}
		for i := range a.live {
			if a.live[i] != b.live[i] {
				return false
			}
		}
		for o, p := range a.stale {
			if q, ok := b.stale[o]; !ok || p != q {
				return false
			}
		}
		return true
	},
}

// isRemapCall reports whether call invalidates the current NVM mapping:
// Heap.Close, or nvm.Open / nvm.Create establishing a new one.
func isRemapCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	name, pkgName := analysis.CalleeName(pass.Info, call)
	if name != "Close" && name != "Open" && name != "Create" {
		return false
	}
	recv := analysis.ReceiverType(pass.Info, call)
	onHeap := recv != nil && analysis.NamedFrom(recv, "nvm", "Heap")
	return onHeap || (pkgName == "nvm" && (name == "Open" || name == "Create"))
}

// checkRemapAliasing flags uses of a Heap.Bytes-derived slice after a
// Close/Open call on a heap, flow-sensitively: the slice is tracked
// through the function's control-flow graph, a remap moves every live
// slice into the stale set, and re-deriving the slice from the reopened
// heap revives it. A use reached by a stale fact on any path — e.g. the
// second iteration of a loop that remaps at its end — is reported.
func checkRemapAliasing(pass *analysis.Pass, fn *ast.FuncDecl) {
	g := cfg.New(fn.Body)
	pg := ptr.Of(pass)

	transfer := func(n ast.Node, in *remapFact) *remapFact {
		f := in
		if f == nil {
			f = &remapFact{}
		}
		// Remaps first ordering does not matter at node granularity;
		// process the node's events in source order.
		var events []func(*remapFact) *remapFact
		ast.Inspect(n, func(m ast.Node) bool {
			if _, ok := m.(*ast.FuncLit); ok {
				return false
			}
			switch m := m.(type) {
			case *ast.AssignStmt:
				if len(m.Lhs) != len(m.Rhs) {
					return true
				}
				for i, rhs := range m.Rhs {
					if !seedsAlias(pass, pg, rhs) {
						continue
					}
					id, ok := m.Lhs[i].(*ast.Ident)
					if !ok {
						continue
					}
					obj := pass.Info.Defs[id]
					if obj == nil {
						obj = pass.Info.Uses[id]
					}
					if obj == nil {
						continue
					}
					o := obj
					fresh := analysis.IsBytesCall(pass.Info, rhs)
					root := rootAliasObj(pass, rhs)
					events = append(events, func(f *remapFact) *remapFact {
						out := &remapFact{stale: map[types.Object]token.Pos{}}
						for k, v := range f.stale {
							if k != o {
								out.stale[k] = v
							}
						}
						if !fresh && root != nil {
							if pos, ok := f.stale[root]; ok {
								// Copying a stale alias yields a stale
								// alias; only a fresh Bytes call revives.
								out.stale[o] = pos
								live := f.live[:0:0]
								for _, l := range f.live {
									if l != o {
										live = append(live, l)
									}
								}
								out.live = live
								return out
							}
						}
						has := false
						for _, l := range f.live {
							if l == o {
								has = true
							}
						}
						out.live = f.live
						if !has {
							out.live = sortedObjs(append(append([]types.Object{}, f.live...), o))
						}
						return out
					})
				}
			case *ast.CallExpr:
				if isRemapCall(pass, m) {
					pos := m.Pos()
					events = append(events, func(f *remapFact) *remapFact {
						out := &remapFact{stale: map[types.Object]token.Pos{}}
						for k, v := range f.stale {
							out.stale[k] = v
						}
						for _, l := range f.live {
							if _, ok := out.stale[l]; !ok {
								out.stale[l] = pos
							}
						}
						return out
					})
				}
			}
			return true
		})
		for _, ev := range events {
			f = ev(f)
		}
		return f
	}
	res := dataflow.Forward(g, remapLattice, &remapFact{}, transfer)

	// Reporting: an identifier whose object is stale at its node is an
	// alias of a dead mapping. One report per object per function. The
	// left-hand side of a re-deriving assignment is the revival itself,
	// not a use of the dead alias.
	reported := map[types.Object]bool{}
	res.NodeFacts(g, func(n ast.Node, before *remapFact) {
		if before == nil || len(before.stale) == 0 {
			return
		}
		reviving := map[*ast.Ident]bool{}
		ast.Inspect(n, func(m ast.Node) bool {
			as, ok := m.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, rhs := range as.Rhs {
				if !seedsAlias(pass, pg, rhs) {
					continue
				}
				if id, ok := as.Lhs[i].(*ast.Ident); ok {
					reviving[id] = true
				}
			}
			return true
		})
		ast.Inspect(n, func(m ast.Node) bool {
			if _, ok := m.(*ast.FuncLit); ok {
				return false
			}
			id, ok := m.(*ast.Ident)
			if !ok || reviving[id] {
				return true
			}
			obj := pass.Info.Uses[id]
			if obj == nil || reported[obj] {
				return true
			}
			c, ok := before.stale[obj]
			if !ok {
				return true
			}
			reported[obj] = true
			pass.Reportf(id.Pos(),
				"%s aliases the NVM mapping from Heap.Bytes but is used after the remap at %s; re-derive it from the reopened heap",
				id.Name, pass.Fset.Position(c))
			return true
		})
	})
}

// seedsAlias reports whether rhs produces a slice aliasing the NVM
// mapping: a direct Heap.Bytes call (or reslice of one), or — through
// the points-to graph — any slice-typed expression whose points-to set
// contains an NVM block, which catches derived aliases like c := b.
func seedsAlias(pass *analysis.Pass, pg *ptr.Graph, rhs ast.Expr) bool {
	if analysis.IsBytesCall(pass.Info, rhs) {
		return true
	}
	t := pass.Info.TypeOf(rhs)
	if t == nil {
		return false
	}
	if _, ok := t.Underlying().(*types.Slice); !ok {
		return false
	}
	return pg.NVMSlice(rhs)
}

// rootAliasObj returns the variable a derived slice expression copies
// from, unwrapping reslices: the root of c := b[2:] is b. nil when the
// expression has no single variable root (a fresh call, a composite).
func rootAliasObj(pass *analysis.Pass, e ast.Expr) types.Object {
	for {
		s, ok := e.(*ast.SliceExpr)
		if !ok {
			break
		}
		e = s.X
	}
	if id, ok := e.(*ast.Ident); ok {
		return pass.Info.Uses[id]
	}
	return nil
}
