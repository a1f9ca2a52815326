// Package persistcheck enforces the NVM crash-consistency discipline:
// every mutation of NVM-resident state must be made durable with a
// persist barrier before it is published.
//
// Version 2 is flow-sensitive and interprocedural. Each function body
// is lowered to a control-flow graph (internal/analysis/cfg) and a
// forward may-analysis runs over it. The fact lattice is
//
//	(dirty, barriered)
//
// where dirty is the set of write sites not yet covered by a persist
// barrier on some path to this point (join = union — "may be dirty"),
// and barriered records whether every path from the entry has executed
// a barrier (join = conjunction — "must have flushed"). A persist
// barrier resets dirty to the empty set; the checker does not model
// address ranges, exactly as in v1.
//
// Events are classified per call:
//
//   - writes: Heap.SetU64 / Heap.PutU64 / Heap.PutU32, any SetNoPersist
//     call, builtin copy/clear into a slice obtained from Heap.Bytes or
//     Heap.Words, and known slice mutators (PackBits) applied to such a
//     slice;
//   - persist barriers: Persist, PersistBytes, PersistAt, PersistRange,
//     PersistBegin, PersistEnd;
//   - flushes without a fence: Heap.Flush / Heap.FlushBytes, and the
//     per-element FlushAt / FlushBegin / FlushEnd family. A flush moves
//     the dirty writes into a "flushed" state — ordered into the write
//     queue but durable only after the next fence. Group commit batches
//     many flushes under one fence this way;
//   - fences: Heap.Fence and Heap.Drain (the durability drain is a
//     fence plus device latency; see nvm.Heap.Drain). A fence makes
//     every flushed write durable — flushed clears, raw dirty writes
//     stay dirty, because an sfence does not write back unflushed
//     lines;
//   - publish points: Heap.SetRoot and Heap.CasU64, and every return —
//     except returns that propagate a non-nil error (aborted
//     construction is unreachable; the scavenger reclaims it).
//
// Calls that match none of the names above but statically resolve to a
// function declared in the same package are modeled by a *persist
// summary* computed bottom-up over the package callgraph
// (internal/analysis/summary): a callee that may return with
// unpersisted writes dirties the caller, and a callee that executes a
// barrier on every path acts as a barrier at the call site. Deferred
// calls are applied, in LIFO order, to the fact at every return.
//
// Reaching a publish point with a non-empty dirty set is always
// reported. Returning with a non-empty dirty set is reported unless
//
//   - the function carries a //nvm:nopersist <reason> annotation in its
//     doc comment ("the caller persists" — group-commit batching); or
//   - the function is package-private (unexported name, or a method on
//     an unexported type) and has at least one static in-package
//     caller: the summary transfers the obligation to those callers,
//     which is the interprocedural replacement for most v1
//     annotations.
//
// The annotation remains mandatory for exported dirty functions —
// external callers can only learn the contract from the doc comment —
// and the reason is mandatory on the annotation. An annotation the
// analysis proves to have no effect (the function is clean at every
// publish and non-error return, or its obligation already falls on
// in-package callers) is itself reported, so obsolete annotations
// cannot accumulate.
//
// The package implementing the heap itself (package nvm) is exempt —
// it is the trusted base layer that defines the barrier primitives.
package persistcheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"hyrisenv/internal/analysis"
	"hyrisenv/internal/analysis/cfg"
	"hyrisenv/internal/analysis/dataflow"
	"hyrisenv/internal/analysis/ptr"
	"hyrisenv/internal/analysis/publishcheck"
	"hyrisenv/internal/analysis/summary"
)

// Analyzer is the persistcheck analysis.
var Analyzer = &analysis.Analyzer{
	Name: "persistcheck",
	Doc:  "NVM writes must be persisted before a publish point (SetRoot, CasU64, return) on every path",
	Run:  run,
}

// ---------------------------------------------------------------------------
// The fact lattice.

// A write is one not-yet-persisted NVM mutation site.
type write struct {
	pos  token.Pos
	what string
}

// fact is the dataflow fact: nil means "unvisited" (the lattice
// bottom). Facts are immutable — transfer and join return fresh values.
type fact struct {
	dirty []write // raw writes, not yet flushed; sorted by pos, deduplicated
	// flushed holds writes ordered into the device write queue by a
	// Flush-family call but not yet made durable by a fence.
	flushed []write
	// barriered is true when every path from the entry to this point
	// has executed a persist barrier (or fence).
	barriered bool
}

func mergeWrites(a, b []write) []write {
	merged := make([]write, 0, len(a)+len(b))
	merged = append(merged, a...)
	merged = append(merged, b...)
	sort.Slice(merged, func(i, j int) bool { return merged[i].pos < merged[j].pos })
	out := merged[:0]
	for _, w := range merged {
		if len(out) == 0 || out[len(out)-1].pos != w.pos {
			out = append(out, w)
		}
	}
	return out
}

var lattice = dataflow.Lattice[*fact]{
	Bottom: func() *fact { return nil },
	Join: func(a, b *fact) *fact {
		if a == nil {
			return b
		}
		if b == nil {
			return a
		}
		return &fact{
			dirty:     mergeWrites(a.dirty, b.dirty),
			flushed:   mergeWrites(a.flushed, b.flushed),
			barriered: a.barriered && b.barriered,
		}
	},
	Equal: func(a, b *fact) bool {
		if (a == nil) != (b == nil) {
			return false
		}
		if a == nil {
			return true
		}
		if a.barriered != b.barriered || len(a.dirty) != len(b.dirty) || len(a.flushed) != len(b.flushed) {
			return false
		}
		for i := range a.dirty {
			if a.dirty[i].pos != b.dirty[i].pos {
				return false
			}
		}
		for i := range a.flushed {
			if a.flushed[i].pos != b.flushed[i].pos {
				return false
			}
		}
		return true
	},
}

func (f *fact) withWrite(w write) *fact {
	if f == nil {
		f = &fact{}
	}
	return &fact{dirty: mergeWrites(f.dirty, []write{w}), flushed: f.flushed, barriered: f.barriered}
}

// withFlushed records a write that arrives already flushed — a call of
// an in-package helper whose summary says it returns with flushed,
// unfenced lines (the group-commit follower pattern).
func (f *fact) withFlushed(w write) *fact {
	if f == nil {
		f = &fact{}
	}
	return &fact{dirty: f.dirty, flushed: mergeWrites(f.flushed, []write{w}), barriered: f.barriered}
}

// afterFlush orders the dirty writes into the write queue: they are no
// longer reorderable but become durable only at the next fence. Like
// the barrier rules, address ranges are not modeled — one flush covers
// every pending write.
func (f *fact) afterFlush() *fact {
	if f == nil || len(f.dirty) == 0 {
		return f
	}
	return &fact{flushed: mergeWrites(f.flushed, f.dirty), barriered: f.barriered}
}

// afterFence drains the write queue: flushed writes are durable. Raw
// dirty writes stay dirty — an sfence does not write back unflushed
// cache lines.
func (f *fact) afterFence() *fact {
	if f == nil {
		return &fact{barriered: true}
	}
	return &fact{dirty: f.dirty, barriered: true}
}

func (f *fact) afterBarrier() *fact { return &fact{barriered: true} }

// afterPublish consumes the dirty and flushed sets without counting as
// a barrier: a dirty publish is reported at the publish site, and
// re-reporting the same writes at the return (or at every caller) would
// be noise.
func (f *fact) afterPublish() *fact {
	if f == nil {
		return &fact{}
	}
	return &fact{barriered: f.barriered}
}

// pending returns the first write that is not yet durable (dirty takes
// priority over flushed) and a verb describing what it still needs.
func (f *fact) pending() (write, string, bool) {
	if f == nil {
		return write{}, "", false
	}
	if len(f.dirty) > 0 {
		return f.dirty[0], "not persisted", true
	}
	if len(f.flushed) > 0 {
		return f.flushed[0], "flushed but not fenced", true
	}
	return write{}, "", false
}

// ---------------------------------------------------------------------------
// Event classification.

type opKind int

const (
	opNone opKind = iota
	opWrite
	opFlush
	opFlushedCall
	opFence
	opBarrier
	opPublish
)

// psum is the persist summary of one function, propagated bottom-up
// through the package callgraph.
type psum struct {
	// dirty: the function may return with unpersisted writes; a call
	// dirties the caller.
	dirty bool
	// flushed: the function may return with writes flushed into the
	// device queue but not fenced; the caller owes a fence (the
	// group-commit follower contract).
	flushed bool
	// barrier: every path through the function executes a persist
	// barrier and returns clean; a call acts as a barrier.
	barrier bool
}

// classify decides the effect of one call. Name-based contract
// classification (the v1 rules) takes priority — SetNoPersist is a
// write and PersistAt a barrier wherever they resolve to, including
// interface dispatch the callgraph cannot see. Only unmatched calls
// fall through to the in-package summary.
func classify(pass *analysis.Pass, call *ast.CallExpr, tainted map[types.Object]bool, sums map[*types.Func]psum) (opKind, string) {
	name, pkgName := analysis.CalleeName(pass.Info, call)
	recv := analysis.ReceiverType(pass.Info, call)
	onHeap := recv != nil && analysis.NamedFrom(recv, "nvm", "Heap")

	switch {
	case analysis.PersistNames[name]:
		return opBarrier, name
	case onHeap && analysis.HeapWriteNames[name]:
		return opWrite, "Heap." + name
	case name == "SetNoPersist":
		return opWrite, "SetNoPersist"
	case onHeap && (name == "Flush" || name == "FlushBytes"):
		return opFlush, "Heap." + name
	case analysis.FlushAtNames[name]:
		return opFlush, name
	case onHeap && (name == "Fence" || name == "Drain"):
		return opFence, "Heap." + name
	case onHeap && (name == "SetRoot" || name == "CasU64"):
		return opPublish, "Heap." + name
	case (name == "copy" || name == "clear") && pkgName == "" && len(call.Args) > 0:
		if isNVMSlice(pass, call.Args[0], tainted) {
			return opWrite, name + " into Heap.Bytes"
		}
	case analysis.SliceMutators[name]:
		for _, a := range call.Args {
			if isNVMSlice(pass, a, tainted) {
				return opWrite, name + " into Heap.Bytes"
			}
		}
	}
	if callee := summary.StaticCallee(pass.Info, call); callee != nil {
		if s, ok := sums[callee]; ok {
			switch {
			case s.barrier:
				return opBarrier, "call of " + callee.Name()
			case s.dirty:
				return opWrite, "call of " + callee.Name()
			case s.flushed:
				return opFlushedCall, "call of " + callee.Name()
			}
		}
	}
	return opNone, ""
}

// ---------------------------------------------------------------------------
// Per-function analysis.

// funcInfo caches the per-function artifacts shared by the summary
// fixpoint and the reporting pass.
type funcInfo struct {
	decl    *ast.FuncDecl
	graph   *cfg.Graph
	tainted map[types.Object]bool
}

func run(pass *analysis.Pass) error {
	if pass.Pkg.Name() == "nvm" {
		return nil // the heap implementation is the trusted base layer
	}
	g := ptr.Of(pass)
	fns := summary.Functions(pass)
	infos := map[*types.Func]*funcInfo{}
	for obj, fd := range fns {
		infos[obj] = &funcInfo{
			decl:    fd,
			graph:   cfg.New(fd.Body),
			tainted: nvmSlices(pass, g, fd),
		}
	}

	// Bottom-up persist summaries over the package callgraph.
	sums := summary.Compute(fns, func(obj *types.Func, fd *ast.FuncDecl, cur map[*types.Func]psum) psum {
		info := infos[obj]
		res := analyze(pass, info, cur)
		s := psum{barrier: true}
		returns := 0
		forEachReturn(pass, info, cur, res, func(ret *ast.ReturnStmt, f *fact) {
			returns++
			if f == nil {
				f = &fact{}
			}
			if !f.barriered {
				s.barrier = false
			}
			if len(f.dirty) > 0 {
				s.barrier = false
				if !analysis.IsErrorReturn(pass.Info, ret) {
					s.dirty = true
				}
			}
			if len(f.flushed) > 0 {
				s.barrier = false
				if !analysis.IsErrorReturn(pass.Info, ret) {
					s.flushed = true
				}
			}
		})
		if returns == 0 {
			// A function that never returns (infinite loop) has no
			// effect at any call site that matters here.
			s.barrier = false
		}
		return s
	})

	callers := summary.Callers(pass, fns)

	// The alias-aware engine's veto on the annotation-rot report: an
	// annotation this analysis proves inert may still discharge a
	// publish obligation only the points-to layer can see (a dirty
	// write through interface dispatch or a stored function value).
	loadBearing := publishcheck.AnnotationLoadBearing(pass)

	// Reporting pass with the converged summaries.
	for obj, info := range infos {
		checkFunc(pass, obj, info, sums, callers[obj], loadBearing[obj])
	}
	return nil
}

// analyze runs the persist dataflow over one function with the given
// (possibly still converging) summaries.
func analyze(pass *analysis.Pass, info *funcInfo, sums map[*types.Func]psum) *dataflow.Result[*fact] {
	transfer := func(n ast.Node, in *fact) *fact {
		if _, ok := n.(*ast.DeferStmt); ok {
			return in // runs at return, not here
		}
		f := in
		analysis.ForEachCall(n, func(call *ast.CallExpr) {
			switch op, what := classify(pass, call, info.tainted, sums); op {
			case opWrite:
				f = f.withWrite(write{pos: call.Pos(), what: what})
			case opFlush:
				f = f.afterFlush()
			case opFlushedCall:
				f = f.withFlushed(write{pos: call.Pos(), what: what})
			case opFence:
				f = f.afterFence()
			case opBarrier:
				f = f.afterBarrier()
			case opPublish:
				f = f.afterPublish()
			}
		})
		return f
	}
	return dataflow.Forward(info.graph, lattice, &fact{}, transfer)
}

// applyDefers folds the function's deferred calls (LIFO) into f — the
// effect that runs between a return statement and the actual exit.
// Defers are assumed unconditional, the overwhelmingly common form; a
// write or barrier inside a conditional defer is over-approximated as
// always running.
func applyDefers(pass *analysis.Pass, info *funcInfo, sums map[*types.Func]psum, f *fact) *fact {
	for i := len(info.graph.Defers) - 1; i >= 0; i-- {
		d := info.graph.Defers[i]
		switch op, what := classify(pass, d.Call, info.tainted, sums); op {
		case opWrite:
			f = f.withWrite(write{pos: d.Pos(), what: what})
		case opFlush:
			f = f.afterFlush()
		case opFlushedCall:
			f = f.withFlushed(write{pos: d.Pos(), what: what})
		case opFence:
			f = f.afterFence()
		case opBarrier:
			f = f.afterBarrier()
		}
	}
	return f
}

// forEachReturn visits every ReturnStmt node of the graph (including
// the synthetic fall-off-the-end return) with the fact at that point,
// after deferred calls have been applied.
func forEachReturn(pass *analysis.Pass, info *funcInfo, sums map[*types.Func]psum, res *dataflow.Result[*fact], visit func(*ast.ReturnStmt, *fact)) {
	res.NodeFacts(info.graph, func(n ast.Node, before *fact) {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return
		}
		visit(ret, applyDefers(pass, info, sums, before))
	})
}

func checkFunc(pass *analysis.Pass, obj *types.Func, info *funcInfo, sums map[*types.Func]psum, nCallers int, aliasLoadBearing bool) {
	fn := info.decl
	annotated, reasoned := analysis.Nopersist(fn)
	if annotated && !reasoned {
		pass.Reportf(fn.Pos(), "//nvm:nopersist on %s must carry a reason", fn.Name.Name)
	}

	res := analyze(pass, info, sums)

	// Publish points: always an error while dirty, under any contract.
	res.NodeFacts(info.graph, func(n ast.Node, before *fact) {
		if _, ok := n.(*ast.DeferStmt); ok {
			return
		}
		f := before
		analysis.ForEachCall(n, func(call *ast.CallExpr) {
			op, what := classify(pass, call, info.tainted, sums)
			switch op {
			case opPublish:
				if d, verb, ok := f.pending(); ok {
					pass.Reportf(call.Pos(),
						"%s publishes while the %s at %s is %s",
						what, d.what, pass.Fset.Position(d.pos), verb)
				}
				f = f.afterPublish()
			case opWrite:
				f = f.withWrite(write{pos: call.Pos(), what: what})
			case opFlush:
				f = f.afterFlush()
			case opFlushedCall:
				f = f.withFlushed(write{pos: call.Pos(), what: what})
			case opFence:
				f = f.afterFence()
			case opBarrier:
				f = f.afterBarrier()
			}
		})
	})

	// Returns: the obligation is waived by the annotation, or
	// discharged interprocedurally when package-private with visible
	// callers (their summaries inherit the dirt).
	waived := annotated || (analysis.PkgPrivate(obj, fn) && nCallers > 0)
	dirtyReturn := false
	reported := false
	forEachReturn(pass, info, sums, res, func(ret *ast.ReturnStmt, f *fact) {
		d, verb, ok := f.pending()
		if !ok || analysis.IsErrorReturn(pass.Info, ret) {
			return
		}
		dirtyReturn = true
		if waived || reported {
			return
		}
		reported = true
		state := "unpersisted"
		if verb == "flushed but not fenced" {
			state = "flushed-but-unfenced"
		}
		pass.Reportf(ret.Pos(),
			"function %s returns with %s NVM write (%s at %s); persist it or annotate the function with //nvm:nopersist <reason>",
			fn.Name.Name, state, d.what, pass.Fset.Position(d.pos))
	})

	// An annotation with no effect is annotation rot: either the
	// function is provably clean, or its obligation already falls on
	// in-package callers. Both engines must agree before ordering a
	// deletion — the points-to layer sees aliased writes this flow
	// analysis cannot.
	if annotated && reasoned && !aliasLoadBearing && (!dirtyReturn || analysis.PkgPrivate(obj, fn) && nCallers > 0) {
		pass.Reportf(fn.Pos(),
			"//nvm:nopersist on %s is unnecessary: both the v2 flow analysis and the alias-aware points-to engine prove every publish and non-error return clean (or the obligation falls on its in-package callers); delete the annotation",
			fn.Name.Name)
	}
}

// nvmSlices returns the objects of variables in fn that alias the NVM
// mapping. Two sources combine: the v2 syntactic rule — locals assigned
// directly from a Heap.Bytes call — and the points-to graph, which also
// catches derived aliases (c := b, c := b[2:10]) and slice parameters
// whose callers pass Bytes-backed memory. The syntactic rule stays as a
// belt: it needs no solved graph and covers the common direct form even
// where constraint generation has no model for the defining expression.
func nvmSlices(pass *analysis.Pass, g *ptr.Graph, fn *ast.FuncDecl) map[types.Object]bool {
	tainted := map[types.Object]bool{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, rhs := range n.Rhs {
				if !analysis.IsBytesCall(pass.Info, rhs) {
					continue
				}
				if id, ok := n.Lhs[i].(*ast.Ident); ok {
					if obj := pass.Info.Defs[id]; obj != nil {
						tainted[obj] = true
					} else if obj := pass.Info.Uses[id]; obj != nil {
						tainted[obj] = true
					}
				}
			}
		case *ast.Ident:
			obj := pass.Info.Defs[n]
			if obj == nil {
				obj = pass.Info.Uses[n]
			}
			v, ok := obj.(*types.Var)
			if !ok || tainted[v] {
				return true
			}
			if _, isSlice := v.Type().Underlying().(*types.Slice); !isSlice {
				return true
			}
			for _, o := range g.PointsToObj(v) {
				if o.NVM {
					tainted[v] = true
					break
				}
			}
		}
		return true
	})
	return tainted
}

// isNVMSlice reports whether e denotes bytes of the NVM mapping: a
// direct Heap.Bytes call, a slice of one, or a variable assigned from
// one in this function.
func isNVMSlice(pass *analysis.Pass, e ast.Expr, tainted map[types.Object]bool) bool {
	if analysis.IsBytesCall(pass.Info, e) {
		return true
	}
	switch e := e.(type) {
	case *ast.SliceExpr:
		return isNVMSlice(pass, e.X, tainted)
	case *ast.Ident:
		if obj := pass.Info.Uses[e]; obj != nil {
			return tainted[obj]
		}
	}
	return false
}
