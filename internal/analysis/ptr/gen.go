package ptr

// Constraint generation: one pass over every function body (and the
// package-level var initializers) that turns Go syntax into copy, load,
// store and dynamic-call constraints, with intrinsic models for the
// cross-package nvm API so PPtr provenance survives the uint64
// conversions the heap interface forces.

import (
	"go/ast"
	"go/token"
	"go/types"

	"hyrisenv/internal/analysis"
)

// fctx is the enclosing-function context of a walk: the key identifies
// the function for result-node lookup (a *types.Func, an *ast.FuncLit,
// or nil at package level).
type fctx struct {
	key any
	sig *types.Signature
}

// leakless names packages whose calls cannot retain their arguments:
// passing a pointer to them does not make the pointee escape.
var leakless = map[string]bool{
	"atomic": true, "math": true, "bits": true, "binary": true,
	"bytes": true, "strings": true, "strconv": true, "sort": true,
	"errors": true, "fmt": true, "unicode": true, "utf8": true,
}

func (g *Graph) generate() {
	// Parameter and receiver seeding: values entering an analyzed
	// function from outside get the type-shared extern object, so
	// field facts unify across every function that sees the type.
	// Interface and func parameters stay empty — their points-to sets
	// fill in only from in-package bindings, and unresolved dispatch
	// is surfaced in Stats rather than guessed at.
	for fn := range g.fns {
		sig := fn.Type().(*types.Signature)
		if r := sig.Recv(); r != nil {
			g.seedParam(r)
		}
		for i := 0; i < sig.Params().Len(); i++ {
			g.seedParam(sig.Params().At(i))
		}
		for i := 0; i < sig.Results().Len(); i++ {
			g.sinks = append(g.sinks, g.resultNode(fn, i, sig))
		}
	}
	// Package-level vars: initializers generate constraints, and every
	// global is an escape sink.
	pkgCtx := &fctx{}
	for _, f := range g.files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					g.genValueSpec(pkgCtx, vs)
				}
			}
		}
	}
	if scope := g.tpkg.Scope(); scope != nil {
		for _, name := range scope.Names() {
			if v, ok := scope.Lookup(name).(*types.Var); ok {
				g.sinks = append(g.sinks, g.varNode(v))
			}
		}
	}
	for fn, fd := range g.fns {
		g.walkBody(&fctx{key: fn, sig: fn.Type().(*types.Signature)}, fd.Body)
	}
}

func (g *Graph) seedParam(v *types.Var) {
	t := v.Type()
	if isBasicNonPPtr(t) {
		return
	}
	switch t.Underlying().(type) {
	case *types.Interface, *types.Signature:
		return
	}
	g.addTo(g.varNode(v), g.typeExtern(t))
}

// resultNode returns the node a function's i-th result flows through:
// the named result variable when there is one, a synthetic node
// otherwise.
func (g *Graph) resultNode(key any, i int, sig *types.Signature) int {
	if sig != nil && i < sig.Results().Len() {
		if v := sig.Results().At(i); v.Name() != "" {
			return g.varNode(v)
		}
	}
	k := retKey{fn: key, i: i}
	if n, ok := g.retNodes[k]; ok {
		return n
	}
	n := g.newNode()
	g.retNodes[k] = n
	return n
}

// ---------------------------------------------------------------------------
// Statement walk.

func (g *Graph) walkBody(fc *fctx, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			g.genAssign(fc, n)
			return false
		case *ast.ValueSpec:
			g.genValueSpec(fc, n)
			return false
		case *ast.ReturnStmt:
			g.genReturn(fc, n)
			return false
		case *ast.SendStmt:
			ch := g.genExpr(fc, n.Chan)
			val := g.genExpr(fc, n.Value)
			g.stores = append(g.stores, storec{dst: ch, field: "[*]", src: val})
			if val >= 0 {
				g.sinks = append(g.sinks, val)
			}
			return false
		case *ast.GoStmt:
			g.genExpr(fc, n.Call)
			g.sinkCall(n.Call)
			return false
		case *ast.RangeStmt:
			g.genRange(fc, n)
			return true // body statements still walked by Inspect
		case *ast.TypeSwitchStmt:
			g.genTypeSwitch(fc, n)
			return true
		case *ast.IncDecStmt:
			return false
		case ast.Expr:
			g.genExpr(fc, n)
			return false
		}
		return true
	})
}

// sinkCall marks a goroutine call's function and arguments as escape
// sinks: the spawned goroutine outlives the frame.
func (g *Graph) sinkCall(call *ast.CallExpr) {
	// exprNodes caches -1 for expressions with no pointer structure (a
	// literal argument, say), so presence in the map is not enough.
	if n, ok := g.exprNodes[ast.Unparen(call.Fun)]; ok && n >= 0 {
		g.sinks = append(g.sinks, n)
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if n, ok := g.exprNodes[sel.X]; ok && n >= 0 {
			g.sinks = append(g.sinks, n)
		}
	}
	for _, a := range call.Args {
		if n, ok := g.exprNodes[a]; ok && n >= 0 {
			g.sinks = append(g.sinks, n)
		}
	}
}

func (g *Graph) genAssign(fc *fctx, as *ast.AssignStmt) {
	if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
		if call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr); ok {
			g.genExpr(fc, call)
			rns := g.callRes[call]
			for i, lhs := range as.Lhs {
				if i < len(rns) {
					g.assignTo(fc, lhs, rns[i])
				}
			}
			return
		}
		// v, ok := x.(T) / m[k] / <-ch: only the first value carries
		// provenance.
		rn := g.genExpr(fc, as.Rhs[0])
		g.assignTo(fc, as.Lhs[0], rn)
		return
	}
	for i := range as.Rhs {
		if i >= len(as.Lhs) {
			break
		}
		rn := g.genExpr(fc, as.Rhs[i])
		g.assignTo(fc, as.Lhs[i], rn)
	}
}

func (g *Graph) genValueSpec(fc *fctx, vs *ast.ValueSpec) {
	if len(vs.Values) == 1 && len(vs.Names) > 1 {
		if call, ok := ast.Unparen(vs.Values[0]).(*ast.CallExpr); ok {
			g.genExpr(fc, call)
			rns := g.callRes[call]
			for i, name := range vs.Names {
				if i < len(rns) {
					g.assignTo(fc, name, rns[i])
				}
			}
			return
		}
	}
	for i, name := range vs.Names {
		if i < len(vs.Values) {
			rn := g.genExpr(fc, vs.Values[i])
			g.assignTo(fc, name, rn)
		}
	}
}

// assignTo routes rn into the lvalue lhs: a copy for variables, a
// field/element store for everything reached through a pointer.
func (g *Graph) assignTo(fc *fctx, lhs ast.Expr, rn int) {
	switch l := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if l.Name == "_" {
			return
		}
		obj := g.info.Defs[l]
		if obj == nil {
			obj = g.info.Uses[l]
		}
		if v, ok := obj.(*types.Var); ok {
			g.addCopy(rn, g.varNode(v))
		}
	case *ast.SelectorExpr:
		if sel, ok := g.info.Selections[l]; ok && sel.Kind() == types.FieldVal {
			base := g.genExpr(fc, l.X)
			g.stores = append(g.stores, storec{dst: base, field: sel.Obj().Name(), src: rn})
			return
		}
		if v, ok := g.info.Uses[l.Sel].(*types.Var); ok { // pkg.Global
			g.addCopy(rn, g.varNode(v))
			g.sinks = append(g.sinks, g.varNode(v))
		}
	case *ast.StarExpr:
		base := g.genExpr(fc, l.X)
		g.stores = append(g.stores, storec{dst: base, field: "*", src: rn})
	case *ast.IndexExpr:
		base := g.genExpr(fc, l.X)
		g.stores = append(g.stores, storec{dst: base, field: "[*]", src: rn})
		if _, ok := g.info.TypeOf(l.X).Underlying().(*types.Map); ok {
			kn := g.genExpr(fc, l.Index)
			g.stores = append(g.stores, storec{dst: base, field: "[k]", src: kn})
		}
	}
}

func (g *Graph) genReturn(fc *fctx, ret *ast.ReturnStmt) {
	if fc.sig == nil || len(ret.Results) == 0 {
		return
	}
	if len(ret.Results) == 1 && fc.sig.Results().Len() > 1 {
		if call, ok := ast.Unparen(ret.Results[0]).(*ast.CallExpr); ok {
			g.genExpr(fc, call)
			for i, rn := range g.callRes[call] {
				g.addCopy(rn, g.resultNode(fc.key, i, fc.sig))
			}
			return
		}
	}
	for i, r := range ret.Results {
		rn := g.genExpr(fc, r)
		g.addCopy(rn, g.resultNode(fc.key, i, fc.sig))
	}
}

func (g *Graph) genRange(fc *fctx, rs *ast.RangeStmt) {
	xn := g.genExpr(fc, rs.X)
	t := g.info.TypeOf(rs.X)
	if rs.Value != nil {
		tmp := g.newNode()
		g.loads = append(g.loads, loadc{dst: tmp, src: xn, field: "[*]", typ: g.info.TypeOf(rs.Value)})
		g.assignTo(fc, rs.Value, tmp)
	}
	if rs.Key != nil && t != nil {
		switch t.Underlying().(type) {
		case *types.Map:
			tmp := g.newNode()
			g.loads = append(g.loads, loadc{dst: tmp, src: xn, field: "[k]", typ: g.info.TypeOf(rs.Key)})
			g.assignTo(fc, rs.Key, tmp)
		case *types.Chan:
			tmp := g.newNode()
			g.loads = append(g.loads, loadc{dst: tmp, src: xn, field: "[*]", typ: g.info.TypeOf(rs.Key)})
			g.assignTo(fc, rs.Key, tmp)
		}
	}
}

func (g *Graph) genTypeSwitch(fc *fctx, ts *ast.TypeSwitchStmt) {
	var x ast.Expr
	switch a := ts.Assign.(type) {
	case *ast.ExprStmt:
		if ta, ok := ast.Unparen(a.X).(*ast.TypeAssertExpr); ok {
			x = ta.X
		}
	case *ast.AssignStmt:
		if ta, ok := ast.Unparen(a.Rhs[0]).(*ast.TypeAssertExpr); ok {
			x = ta.X
		}
	}
	if x == nil {
		return
	}
	xn := g.genExpr(fc, x)
	for _, stmt := range ts.Body.List {
		clause, ok := stmt.(*ast.CaseClause)
		if !ok {
			continue
		}
		if v, ok := g.info.Implicits[clause].(*types.Var); ok {
			g.addCopy(xn, g.varNode(v))
		}
	}
}

// ---------------------------------------------------------------------------
// Expression constraint generation. genExpr is memoized per syntax
// node, so shared subexpressions generate constraints once.

func (g *Graph) genExpr(fc *fctx, e ast.Expr) int {
	if e == nil {
		return -1
	}
	if n, ok := g.exprNodes[e]; ok {
		return n
	}
	n := g.gen(fc, e)
	g.exprNodes[e] = n
	return n
}

func (g *Graph) gen(fc *fctx, e ast.Expr) int {
	switch e := e.(type) {
	case *ast.Ident:
		obj := g.info.Uses[e]
		if obj == nil {
			obj = g.info.Defs[e]
		}
		switch obj := obj.(type) {
		case *types.Var:
			return g.varNode(obj)
		case *types.Func:
			return g.funcValNode(obj, -1)
		}
		return -1
	case *ast.ParenExpr:
		return g.genExpr(fc, e.X)
	case *ast.SelectorExpr:
		return g.genSelector(fc, e)
	case *ast.StarExpr:
		n := g.newNode()
		g.loads = append(g.loads, loadc{dst: n, src: g.genExpr(fc, e.X), field: "*", typ: g.info.TypeOf(e)})
		return n
	case *ast.UnaryExpr:
		return g.genUnary(fc, e)
	case *ast.BinaryExpr:
		n := g.newNode()
		g.addCopy(g.genExpr(fc, e.X), n)
		g.addCopy(g.genExpr(fc, e.Y), n)
		return n
	case *ast.IndexExpr:
		if fn, ok := g.info.Uses[identOf(e.X)].(*types.Func); ok {
			return g.funcValNode(fn, -1) // generic instantiation
		}
		if tv, ok := g.info.Types[e]; ok && tv.IsType() {
			return -1
		}
		n := g.newNode()
		g.loads = append(g.loads, loadc{dst: n, src: g.genExpr(fc, e.X), field: "[*]", typ: g.info.TypeOf(e)})
		g.genExpr(fc, e.Index)
		return n
	case *ast.IndexListExpr:
		if fn, ok := g.info.Uses[identOf(e.X)].(*types.Func); ok {
			return g.funcValNode(fn, -1)
		}
		return -1
	case *ast.SliceExpr:
		g.genExpr(fc, e.Low)
		g.genExpr(fc, e.High)
		g.genExpr(fc, e.Max)
		return g.genExpr(fc, e.X)
	case *ast.TypeAssertExpr:
		return g.genExpr(fc, e.X)
	case *ast.CallExpr:
		return g.genCall(fc, e)
	case *ast.CompositeLit:
		return g.genComposite(fc, e)
	case *ast.FuncLit:
		return g.genFuncLit(fc, e)
	}
	return -1
}

func identOf(e ast.Expr) *ast.Ident {
	id, _ := ast.Unparen(e).(*ast.Ident)
	return id
}

func (g *Graph) genSelector(fc *fctx, e *ast.SelectorExpr) int {
	if sel, ok := g.info.Selections[e]; ok {
		switch sel.Kind() {
		case types.FieldVal:
			n := g.newNode()
			g.loads = append(g.loads, loadc{dst: n, src: g.genExpr(fc, e.X), field: sel.Obj().Name(), typ: g.info.TypeOf(e)})
			return n
		case types.MethodVal:
			// Method value: a fresh function object carrying its bound
			// receiver, so a later call through it binds the receiver.
			fn, _ := sel.Obj().(*types.Func)
			recv := g.genExpr(fc, e.X)
			o := g.newObj(FuncVal, e.Pos(), "method value "+sel.Obj().Name(), g.info.TypeOf(e))
			o.Fn = fn
			o.recvNode = recv
			n := g.newNode()
			g.addTo(n, o.ID)
			return n
		case types.MethodExpr:
			if fn, ok := sel.Obj().(*types.Func); ok {
				return g.funcValNode(fn, -1)
			}
		}
		return -1
	}
	// Package-qualified: pkg.Var or pkg.Func.
	switch obj := g.info.Uses[e.Sel].(type) {
	case *types.Var:
		return g.varNode(obj)
	case *types.Func:
		return g.funcValNode(obj, -1)
	}
	return -1
}

func (g *Graph) genUnary(fc *fctx, e *ast.UnaryExpr) int {
	switch e.Op {
	case token.AND:
		core := ast.Unparen(e.X)
		if id, ok := core.(*ast.Ident); ok {
			if v, ok := g.info.Uses[id].(*types.Var); ok {
				n := g.newNode()
				g.addTo(n, g.frameObjID(v))
				return n
			}
		}
		// &T{...}, &x.f, &a[i]: the pointer aliases the underlying
		// object; field granularity collapses to the object.
		return g.genExpr(fc, e.X)
	case token.ARROW:
		n := g.newNode()
		g.loads = append(g.loads, loadc{dst: n, src: g.genExpr(fc, e.X), field: "[*]", typ: g.info.TypeOf(e)})
		return n
	default:
		return g.genExpr(fc, e.X)
	}
}

func (g *Graph) frameObjID(v types.Object) int {
	if id, ok := g.frameObjs[v]; ok {
		return id
	}
	o := g.newObj(Frame, v.Pos(), "&"+v.Name(), v.Type())
	o.frameVar = v
	g.frameObjs[v] = o.ID
	return o.ID
}

func (g *Graph) funcValNode(fn *types.Func, recv int) int {
	key := any(fn)
	if id, ok := g.funcObjs[key]; ok {
		n := g.newNode()
		g.addTo(n, id)
		return n
	}
	o := g.newObj(FuncVal, fn.Pos(), "func "+fn.Name(), fn.Type())
	o.Fn = fn
	o.recvNode = recv
	g.funcObjs[key] = o.ID
	n := g.newNode()
	g.addTo(n, o.ID)
	return n
}

func (g *Graph) genComposite(fc *fctx, e *ast.CompositeLit) int {
	t := g.info.TypeOf(e)
	o := g.newObj(HeapObj, e.Pos(), "composite allocated at "+g.fset.Position(e.Pos()).String(), t)
	o.site = true
	if carriesPPtr(t) {
		o.NVM = true
	}
	n := g.newNode()
	g.addTo(n, o.ID)
	st, _ := t.Underlying().(*types.Struct)
	for i, elt := range e.Elts {
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			vn := g.genExpr(fc, kv.Value)
			if key, ok := kv.Key.(*ast.Ident); ok && st != nil {
				g.stores = append(g.stores, storec{dst: n, field: key.Name, src: vn})
			} else {
				g.genExpr(fc, kv.Key)
				g.stores = append(g.stores, storec{dst: n, field: "[*]", src: vn})
			}
			continue
		}
		vn := g.genExpr(fc, elt)
		field := "[*]"
		if st != nil && i < st.NumFields() {
			field = st.Field(i).Name()
		}
		g.stores = append(g.stores, storec{dst: n, field: field, src: vn})
	}
	return n
}

func (g *Graph) genFuncLit(fc *fctx, e *ast.FuncLit) int {
	o := g.newObj(FuncVal, e.Pos(), "func literal at "+g.fset.Position(e.Pos()).String(), g.info.TypeOf(e))
	o.Lit = e
	g.funcObjs[any(e)] = o.ID
	n := g.newNode()
	g.addTo(n, o.ID)
	sig, _ := g.info.TypeOf(e).(*types.Signature)
	lc := &fctx{key: e, sig: sig}
	if sig != nil {
		for i := 0; i < sig.Results().Len(); i++ {
			g.sinks = append(g.sinks, g.resultNode(e, i, sig))
		}
	}
	g.walkBody(lc, e.Body)
	return n
}

// ---------------------------------------------------------------------------
// Calls.

func (g *Graph) genCall(fc *fctx, call *ast.CallExpr) int {
	// Conversion: provenance passes through — uint64(p) still carries
	// the PPtr's block.
	if tv, ok := g.info.Types[call.Fun]; ok && tv.IsType() {
		n := g.newNode()
		for _, a := range call.Args {
			g.addCopy(g.genExpr(fc, a), n)
		}
		return n
	}
	if id := identOf(call.Fun); id != nil {
		if b, ok := g.info.Uses[id].(*types.Builtin); ok {
			return g.genBuiltin(fc, call, b.Name())
		}
	}

	args := make([]int, len(call.Args))
	for i, a := range call.Args {
		args[i] = g.genExpr(fc, a)
	}
	res := g.resNodesOf(call)

	fun := ast.Unparen(call.Fun)
	var static *types.Func
	recv := -1
	switch f := fun.(type) {
	case *ast.Ident:
		if fn, ok := g.info.Uses[f].(*types.Func); ok {
			static = fn
		} else {
			g.dynSites[call] = true
			g.dyns = append(g.dyns, dync{call: call, fun: g.genExpr(fc, f), recv: -1})
		}
	case *ast.SelectorExpr:
		if sel, ok := g.info.Selections[f]; ok {
			switch sel.Kind() {
			case types.MethodVal:
				fn, _ := sel.Obj().(*types.Func)
				recv = g.genExpr(fc, f.X)
				if types.IsInterface(sel.Recv()) {
					g.dynSites[call] = true
					g.dyns = append(g.dyns, dync{call: call, fun: -1, recv: recv, method: fn.Name()})
				} else {
					static = fn
				}
			case types.FieldVal:
				g.dynSites[call] = true
				g.dyns = append(g.dyns, dync{call: call, fun: g.genExpr(fc, f), recv: -1})
			case types.MethodExpr:
				if fn, ok := sel.Obj().(*types.Func); ok {
					static = fn
					if len(args) > 0 {
						recv = args[0]
						args = args[1:]
					}
				}
			}
		} else if fn, ok := g.info.Uses[f.Sel].(*types.Func); ok {
			static = fn
		} else if _, ok := g.info.Uses[f.Sel].(*types.Var); ok {
			g.dynSites[call] = true
			g.dyns = append(g.dyns, dync{call: call, fun: g.genExpr(fc, f), recv: -1})
		}
	default:
		g.dynSites[call] = true
		g.dyns = append(g.dyns, dync{call: call, fun: g.genExpr(fc, fun), recv: -1})
	}

	if static != nil {
		g.recordCallee(call, static)
		if _, ok := g.fns[static]; ok {
			g.bindStatic(call, static, recv, args, res)
		} else {
			g.genExtern(call, static, recv, args, res)
		}
		g.atomicCopy(fc, fun, static, recv, args, res)
	}
	if len(res) == 0 {
		return -1
	}
	return res[0]
}

// atomicCopy models the Load and Store methods of the sync/atomic types
// as the copies they are: x.Store(v) assigns v to x, and x.Load() reads
// x, so a pointer kept in an atomic word keeps its provenance.
func (g *Graph) atomicCopy(fc *fctx, fun ast.Expr, fn *types.Func, recv int, args, res []int) {
	sel, ok := fun.(*ast.SelectorExpr)
	if !ok || recv < 0 || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
		return
	}
	switch {
	case fn.Name() == "Load" && len(res) == 1:
		g.addCopy(recv, res[0])
	case fn.Name() == "Store" && len(args) == 1 && args[0] >= 0:
		g.assignTo(fc, sel.X, args[0])
	}
}

// resNodesOf allocates (once) the per-call result nodes.
func (g *Graph) resNodesOf(call *ast.CallExpr) []int {
	if rns, ok := g.callRes[call]; ok {
		return rns
	}
	k := 0
	if tv, ok := g.info.Types[call]; ok && tv.Type != nil {
		if tup, ok := tv.Type.(*types.Tuple); ok {
			k = tup.Len()
		} else if b, ok := tv.Type.(*types.Basic); !ok || b.Kind() != types.Invalid {
			k = 1
		}
	}
	rns := make([]int, k)
	for i := range rns {
		rns[i] = g.newNode()
	}
	g.callRes[call] = rns
	return rns
}

// bindStatic wires a static in-package call: arguments to parameters,
// receiver to receiver, results back to the call site.
func (g *Graph) bindStatic(call *ast.CallExpr, fn *types.Func, recv int, args, res []int) {
	sig := fn.Type().(*types.Signature)
	if r := sig.Recv(); r != nil && recv >= 0 {
		g.addCopy(recv, g.varNode(r))
	}
	params := sig.Params()
	for i, an := range args {
		if i < params.Len() {
			g.addCopy(an, g.varNode(params.At(i)))
		} else if params.Len() > 0 {
			// Variadic overflow: collapse into the slice parameter.
			g.addCopy(an, g.varNode(params.At(params.Len()-1)))
		}
	}
	for i := range res {
		g.addCopy(g.resultNode(fn, i, sig), res[i])
	}
}

// bindLitCall wires a resolved call through a function literal.
func (g *Graph) bindLitCall(call *ast.CallExpr, lit *ast.FuncLit) {
	sig, _ := g.info.TypeOf(lit).(*types.Signature)
	if sig == nil {
		return
	}
	g.recordLitCallee(call)
	params := sig.Params()
	for i, a := range call.Args {
		an := g.exprNodes[a]
		if i < params.Len() {
			g.addCopy(an, g.varNode(params.At(i)))
		} else if params.Len() > 0 {
			g.addCopy(an, g.varNode(params.At(params.Len()-1)))
		}
	}
	for i, rn := range g.callRes[call] {
		g.addCopy(g.resultNode(lit, i, sig), rn)
	}
}

// recordLitCallee marks a call as resolved even though a literal has no
// *types.Func: the non-nil callee map is what Stats counts as resolved;
// the callgraph result itself only carries named functions.
func (g *Graph) recordLitCallee(call *ast.CallExpr) {
	if g.callees[call] == nil {
		g.callees[call] = map[*types.Func]struct{}{}
	}
}

func (g *Graph) genBuiltin(fc *fctx, call *ast.CallExpr, name string) int {
	switch name {
	case "new":
		t := g.info.TypeOf(call)
		o := g.newObj(HeapObj, call.Pos(), "new at "+g.fset.Position(call.Pos()).String(), t)
		o.site = true
		if carriesPPtr(t) {
			o.NVM = true
		}
		n := g.newNode()
		g.addTo(n, o.ID)
		return n
	case "make":
		t := g.info.TypeOf(call)
		o := g.newObj(HeapObj, call.Pos(), "make at "+g.fset.Position(call.Pos()).String(), t)
		o.site = true
		if carriesPPtr(t) {
			o.NVM = true
		}
		n := g.newNode()
		g.addTo(n, o.ID)
		return n
	case "append":
		n := g.newNode()
		if len(call.Args) == 0 {
			return n
		}
		g.addCopy(g.genExpr(fc, call.Args[0]), n)
		t := g.info.TypeOf(call)
		o := g.newObj(HeapObj, call.Pos(), "append backing at "+g.fset.Position(call.Pos()).String(), t)
		o.site = true
		if carriesPPtr(t) {
			o.NVM = true
		}
		g.addTo(n, o.ID)
		if call.Ellipsis.IsValid() && len(call.Args) == 2 {
			tmp := g.newNode()
			g.loads = append(g.loads, loadc{dst: tmp, src: g.genExpr(fc, call.Args[1]), field: "[*]"})
			g.stores = append(g.stores, storec{dst: n, field: "[*]", src: tmp})
		} else {
			for _, a := range call.Args[1:] {
				g.stores = append(g.stores, storec{dst: n, field: "[*]", src: g.genExpr(fc, a)})
			}
		}
		return n
	case "copy":
		if len(call.Args) == 2 {
			dst := g.genExpr(fc, call.Args[0])
			src := g.genExpr(fc, call.Args[1])
			tmp := g.newNode()
			g.loads = append(g.loads, loadc{dst: tmp, src: src, field: "[*]"})
			g.stores = append(g.stores, storec{dst: dst, field: "[*]", src: tmp})
		}
		return -1
	default:
		for _, a := range call.Args {
			g.genExpr(fc, a)
		}
		return -1
	}
}

// genExtern models a call that leaves the package: intrinsics for the
// nvm heap API, a type-shared extern object for everything else.
func (g *Graph) genExtern(call *ast.CallExpr, fn *types.Func, recv int, args, res []int) {
	sig := fn.Type().(*types.Signature)
	if r := sig.Recv(); r != nil {
		if analysis.NamedFrom(r.Type(), "nvm", "Heap") && g.heapIntrinsic(call, fn.Name(), recv, args, res) {
			return
		}
		if analysis.NamedFrom(r.Type(), "nvm", "PPtr") && fn.Name() == "Add" && len(res) > 0 {
			g.addCopy(recv, res[0])
			return
		}
	}

	// Generic external call: pointer arguments and the receiver escape
	// unless the callee's package provably does not retain them;
	// results materialize as type-shared extern objects.
	pkgName := ""
	if fn.Pkg() != nil {
		pkgName = fn.Pkg().Name()
	}
	if !leakless[pkgName] {
		for _, an := range args {
			if an >= 0 {
				g.sinks = append(g.sinks, an)
			}
		}
		if recv >= 0 {
			g.sinks = append(g.sinks, recv)
		}
	}
	for i := range res {
		if i < sig.Results().Len() {
			t := sig.Results().At(i).Type()
			if !isBasicNonPPtr(t) {
				g.addTo(res[i], g.typeExtern(t))
			}
		}
	}
}

// heapIntrinsic models the nvm.Heap methods that move provenance.
// Returns false for methods with no pointer effect so the generic
// extern path handles them (they are all leakless-safe, so it reports
// true for those too).
func (g *Graph) heapIntrinsic(call *ast.CallExpr, name string, recv int, args, res []int) bool {
	arg := func(i int) int {
		if i < len(args) {
			return args[i]
		}
		return -1
	}
	switch name {
	case "Alloc":
		o := g.newObj(Block, call.Pos(), "block allocated at "+g.fset.Position(call.Pos()).String(), g.info.TypeOf(call))
		o.NVM = true
		o.site = true
		if len(res) > 0 {
			g.addTo(res[0], o.ID)
		}
	case "Bytes", "Words":
		if len(res) > 0 {
			g.addCopy(arg(0), res[0])
		}
	case "U64", "GetU64", "GetU32", "U32":
		if len(res) > 0 && arg(0) >= 0 {
			g.loads = append(g.loads, loadc{dst: res[0], src: arg(0), field: "*", typ: g.info.TypeOf(call)})
		}
	case "SetU64", "PutU64", "PutU32", "SetU32":
		if arg(0) >= 0 && arg(1) >= 0 {
			g.stores = append(g.stores, storec{dst: arg(0), field: "*", src: arg(1)})
		}
	case "CasU64":
		if arg(0) >= 0 && arg(2) >= 0 {
			g.stores = append(g.stores, storec{dst: arg(0), field: "*", src: arg(2)})
		}
	case "SetRoot":
		// The PPtr-typed argument becomes reachable from the persisted
		// root; identified by type so the real (name string, p, aux)
		// and fixture (slot uint32, p) signatures both match.
		for i, a := range call.Args {
			if analysis.IsPPtr(g.info.TypeOf(a)) && arg(i) >= 0 {
				rn := g.newNode()
				g.addTo(rn, g.rootObj)
				g.stores = append(g.stores, storec{dst: rn, field: "*", src: arg(i)})
			}
		}
	case "Root":
		rn := g.newNode()
		g.addTo(rn, g.rootObj)
		for i := range res {
			if analysis.IsPPtr(g.info.TypeOf(call)) || i == 0 {
				g.loads = append(g.loads, loadc{dst: res[i], src: rn, field: "*", typ: g.info.TypeOf(call)})
				break
			}
		}
	case "Persist", "PersistBytes", "Flush", "FlushBytes", "Fence", "Drain", "Close":
		// Durability barriers move no pointers.
	default:
		return false
	}
	return true
}
