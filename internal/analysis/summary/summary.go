// Package summary provides the callgraphs the analyzers compute
// per-function summaries over, so they can model calls to helpers they
// can see instead of ignoring them: the functions of one package with
// their static callees and in-package caller counts, and (Graph) the
// module-wide resolved callgraph.
//
// The per-package callgraph is static: a call edge exists where the
// callee resolves (through go/types) to a function or method declared
// in the package under analysis. Interface dispatch, function values
// and cross-package calls have no edge here; the points-to layer
// (internal/analysis/ptr) resolves those.
package summary

import (
	"go/ast"
	"go/types"

	"hyrisenv/internal/analysis"
)

// Functions returns every function and method declared in the package
// with a body, keyed by its types object.
func Functions(pass *analysis.Pass) map[*types.Func]*ast.FuncDecl {
	fns := map[*types.Func]*ast.FuncDecl{}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
				fns[obj] = fd
			}
		}
	}
	return fns
}

// staticCallee resolves call to the *types.Func it statically invokes:
// a plain function call or a concrete method call. Calls through
// interfaces, function-typed variables and built-ins resolve to nil.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		// A method call through an interface value resolves to the
		// interface method, which has no body anywhere; the caller's
		// Functions map lookup will miss it, so returning it is safe.
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// Callers returns, for every function of fns, how many in-package
// sites invoke or capture it from *other* functions of the package
// (self-recursion does not count as a caller). Two kinds of site
// count: static call sites, and references in non-call position —
// method values and function values stored into variables, fields or
// arguments. A referenced function escapes into a value whose eventual
// call sites inherit its obligations, so for the unexported-helper
// obligation-shift rule a reference is as good as a call; before this
// was counted, such helpers silently vanished from the caller map and
// the shift rule over-reported them.
func Callers(pass *analysis.Pass, fns map[*types.Func]*ast.FuncDecl) map[*types.Func]int {
	count := map[*types.Func]int{}
	for caller, fd := range fns {
		// First pass: static call sites, remembering which identifiers
		// are the operator of a call so the second pass can skip them.
		inCallPos := map[*ast.Ident]bool{}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			switch fun := ast.Unparen(call.Fun).(type) {
			case *ast.Ident:
				inCallPos[fun] = true
			case *ast.SelectorExpr:
				inCallPos[fun.Sel] = true
			}
			callee := staticCallee(pass.Info, call)
			if callee != nil && callee != caller {
				if _, inPkg := fns[callee]; inPkg {
					count[callee]++
				}
			}
			return true
		})
		// Second pass: method values and stored function values.
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok || inCallPos[id] {
				return true
			}
			fn, ok := pass.Info.Uses[id].(*types.Func)
			if !ok || fn == caller {
				return true
			}
			if _, inPkg := fns[fn]; inPkg {
				count[fn]++
			}
			return true
		})
	}
	return count
}
