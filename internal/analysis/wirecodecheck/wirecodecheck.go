// Package wirecodecheck enforces exhaustiveness over the wire
// protocol's enumerations so a newly added opcode or error code cannot
// silently fall through to a generic error path.
//
// The analyzer reports:
//
//   - a switch whose tag has type wire.Type that does not list every
//     exported Type constant (TypeInvalid excluded — it is the zero
//     sentinel). A default clause does NOT satisfy the check: the point
//     is that adding an opcode forces every dispatch site to make an
//     explicit decision.
//   - a switch whose cases mention wire error-code constants (Code*)
//     but do not cover all of them.
//   - a keyed composite literal indexed by wire.Type with two or more
//     entries that does not cover every constant — the String table
//     pattern.
//
// Sites that deliberately handle a subset carry a
// //nvmcheck:ignore wirecodecheck <reason> comment.
//
// Unlike the rest of the suite, this analyzer is deliberately
// flow-insensitive: exhaustiveness is a property of one syntactic
// switch or literal, not of a path, so it does not build a CFG
// (internal/analysis/cfg) the way publishcheck, lockcheck, sharecheck,
// deadlinecheck and pptrcheck do.
package wirecodecheck

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"

	"hyrisenv/internal/analysis"
)

// Analyzer is the wirecodecheck analysis.
var Analyzer = &analysis.Analyzer{
	Name: "wirecodecheck",
	Doc:  "switches over wire message types and error codes must be exhaustive",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SwitchStmt:
				checkSwitch(pass, n)
			case *ast.CompositeLit:
				checkLiteral(pass, n)
			}
			return true
		})
	}
	return nil
}

// isWireType reports whether t is the wire message-type enumeration.
func isWireType(t types.Type) bool {
	return t != nil && analysis.NamedFrom(t, "wire", "Type")
}

// constOf resolves a case expression to the *types.Const it names, if
// any.
func constOf(pass *analysis.Pass, e ast.Expr) *types.Const {
	var id *ast.Ident
	switch e := e.(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return nil
	}
	c, _ := pass.Info.Uses[id].(*types.Const)
	return c
}

func checkSwitch(pass *analysis.Pass, sw *ast.SwitchStmt) {
	// Gather the constants named in case clauses.
	named := map[string]bool{}
	var anyConst *types.Const
	codeConsts := 0
	for _, stmt := range sw.Body.List {
		cc, ok := stmt.(*ast.CaseClause)
		if !ok {
			continue
		}
		for _, e := range cc.List {
			c := constOf(pass, e)
			if c == nil {
				continue
			}
			named[c.Name()] = true
			anyConst = c
			if strings.HasPrefix(c.Name(), "Code") {
				codeConsts++
			}
		}
	}

	// Classify the enumeration. A tag of type wire.Type wins; otherwise
	// a switch whose cases name two or more wire Code* constants is an
	// error-code dispatch (the tag may be an interface field access, so
	// classification goes by the case constants).
	var pkg *types.Package
	var typ types.Type
	isCodes := false
	if sw.Tag != nil {
		if t := pass.Info.TypeOf(sw.Tag); isWireType(t) {
			pkg = t.(*types.Named).Obj().Pkg()
			typ = t
		}
	}
	if pkg == nil && codeConsts >= 2 && anyConst != nil &&
		anyConst.Pkg() != nil && anyConst.Pkg().Name() == "wire" {
		pkg, typ, isCodes = anyConst.Pkg(), anyConst.Type(), true
	}
	if pkg == nil {
		return
	}

	// The error codes share their underlying type with unrelated wire
	// constants (e.g. Version), so the code enum is delimited by the
	// Code name prefix; wire.Type is a named type and needs no prefix.
	prefix := ""
	if isCodes {
		prefix = "Code"
	}
	missing := missingConstants(pkg, typ, named, prefix)
	if len(missing) == 0 {
		return
	}
	what := "wire.Type"
	if isCodes {
		what = "wire error code"
	}
	pass.Reportf(sw.Pos(),
		"switch over %s is not exhaustive: missing %s; add explicit cases so new codes cannot fall through",
		what, strings.Join(missing, ", "))
}

// checkLiteral enforces completeness of keyed composite literals indexed
// by wire.Type — the Type.String name-table idiom.
func checkLiteral(pass *analysis.Pass, lit *ast.CompositeLit) {
	named := map[string]bool{}
	var pkg *types.Package
	var typ types.Type
	for _, el := range lit.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			return
		}
		c := constOf(pass, kv.Key)
		if c == nil || !isWireType(c.Type()) {
			return
		}
		named[c.Name()] = true
		pkg, typ = c.Pkg(), c.Type()
	}
	if len(named) < 2 || pkg == nil {
		return
	}
	missing := missingConstants(pkg, typ, named, "")
	if len(missing) == 0 {
		return
	}
	pass.Reportf(lit.Pos(),
		"composite literal keyed by wire.Type is missing %s; every opcode needs an entry",
		strings.Join(missing, ", "))
}

// missingConstants returns the names of exported package-scope constants
// of typ in pkg absent from named, restricted to the given name prefix
// when one is set. The zero sentinel TypeInvalid is never required.
func missingConstants(pkg *types.Package, typ types.Type, named map[string]bool, prefix string) []string {
	var missing []string
	for _, c := range analysis.ConstantsOf(pkg, typ) {
		if c.Name() == "TypeInvalid" {
			continue
		}
		if prefix != "" && !strings.HasPrefix(c.Name(), prefix) {
			continue
		}
		if !named[c.Name()] {
			missing = append(missing, c.Name())
		}
	}
	sort.Strings(missing)
	return missing
}
