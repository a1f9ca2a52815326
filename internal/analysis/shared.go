package analysis

import (
	"go/ast"
	"go/types"
)

// Decisions more than one analyzer of the suite takes, each in one place:
// what a persist barrier is, what a slice of the NVM mapping and a
// persistent pointer are, and how a function body is walked.

// PersistNames are the methods that flush and fence in one call.
// lockcheck adds the split-barrier halves Fence and Drain.
var PersistNames = map[string]bool{
	"Persist": true, "PersistBytes": true, "PersistAt": true,
	"PersistRange": true, "PersistBegin": true, "PersistEnd": true,
}

// ForEachCall visits the CallExprs of n in source order, skipping
// closure bodies: a closure is a separate function, run at an unknown
// time with its own contract and lockset.
func ForEachCall(n ast.Node, visit func(*ast.CallExpr)) {
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := m.(*ast.CallExpr); ok {
			visit(call)
		}
		return true
	})
}

// IsBytesCall reports whether e is a direct Heap.Bytes(...) or
// Heap.Words(...) call (or a slice expression of one): a slice that
// aliases the mapping.
func IsBytesCall(info *types.Info, e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.SliceExpr:
		return IsBytesCall(info, e.X)
	case *ast.CallExpr:
		name, _ := CalleeName(info, e)
		recv := ReceiverType(info, e)
		return (name == "Bytes" || name == "Words") && recv != nil && NamedFrom(recv, "nvm", "Heap")
	}
	return false
}

// IsPPtr reports whether t is (or points to) nvm.PPtr.
func IsPPtr(t types.Type) bool {
	return t != nil && NamedFrom(t, "nvm", "PPtr")
}
