package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Decisions more than one analyzer of the suite takes, each in one place:
// what the persist-barrier, heap-write and flush vocabulary of the engine
// is, what counts as a waiver, and how a function body is walked.

// PersistNames are the methods that flush and fence in one call.
// lockcheck adds the split-barrier halves Fence and Drain.
var PersistNames = map[string]bool{
	"Persist": true, "PersistBytes": true, "PersistAt": true,
	"PersistRange": true, "PersistBegin": true, "PersistEnd": true,
}

// HeapWriteNames are the nvm.Heap methods that store to the mapping.
var HeapWriteNames = map[string]bool{
	"SetU64": true, "PutU64": true, "PutU32": true,
}

// FlushAtNames are the per-element flush methods (pstruct vectors, MVCC
// stamp stores). Unlike "Flush" the names are unambiguous, so they are
// matched on any receiver; plain Flush/FlushBytes require a Heap
// receiver to avoid classifying bufio.Writer.Flush as an NVM event.
var FlushAtNames = map[string]bool{
	"FlushAt": true, "FlushBegin": true, "FlushEnd": true,
}

// SliceMutators are package-level functions known to write through a
// slice argument (pstruct.PackBits, the writer of the bit-sliced format).
var SliceMutators = map[string]bool{
	"PackBits": true,
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

// nopersistPrefix is the function-level suppression marker.
const nopersistPrefix = "//nvm:nopersist"

// Nopersist reports whether fn carries a //nvm:nopersist annotation and
// whether it has the mandatory reason.
func Nopersist(fn *ast.FuncDecl) (annotated, reasoned bool) {
	if fn.Doc == nil {
		return false, false
	}
	for _, c := range fn.Doc.List {
		if rest, ok := strings.CutPrefix(c.Text, nopersistPrefix); ok {
			return true, strings.TrimSpace(rest) != ""
		}
	}
	return false, false
}

// PkgPrivate reports whether fn is invisible outside its package: an
// unexported function, or a method whose receiver type is unexported.
func PkgPrivate(obj *types.Func, fn *ast.FuncDecl) bool {
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

// IsErrorReturn reports whether ret propagates a (possibly) non-nil
// error — an abort path on which nothing written becomes reachable.
// `return nil` / `return x, nil` do not qualify: they are the success
// path and keep the return-obligation.
func IsErrorReturn(info *types.Info, ret *ast.ReturnStmt) bool {
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
