package ptr

import (
	"go/ast"
	"go/types"
	"strings"
	"testing"

	"hyrisenv/internal/analysis"
)

// loadGraph solves the ptrflow fixture package once per test binary.
func loadGraph(t *testing.T) (*Graph, *analysis.Package) {
	t.Helper()
	pkgs, err := analysis.Load(analysis.FixtureDir(), "./ptrflow")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	return For(pkgs[0]), pkgs[0]
}

// fnDecl finds a named function declaration in the fixture.
func fnDecl(t *testing.T, pkg *analysis.Package, name string) *ast.FuncDecl {
	t.Helper()
	for _, f := range pkg.Syntax {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == name {
				return fd
			}
		}
	}
	t.Fatalf("function %s not found in fixture", name)
	return nil
}

// localVar resolves a variable named v declared inside function fn.
func localVar(t *testing.T, pkg *analysis.Package, fn, v string) types.Object {
	t.Helper()
	fd := fnDecl(t, pkg, fn)
	var obj types.Object
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || id.Name != v {
			return true
		}
		if def := pkg.Info.Defs[id]; def != nil {
			obj = def
			return false
		}
		return true
	})
	if obj == nil {
		t.Fatalf("variable %s not found in %s", v, fn)
	}
	return obj
}

func TestSliceAliasSharesNVMBlock(t *testing.T) {
	g, pkg := loadGraph(t)
	b := g.PointsToObj(localVar(t, pkg, "alias", "b"))
	c := g.PointsToObj(localVar(t, pkg, "alias", "c"))
	if len(b) == 0 || len(c) == 0 {
		t.Fatalf("empty points-to sets: b=%v c=%v", b, c)
	}
	if b[0].ID != c[0].ID {
		t.Errorf("alias lost: b -> %v, c -> %v", b[0].Label, c[0].Label)
	}
	for _, o := range c {
		if !o.NVM {
			t.Errorf("aliased Bytes view not NVM: %v", o.Label)
		}
	}
}

func TestVolatileAllocationStaysVolatile(t *testing.T) {
	g, pkg := loadGraph(t)
	buf := g.PointsToObj(localVar(t, pkg, "volatileBuf", "buf"))
	if len(buf) == 0 {
		t.Fatal("make result has no abstract object")
	}
	for _, o := range buf {
		if o.NVM {
			t.Errorf("volatile make tagged NVM: %v", o.Label)
		}
	}
}

func TestFieldSensitivity(t *testing.T) {
	g, pkg := loadGraph(t)
	// In link, n.next receives the fresh block but n.data must not.
	n := g.PointsToObj(localVar(t, pkg, "link", "p"))
	if len(n) == 0 {
		t.Fatal("Alloc result has no object")
	}
	blockID := n[0].ID
	fd := fnDecl(t, pkg, "link")
	var param types.Object
	ast.Inspect(fd.Type, func(node ast.Node) bool {
		if id, ok := node.(*ast.Ident); ok && id.Name == "n" {
			if def := pkg.Info.Defs[id]; def != nil {
				param = def
			}
		}
		return true
	})
	if param == nil {
		t.Fatal("param n not found")
	}
	for _, base := range g.PointsToObj(param) {
		next := g.fields[base.ID]["next"]
		data := g.fields[base.ID]["data"]
		if next == 0 {
			t.Fatalf("no next field node on %v", base.Label)
		}
		if _, ok := g.pts[next][blockID]; !ok {
			t.Errorf("n.next does not point to the allocated block")
		}
		if data != 0 {
			if _, ok := g.pts[data][blockID]; ok {
				t.Errorf("field-sensitivity lost: n.data points to n.next's block")
			}
		}
	}
}

// calleeNames collects the resolved callee names of every call inside fn.
func calleeNames(g *Graph, pkg *analysis.Package, fn *ast.FuncDecl) map[string]bool {
	out := map[string]bool{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, f := range g.Callees(call) {
			out[f.FullName()] = true
		}
		return true
	})
	return out
}

func TestInterfaceDispatchResolved(t *testing.T) {
	g, pkg := loadGraph(t)
	names := calleeNames(g, pkg, fnDecl(t, pkg, "resolve"))
	var syncHit, asyncHit bool
	for n := range names {
		if strings.Contains(n, "syncFlusher") {
			syncHit = true
		}
		if strings.Contains(n, "asyncFlusher") {
			asyncHit = true
		}
	}
	if !syncHit || !asyncHit {
		t.Errorf("interface dispatch unresolved: callees=%v", names)
	}
}

func TestFunctionValueResolved(t *testing.T) {
	g, pkg := loadGraph(t)
	names := calleeNames(g, pkg, fnDecl(t, pkg, "indirect"))
	found := false
	for n := range names {
		if strings.Contains(n, "persistHelper") {
			found = true
		}
	}
	if !found {
		t.Errorf("function-value call unresolved: callees=%v", names)
	}
}

func TestMethodValueResolved(t *testing.T) {
	g, pkg := loadGraph(t)
	names := calleeNames(g, pkg, fnDecl(t, pkg, "boundCall"))
	found := false
	for n := range names {
		if strings.Contains(n, "Persist") {
			found = true
		}
	}
	if !found {
		t.Errorf("method-value call unresolved: callees=%v", names)
	}
}

func TestConversionKeepsProvenance(t *testing.T) {
	g, pkg := loadGraph(t)
	fd := fnDecl(t, pkg, "convRoundtrip")
	// The returned expression nvm.PPtr(h.U64(slot)) must carry what was
	// stored through SetU64: the q parameter's extern block.
	var ret ast.Expr
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if r, ok := n.(*ast.ReturnStmt); ok && len(r.Results) == 1 {
			ret = r.Results[0]
		}
		return true
	})
	if ret == nil {
		t.Fatal("return not found")
	}
	objs := g.PointsTo(ret)
	if len(objs) == 0 {
		t.Fatal("conversion chain dropped provenance: empty points-to set")
	}
	anyNVM := false
	for _, o := range objs {
		if o.NVM {
			anyNVM = true
		}
	}
	if !anyNVM {
		t.Errorf("round-tripped PPtr lost NVM origin: %v", objs)
	}
}

// TestAtomicKeepsProvenance: an atomic word's Store and Load are copy
// edges, so a PPtr loaded from one points to the block stored into it.
func TestAtomicKeepsProvenance(t *testing.T) {
	g, pkg := loadGraph(t)
	var ret ast.Expr
	ast.Inspect(fnDecl(t, pkg, "atomicRoundtrip").Body, func(n ast.Node) bool {
		if r, ok := n.(*ast.ReturnStmt); ok && len(r.Results) == 1 {
			ret = r.Results[0]
		}
		return true
	})
	if ret == nil {
		t.Fatal("return not found")
	}
	objs := g.PointsTo(ret)
	for _, o := range objs {
		if o.NVM && strings.Contains(o.Label, "block allocated") {
			return
		}
	}
	t.Errorf("a PPtr loaded from an atomic word lost the block stored into it: %v", objs)
}

func TestEscapeFacts(t *testing.T) {
	g, pkg := loadGraph(t)
	for _, o := range g.PointsToObj(localVar(t, pkg, "escape", "shared")) {
		if !o.Escapes {
			t.Errorf("goroutine-shipped buffer not marked escaping: %v", o.Label)
		}
	}
	for _, o := range g.PointsToObj(localVar(t, pkg, "escape", "local")) {
		if o.Escapes {
			t.Errorf("local-only buffer marked escaping: %v", o.Label)
		}
	}
}

func TestPublishedReachability(t *testing.T) {
	g, pkg := loadGraph(t)
	rootObjs := g.PointsToObj(localVar(t, pkg, "publishChain", "root"))
	midObjs := g.PointsToObj(localVar(t, pkg, "publishChain", "mid"))
	orphanObjs := g.PointsToObj(localVar(t, pkg, "publishChain", "orphan"))
	if len(rootObjs) == 0 || len(midObjs) == 0 || len(orphanObjs) == 0 {
		t.Fatal("missing abstract objects in publishChain")
	}
	for _, o := range rootObjs {
		if !o.Published {
			t.Errorf("SetRoot target not Published: %v", o.Label)
		}
	}
	for _, o := range midObjs {
		if !o.Published {
			t.Errorf("block reachable from root not Published: %v", o.Label)
		}
	}
	for _, o := range orphanObjs {
		if o.Published {
			t.Errorf("unreachable block marked Published: %v", o.Label)
		}
	}
}

func TestStats(t *testing.T) {
	g, _ := loadGraph(t)
	s := g.Stats()
	if s.CallSites == 0 || s.Resolved == 0 {
		t.Errorf("no dynamic call sites resolved: %+v", s)
	}
	if s.NVMAlloc == 0 || s.Volatile == 0 {
		t.Errorf("allocation-site classification missing a class: %+v", s)
	}
	if s.AllocSites != s.NVMAlloc+s.Volatile {
		t.Errorf("alloc site counts inconsistent: %+v", s)
	}
}

// TestGoLaunchResolved pins goroutine launches as dynamic call edges:
// `go fv(...)` through a stored function value must resolve exactly like
// a synchronous indirect call — the whole-program callgraph (and with
// it protocheck/recoverycheck reachability) depends on these edges.
func TestGoLaunchResolved(t *testing.T) {
	g, pkg := loadGraph(t)
	names := calleeNames(g, pkg, fnDecl(t, pkg, "goLaunch"))
	found := false
	for n := range names {
		if strings.Contains(n, "persistHelper") {
			found = true
		}
	}
	if !found {
		t.Errorf("go-statement function-value call unresolved: callees=%v", names)
	}
}

// TestGoMethodValueResolved pins the method-value-with-bound-receiver
// form of a goroutine launch: `persist := h.Persist; go persist(...)`
// must produce a call edge to Heap.Persist.
func TestGoMethodValueResolved(t *testing.T) {
	g, pkg := loadGraph(t)
	names := calleeNames(g, pkg, fnDecl(t, pkg, "goBound"))
	found := false
	for n := range names {
		if strings.Contains(n, "Persist") {
			found = true
		}
	}
	if !found {
		t.Errorf("go-statement method-value call unresolved: callees=%v", names)
	}
}
