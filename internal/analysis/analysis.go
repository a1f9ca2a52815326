// Package analysis is a small, self-contained static-analysis framework
// in the style of golang.org/x/tools/go/analysis, built only on the
// standard library so the checker suite runs in hermetic environments
// (no module downloads). It provides:
//
//   - Analyzer / Pass / Diagnostic: the unit of modular analysis. An
//     analyzer inspects one type-checked package at a time.
//   - Load: a package loader that shells out to `go list -deps -export`
//     and type-checks the target packages from source, resolving
//     imports from compiler export data (works offline).
//   - Run: the driver that applies analyzers to loaded packages and
//     filters diagnostics through suppression comments.
//   - Fixture: an analysistest-style harness that checks analyzer
//     output against `// want "regexp"` comments in testdata packages.
//
// Suppression convention: a diagnostic is suppressed by a comment
//
//	//nvmcheck:ignore <analyzer> <reason>
//
// on the reported line or the line directly above it. The reason is
// mandatory; a suppression without one is itself reported. The
// publishcheck analyzer additionally honors a function-level
// `//nvm:nopersist <reason>` annotation (see its package doc).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
	"time"
)

// An Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //nvmcheck:ignore comments. It must be a valid identifier.
	Name string
	// Doc is a one-paragraph description of the enforced invariant.
	Doc string
	// Run inspects one package and reports findings via pass.Reportf.
	Run func(pass *Pass) error
}

// A Pass provides one analyzer run with a single type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Pos, d.Message, d.Analyzer)
}

// Run applies every analyzer to every package and returns the surviving
// diagnostics, ordered by position. Diagnostics matched by a reasoned
// //nvmcheck:ignore comment are dropped; suppressions lacking a reason
// are converted into diagnostics themselves.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	res, err := RunDetailed(pkgs, analyzers)
	if err != nil {
		return nil, err
	}
	return res.Diags, nil
}

// A Result carries the surviving diagnostics of one run together with
// per-analyzer accounting: how many findings each analyzer raised and
// how many of those a reasoned //nvmcheck:ignore comment absorbed.
type Result struct {
	Diags []Diagnostic
	// Raw counts every finding an analyzer raised, before suppression
	// filtering.
	Raw map[string]int
	// Suppressed counts the findings dropped by reasoned suppressions;
	// Raw[a] - Suppressed[a] findings of analyzer a survived.
	Suppressed map[string]int
	// Elapsed is each analyzer's accumulated wall-clock across every
	// package (or, for whole-program analyzers, its single run), so the
	// -stats output can watch the analysis-time budget.
	Elapsed map[string]time.Duration
}

// RunDetailed is Run with per-analyzer finding and suppression counts.
func RunDetailed(pkgs []*Package, analyzers []*Analyzer) (*Result, error) {
	res := &Result{
		Raw:        map[string]int{},
		Suppressed: map[string]int{},
		Elapsed:    map[string]time.Duration{},
	}
	for _, a := range analyzers {
		res.Raw[a.Name] = 0
		res.Suppressed[a.Name] = 0
	}
	for _, pkg := range pkgs {
		sup := collectSuppressions(pkg)
		var raw []Diagnostic
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Syntax,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				diags:    &raw,
			}
			start := time.Now()
			err := a.Run(pass)
			res.Elapsed[a.Name] += time.Since(start)
			if err != nil {
				return nil, fmt.Errorf("analysis: %s on %s: %w", a.Name, pkg.PkgPath, err)
			}
		}
		kept := sup.filter(raw)
		for _, d := range raw {
			res.Raw[d.Analyzer]++
			res.Suppressed[d.Analyzer]++
		}
		for _, d := range kept {
			res.Suppressed[d.Analyzer]--
		}
		res.Diags = append(res.Diags, kept...)
		res.Diags = append(res.Diags, sup.malformed...)
	}
	SortDiagnostics(res.Diags)
	return res, nil
}

// SortDiagnostics orders diags by (file, line, analyzer, message,
// column). The analyzer name participates in the order so that runs
// whose analyzer sets execute in different orders (or concurrently)
// emit byte-identical output — the committed findings baseline diffs
// depend on it.
func SortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if diags[i].Analyzer != diags[j].Analyzer {
			return diags[i].Analyzer < diags[j].Analyzer
		}
		if diags[i].Message != diags[j].Message {
			return diags[i].Message < diags[j].Message
		}
		return a.Column < b.Column
	})
}

// SuppressionErrors scans every package — including ones excluded
// from regular analysis, such as the framework itself — and returns a
// diagnostic for each //nvmcheck:ignore comment that lacks the
// mandatory reason or names an analyzer outside known (other than
// "all"): a suppression naming a deleted or misspelt analyzer silently
// suppresses nothing. The nvmcheck -selfcheck mode fails the build on
// these.
func SuppressionErrors(pkgs []*Package, known map[string]bool) []Diagnostic {
	var out []Diagnostic
	for _, pkg := range pkgs {
		s := collectSuppressions(pkg)
		out = append(out, s.malformed...)
		for _, ig := range s.named {
			if !known[ig.analyzer] && ig.analyzer != "all" {
				out = append(out, Diagnostic{
					Analyzer: "nvmcheck",
					Pos:      ig.pos,
					Message:  fmt.Sprintf("//nvmcheck:ignore %s names no analyzer of the suite", ig.analyzer),
				})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	return out
}

// ---------------------------------------------------------------------------
// Suppression comments.

// ignoreRe matches a suppression directive: it must open its comment,
// so prose that mentions the syntax suppresses nothing.
var ignoreRe = regexp.MustCompile(`^//nvmcheck:ignore\s+(\S+)\s*(.*)`)

type suppressions struct {
	// byLine maps file:line to the analyzer names suppressed there.
	byLine map[string]map[string]bool
	// named lists the reasoned suppressions with the analyzer each names.
	named     []ignore
	malformed []Diagnostic
}

type ignore struct {
	pos      token.Position
	analyzer string
}

func collectSuppressions(pkg *Package) *suppressions {
	s := &suppressions{byLine: map[string]map[string]bool{}}
	for _, f := range pkg.Syntax {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := ignoreRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				if strings.TrimSpace(m[2]) == "" {
					s.malformed = append(s.malformed, Diagnostic{
						Analyzer: "nvmcheck",
						Pos:      pos,
						Message:  fmt.Sprintf("//nvmcheck:ignore %s must carry a reason", m[1]),
					})
					continue
				}
				s.named = append(s.named, ignore{pos: pos, analyzer: m[1]})
				for _, line := range []int{pos.Line, pos.Line + 1} {
					key := fmt.Sprintf("%s:%d", pos.Filename, line)
					if s.byLine[key] == nil {
						s.byLine[key] = map[string]bool{}
					}
					s.byLine[key][m[1]] = true
				}
			}
		}
	}
	return s
}

func (s *suppressions) filter(diags []Diagnostic) []Diagnostic {
	var out []Diagnostic
	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
		if names := s.byLine[key]; names[d.Analyzer] || names["all"] {
			continue
		}
		out = append(out, d)
	}
	return out
}

// ---------------------------------------------------------------------------
// Shared type helpers for the concrete analyzers.

// NamedFrom reports whether t (after stripping pointers) is the named
// type typeName declared in a package whose name is pkgName. Matching is
// by package *name*, not import path, so analyzers work identically
// against the real repo packages and against testdata stubs.
func NamedFrom(t types.Type, pkgName, typeName string) bool {
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
	obj := n.Obj()
	return obj != nil && obj.Pkg() != nil &&
		obj.Pkg().Name() == pkgName && obj.Name() == typeName
}

// ReceiverType returns the type of the receiver expression of a method
// call (nil when call is not a selector call or the selector resolves to
// a package-qualified identifier).
func ReceiverType(info *types.Info, call *ast.CallExpr) types.Type {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	if id, ok := sel.X.(*ast.Ident); ok {
		if _, isPkg := info.Uses[id].(*types.PkgName); isPkg {
			return nil
		}
	}
	return info.TypeOf(sel.X)
}

// CalleeName returns the bare name of the called function or method and,
// for package-qualified calls (pkg.Fn), the name of that package.
func CalleeName(info *types.Info, call *ast.CallExpr) (name, pkgName string) {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name, ""
	case *ast.SelectorExpr:
		if id, ok := fun.X.(*ast.Ident); ok {
			if pn, isPkg := info.Uses[id].(*types.PkgName); isPkg {
				return fun.Sel.Name, pn.Imported().Name()
			}
		}
		return fun.Sel.Name, ""
	}
	return "", ""
}

// ConstantsOf returns the exported package-scope constants of pkg whose
// type is exactly typ, sorted by name.
func ConstantsOf(pkg *types.Package, typ types.Type) []*types.Const {
	var out []*types.Const
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || !c.Exported() {
			continue
		}
		if types.Identical(c.Type(), typ) {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}
