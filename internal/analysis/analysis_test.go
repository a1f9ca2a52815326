package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

func parsePkg(t *testing.T, src string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return &Package{Fset: fset, Syntax: []*ast.File{f}}
}

func TestSuppressionRequiresReason(t *testing.T) {
	pkg := parsePkg(t, `package p

func f() {
	//nvmcheck:ignore publishcheck
	_ = 1
}
`)
	s := collectSuppressions(pkg)
	if len(s.malformed) != 1 {
		t.Fatalf("got %d malformed-suppression diagnostics, want 1", len(s.malformed))
	}
	d := s.malformed[0]
	if !strings.Contains(d.Message, "must carry a reason") {
		t.Errorf("unexpected message %q", d.Message)
	}
	if d.Pos.Line != 4 {
		t.Errorf("diagnostic at line %d, want 4", d.Pos.Line)
	}
	// A reasonless marker must not register as a suppression.
	if len(s.byLine) != 0 {
		t.Errorf("reasonless suppression still registered: %v", s.byLine)
	}
}

func TestSuppressionFiltering(t *testing.T) {
	pkg := parsePkg(t, `package p

func f() {
	//nvmcheck:ignore publishcheck caller persists the batch
	_ = 1
}

func g() {
	//nvmcheck:ignore all fixture covers every analyzer
	_ = 2
}

func h() {
	// Prose that quotes //nvmcheck:ignore lockcheck syntax is no directive.
	_ = 3
}
`)
	s := collectSuppressions(pkg)
	if len(s.malformed) != 0 {
		t.Fatalf("unexpected malformed diagnostics: %v", s.malformed)
	}
	diag := func(analyzer string, line int) Diagnostic {
		return Diagnostic{
			Analyzer: analyzer,
			Pos:      token.Position{Filename: "p.go", Line: line},
			Message:  "finding",
		}
	}
	out := s.filter([]Diagnostic{
		diag("publishcheck", 4),  // on the comment line itself
		diag("publishcheck", 5),  // on the line below
		diag("pptrcheck", 5),     // different analyzer: survives
		diag("publishcheck", 6),  // out of range: survives
		diag("deadlinecheck", 9), // "all" suppresses any analyzer
		diag("lockcheck", 14),    // quoted in prose: survives
	})
	if len(out) != 3 {
		t.Fatalf("got %d surviving diagnostics, want 3: %v", len(out), out)
	}
	if out[0].Analyzer != "pptrcheck" || out[1].Pos.Line != 6 || out[2].Pos.Line != 14 {
		t.Errorf("wrong survivors: %v", out)
	}
}
