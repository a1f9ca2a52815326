package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"

	"hyrisenv/internal/analysis"
)

// TestSelfcheckRejectsUnknownAnalyzer pins the -selfcheck rule that a
// suppression must name an analyzer of the suite: one naming a deleted
// analyzer would otherwise stay in the tree, suppressing nothing.
func TestSelfcheckRejectsUnknownAnalyzer(t *testing.T) {
	var src strings.Builder
	src.WriteString("package p\n\nfunc f() {\n")
	for _, a := range Suite {
		src.WriteString("\t//nvmcheck:ignore " + a.Name + " fixture\n\t_ = 0\n")
	}
	for _, a := range ProgSuite {
		src.WriteString("\t//nvmcheck:ignore " + a.Name + " fixture\n\t_ = 0\n")
	}
	src.WriteString("\t//nvmcheck:ignore all fixture\n\t_ = 0\n")
	src.WriteString("\t//nvmcheck:ignore persistcheck fixture\n\t_ = 0\n}\n")

	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src.String(), parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	diags := suppressionErrors([]*analysis.Package{{Fset: fset, Syntax: []*ast.File{f}}})
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "persistcheck names no analyzer") {
		t.Fatalf("got %v, want one finding on the persistcheck suppression", diags)
	}
}
