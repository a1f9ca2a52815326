// Package deadlinecheck enforces that every network I/O operation in
// the server and client packages happens under a configured deadline. A
// read or write on a net.Conn with no deadline can block forever; one
// wedged connection then pins a session goroutine (server) or the
// caller (client) indefinitely.
//
// Within each function of a package named "server" or "client", the
// analyzer finds I/O sites:
//
//   - Read/Write/ReadFull calls whose receiver or argument is a
//     net.Conn (or a type that embeds one, e.g. *bufio.Reader over a
//     conn is matched via wire.ReadFrame/WriteFrame below);
//   - wire.ReadFrame / wire.WriteFrame calls and Next on a
//     wire.FrameReader — the protocol's only transport entry points;
//   - Flush on a bufio.Writer — the point where buffered writes hit
//     the socket.
//
// Version 2 runs a forward must-analysis over the function's
// control-flow graph (internal/analysis/cfg + dataflow): the fact is
// "a SetDeadline / SetReadDeadline / SetWriteDeadline call has executed
// on every path from the entry", joined with conjunction at merge
// points. An I/O site is reported unless the fact holds there — a
// deadline set on only one branch, or first set after the I/O in a
// loop body, no longer satisfies the check the way v1's source-order
// position comparison did. Closure bodies are analyzed as separate
// functions with an empty entry fact.
//
// Functions whose connections are governed by a deadline established by
// their caller carry //nvmcheck:ignore deadlinecheck <reason>.
package deadlinecheck

import (
	"go/ast"
	"go/types"

	"hyrisenv/internal/analysis"
	"hyrisenv/internal/analysis/cfg"
	"hyrisenv/internal/analysis/dataflow"
)

// Analyzer is the deadlinecheck analysis.
var Analyzer = &analysis.Analyzer{
	Name: "deadlinecheck",
	Doc:  "net.Conn reads and writes in server and client must run under a deadline configured on every path",
	Run:  run,
}

var deadlineSetters = map[string]bool{
	"SetDeadline": true, "SetReadDeadline": true, "SetWriteDeadline": true,
}

func run(pass *analysis.Pass) error {
	name := pass.Pkg.Name()
	if name != "server" && name != "client" {
		return nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkBody(pass, fn.Name.Name, fn.Body)
			// Closures run with their own control flow; each gets its
			// own graph and starts without a deadline.
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					checkBody(pass, fn.Name.Name+" (closure)", lit.Body)
					return false
				}
				return true
			})
		}
	}
	return nil
}

// isNetConn reports whether t is net.Conn, implements it, or is a
// pointer to such a type.
func isNetConn(pass *analysis.Pass, t types.Type) bool {
	if t == nil {
		return false
	}
	if analysis.NamedFrom(t, "net", "Conn") {
		return true
	}
	// Structural check: has SetDeadline(time.Time) error — the
	// distinguishing method of net.Conn among io types.
	for _, typ := range []types.Type{t, types.NewPointer(t)} {
		if m, _, _ := types.LookupFieldOrMethod(typ, true, nil, "SetDeadline"); m != nil {
			if _, ok := m.(*types.Func); ok {
				return true
			}
		}
	}
	return false
}

// ioSite classifies call as a network I/O site ("" when it is not one).
func ioSite(pass *analysis.Pass, call *ast.CallExpr) string {
	name, pkgName := analysis.CalleeName(pass.Info, call)
	recv := analysis.ReceiverType(pass.Info, call)
	switch {
	case (name == "ReadFrame" || name == "WriteFrame") && pkgName == "wire":
		return "wire." + name
	case name == "Next" && recv != nil && analysis.NamedFrom(recv, "wire", "FrameReader"):
		return "wire.FrameReader.Next"
	case name == "Read" || name == "Write":
		if recv != nil && isNetConn(pass, recv) {
			return "conn." + name
		}
	case name == "ReadFull" && pkgName == "io":
		if len(call.Args) > 0 && isNetConn(pass, pass.Info.TypeOf(call.Args[0])) {
			return "io.ReadFull on conn"
		}
	case name == "Flush":
		if recv != nil && analysis.NamedFrom(recv, "bufio", "Writer") {
			return "bufio Flush"
		}
	}
	return ""
}

// The fact is "a deadline has been set on every path to this point":
// nil = unvisited, otherwise the must-bit. Join is conjunction.
var lattice = dataflow.Lattice[*bool]{
	Bottom: func() *bool { return nil },
	Join: func(a, b *bool) *bool {
		if a == nil {
			return b
		}
		if b == nil {
			return a
		}
		v := *a && *b
		return &v
	},
	Equal: func(a, b *bool) bool {
		if (a == nil) != (b == nil) {
			return false
		}
		return a == nil || *a == *b
	},
}

func checkBody(pass *analysis.Pass, fnName string, body *ast.BlockStmt) {
	g := cfg.New(body)

	transfer := func(n ast.Node, in *bool) *bool {
		out := in
		analysis.ForEachCall(n, func(call *ast.CallExpr) {
			name, _ := analysis.CalleeName(pass.Info, call)
			if deadlineSetters[name] {
				t := true
				out = &t
			}
		})
		return out
	}
	f := false
	res := dataflow.Forward(g, lattice, &f, transfer)

	res.NodeFacts(g, func(n ast.Node, before *bool) {
		covered := before != nil && *before
		analysis.ForEachCall(n, func(call *ast.CallExpr) {
			name, _ := analysis.CalleeName(pass.Info, call)
			if deadlineSetters[name] {
				covered = true
				return
			}
			if what := ioSite(pass, call); what != "" && !covered {
				pass.Reportf(call.Pos(),
					"%s without a deadline on every path in %s; call SetDeadline/SetReadDeadline/SetWriteDeadline first (or annotate with //nvmcheck:ignore deadlinecheck <reason> if the caller sets it)",
					what, fnName)
			}
		})
	})
}
