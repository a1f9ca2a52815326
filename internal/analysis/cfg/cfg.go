// Package cfg builds intraprocedural control-flow graphs over go/ast
// function bodies, using only the standard library. It is the substrate
// of the nvmcheck analyzers: instead of approximating execution
// order by source position, publishcheck, lockcheck, sharecheck,
// pptrcheck and deadlinecheck run dataflow analyses over these graphs,
// so branchy protocols are judged per path and joined at merge points.
//
// The builder models:
//
//   - straight-line statement sequencing;
//   - if/else with short-circuit condition decomposition: a condition
//     `a && b` becomes two blocks so an effect inside `b` only occurs
//     on the path where `a` was true (and dually for `||` and `!`);
//   - for and range loops with back edges, break/continue (labeled and
//     unlabeled) and the post statement on the continue path;
//   - switch and type-switch with one block per case, fallthrough
//     edges, and an implicit-default edge when no default clause
//     exists;
//   - select with one block per communication clause (no default
//     clause means no bypass edge — the select blocks);
//   - goto and labels, including forward gotos;
//   - defer: deferred statements are recorded in Graph.Defers in
//     source order; analyses apply their effects at function exit
//     (LIFO), which assumes defers are unconditional — the
//     overwhelmingly common form. A defer inside a branch is still
//     recorded, over-approximating its execution.
//
// Function literals are not descended into: a closure is a separate
// function with its own contract and its own graph.
//
// Blocks hold leaf statements and decomposed condition expressions in
// execution order. A terminated path (return, panic, break, ...) leaves
// no fallthrough successor. Unreachable blocks are pruned, so every
// block of a finished graph is reachable from Entry; Exit is kept even
// when nothing returns (an infinite loop) and then has no
// predecessors.
package cfg

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"strings"
)

// A Block is one basic block: a maximal sequence of nodes with a single
// entry at the top and branching only at the bottom.
type Block struct {
	// Index is the block's position in Graph.Blocks after pruning;
	// Entry is always 0.
	Index int
	// Kind names the construct that created the block (entry, exit,
	// if.then, for.head, ...) for debugging and golden tests.
	Kind string
	// Nodes are the leaf statements and decomposed condition
	// expressions of the block, in execution order.
	Nodes []ast.Node
	// Succs and Preds are the control-flow edges.
	Succs []*Block
	Preds []*Block
}

// A Graph is the control-flow graph of one function body.
type Graph struct {
	Entry *Block
	// Exit is the single synthetic exit block every return edges to.
	// Falling off the end of the body appends a synthetic
	// *ast.ReturnStmt positioned at the closing brace, so every
	// normal-termination path ends in a ReturnStmt node.
	Exit *Block
	// Blocks lists every reachable block plus Exit, Entry first.
	Blocks []*Block
	// Defers are the defer statements of the body in source order.
	// Analyses model them as running, in reverse order, on every
	// return edge.
	Defers []*ast.DeferStmt
}

// New builds the CFG of body. The builder never panics on syntactically
// valid input, even when it is semantically broken (goto to a missing
// label, break outside a loop, ...): such edges simply terminate or
// dangle and are pruned.
func New(body *ast.BlockStmt) *Graph {
	b := &builder{
		labels: map[string]*labelInfo{},
	}
	b.graph = &Graph{}
	b.graph.Entry = b.newBlock("entry")
	b.graph.Exit = b.newBlock("exit")
	b.cur = b.graph.Entry
	b.stmtList(body.List)
	if b.cur != nil {
		// Falling off the end is an implicit return.
		b.add(&ast.ReturnStmt{Return: body.Rbrace})
		b.edge(b.cur, b.graph.Exit)
	}
	b.finish()
	return b.graph
}

type labelInfo struct {
	// target is the block a goto to this label jumps to.
	target *Block
	// brk/cont are the break/continue targets when the labeled
	// statement is a loop, switch or select.
	brk, cont *Block
}

// loopCtx is one enclosing breakable construct.
type loopCtx struct {
	brk  *Block // break target (nil inside bare blocks)
	cont *Block // continue target (nil for switch/select)
	// nextCase is the following case body, the fallthrough target
	// (switch only).
	nextCase *Block
}

type builder struct {
	graph  *Graph
	all    []*Block // every block ever made, pre-pruning
	cur    *Block   // nil when the current path has terminated
	stack  []loopCtx
	labels map[string]*labelInfo
	// pendingLabel is set between seeing `L:` and building the labeled
	// statement, so loops register their break/continue targets on L.
	pendingLabel *labelInfo
}

func (b *builder) newBlock(kind string) *Block {
	blk := &Block{Kind: kind}
	b.all = append(b.all, blk)
	return blk
}

func (b *builder) edge(from, to *Block) {
	if from == nil || to == nil {
		return
	}
	from.Succs = append(from.Succs, to)
}

// add appends n to the current block, starting a fresh one when the
// path had terminated (unreachable code still gets built, then pruned).
func (b *builder) add(n ast.Node) {
	if b.cur == nil {
		b.cur = b.newBlock("unreachable")
	}
	b.cur.Nodes = append(b.cur.Nodes, n)
}

// seal switches the current block to next, adding the fallthrough edge.
func (b *builder) seal(next *Block) {
	if b.cur != nil {
		b.edge(b.cur, next)
	}
	b.cur = next
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *builder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)
	case *ast.IfStmt:
		b.ifStmt(s)
	case *ast.ForStmt:
		b.forStmt(s)
	case *ast.RangeStmt:
		b.rangeStmt(s)
	case *ast.SwitchStmt:
		b.switchStmt(s)
	case *ast.TypeSwitchStmt:
		b.typeSwitchStmt(s)
	case *ast.SelectStmt:
		b.selectStmt(s)
	case *ast.LabeledStmt:
		b.labeledStmt(s)
	case *ast.BranchStmt:
		b.branchStmt(s)
	case *ast.ReturnStmt:
		b.add(s)
		if b.cur != nil {
			b.edge(b.cur, b.graph.Exit)
		}
		b.cur = nil
	case *ast.DeferStmt:
		b.graph.Defers = append(b.graph.Defers, s)
		b.add(s)
	case *ast.ExprStmt:
		b.add(s)
		if isPanic(s.X) {
			b.cur = nil // unwinds; not a normal return
		}
	case nil:
		// ignore
	default:
		// DeclStmt, AssignStmt, IncDecStmt, SendStmt, GoStmt,
		// EmptyStmt, ...: leaf statements.
		b.add(s)
	}
}

// isPanic reports whether e is a call to the builtin panic.
func isPanic(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}

// label returns the info record for name, creating it (with a target
// block) on first use so forward gotos work.
func (b *builder) label(name string) *labelInfo {
	li := b.labels[name]
	if li == nil {
		li = &labelInfo{target: b.newBlock("label." + name)}
		b.labels[name] = li
	}
	return li
}

func (b *builder) labeledStmt(s *ast.LabeledStmt) {
	li := b.label(s.Label.Name)
	b.seal(li.target)
	b.pendingLabel = li
	b.stmt(s.Stmt)
	b.pendingLabel = nil
}

func (b *builder) branchStmt(s *ast.BranchStmt) {
	b.add(s)
	switch s.Tok {
	case token.GOTO:
		if s.Label != nil {
			b.edge(b.cur, b.label(s.Label.Name).target)
		}
	case token.BREAK:
		if s.Label != nil {
			if li := b.labels[s.Label.Name]; li != nil {
				b.edge(b.cur, li.brk)
			}
		} else if t := b.innermost(func(c loopCtx) *Block { return c.brk }); t != nil {
			b.edge(b.cur, t)
		}
	case token.CONTINUE:
		if s.Label != nil {
			if li := b.labels[s.Label.Name]; li != nil {
				b.edge(b.cur, li.cont)
			}
		} else if t := b.innermost(func(c loopCtx) *Block { return c.cont }); t != nil {
			b.edge(b.cur, t)
		}
	case token.FALLTHROUGH:
		if len(b.stack) > 0 {
			b.edge(b.cur, b.stack[len(b.stack)-1].nextCase)
		}
	}
	b.cur = nil
}

// innermost returns the innermost non-nil target selected by get.
func (b *builder) innermost(get func(loopCtx) *Block) *Block {
	for i := len(b.stack) - 1; i >= 0; i-- {
		if t := get(b.stack[i]); t != nil {
			return t
		}
	}
	return nil
}

// cond builds the control flow of a boolean condition, branching to t
// when it evaluates true and f when false, decomposing short-circuit
// operators into separate blocks.
func (b *builder) cond(e ast.Expr, t, f *Block) {
	switch x := e.(type) {
	case *ast.ParenExpr:
		b.cond(x.X, t, f)
		return
	case *ast.UnaryExpr:
		if x.Op == token.NOT {
			b.cond(x.X, f, t)
			return
		}
	case *ast.BinaryExpr:
		switch x.Op {
		case token.LAND:
			rhs := b.newBlock("cond.and")
			b.cond(x.X, rhs, f)
			b.cur = rhs
			b.cond(x.Y, t, f)
			return
		case token.LOR:
			rhs := b.newBlock("cond.or")
			b.cond(x.X, t, rhs)
			b.cur = rhs
			b.cond(x.Y, t, f)
			return
		}
	}
	b.add(e)
	b.edge(b.cur, t)
	b.edge(b.cur, f)
	b.cur = nil
}

func (b *builder) ifStmt(s *ast.IfStmt) {
	if s.Init != nil {
		b.stmt(s.Init)
	}
	then := b.newBlock("if.then")
	done := b.newBlock("if.done")
	if s.Else != nil {
		els := b.newBlock("if.else")
		b.cond(s.Cond, then, els)
		b.cur = els
		b.stmt(s.Else)
		b.seal(done)
	} else {
		b.cond(s.Cond, then, done)
	}
	b.cur = then
	b.stmtList(s.Body.List)
	b.seal(done)
	b.cur = done
}

// pushLoop registers the break/continue targets, also on the pending
// label when the loop was labeled.
func (b *builder) pushLoop(brk, cont *Block) {
	if b.pendingLabel != nil {
		b.pendingLabel.brk = brk
		b.pendingLabel.cont = cont
		b.pendingLabel = nil
	}
	b.stack = append(b.stack, loopCtx{brk: brk, cont: cont})
}

func (b *builder) popLoop() { b.stack = b.stack[:len(b.stack)-1] }

func (b *builder) forStmt(s *ast.ForStmt) {
	if s.Init != nil {
		b.stmt(s.Init)
	}
	head := b.newBlock("for.head")
	body := b.newBlock("for.body")
	done := b.newBlock("for.done")
	cont := head
	var post *Block
	if s.Post != nil {
		post = b.newBlock("for.post")
		cont = post
	}
	b.seal(head)
	if s.Cond != nil {
		b.cond(s.Cond, body, done)
	} else {
		b.edge(head, body)
		b.cur = nil
	}
	b.pushLoop(done, cont)
	b.cur = body
	b.stmtList(s.Body.List)
	if post != nil {
		b.seal(post)
		b.stmt(s.Post)
		b.seal(head)
		b.cur = nil
	} else {
		if b.cur != nil {
			b.edge(b.cur, head)
		}
		b.cur = nil
	}
	b.popLoop()
	b.cur = done
}

func (b *builder) rangeStmt(s *ast.RangeStmt) {
	// The range expression is evaluated once, before the loop.
	b.add(s.X)
	head := b.newBlock("range.head")
	body := b.newBlock("range.body")
	done := b.newBlock("range.done")
	b.seal(head)
	b.edge(head, body)
	b.edge(head, done)
	b.pushLoop(done, head)
	b.cur = body
	b.stmtList(s.Body.List)
	if b.cur != nil {
		b.edge(b.cur, head)
	}
	b.cur = nil
	b.popLoop()
	b.cur = done
}

func (b *builder) switchStmt(s *ast.SwitchStmt) {
	if s.Init != nil {
		b.stmt(s.Init)
	}
	if s.Tag != nil {
		b.add(s.Tag)
	}
	b.caseBodies(s.Body, true, nil)
}

func (b *builder) typeSwitchStmt(s *ast.TypeSwitchStmt) {
	if s.Init != nil {
		b.stmt(s.Init)
	}
	b.caseBodies(s.Body, false, s.Assign)
}

// caseBodies builds switch/type-switch dispatch: one block per case,
// all reachable from the head, plus a bypass edge when there is no
// default clause. fallthrough (plain switch only) edges to the next
// case body in source order.
func (b *builder) caseBodies(body *ast.BlockStmt, allowFallthrough bool, assign ast.Stmt) {
	head := b.cur
	if head == nil {
		head = b.newBlock("unreachable")
		b.cur = head
	}
	done := b.newBlock("switch.done")
	if b.pendingLabel != nil {
		b.pendingLabel.brk = done
		b.pendingLabel = nil
	}
	var cases []*ast.CaseClause
	for _, st := range body.List {
		if cc, ok := st.(*ast.CaseClause); ok {
			cases = append(cases, cc)
		}
	}
	blocks := make([]*Block, len(cases))
	hasDefault := false
	for i, cc := range cases {
		kind := "switch.case"
		if cc.List == nil {
			kind = "switch.default"
			hasDefault = true
		}
		blocks[i] = b.newBlock(kind)
		b.edge(head, blocks[i])
	}
	if !hasDefault {
		b.edge(head, done)
	}
	for i, cc := range cases {
		b.cur = blocks[i]
		// Guard expressions (and the type-switch assign) are evaluated
		// on the path into the case; the model places them at the top
		// of the case body.
		if assign != nil {
			b.cur.Nodes = append(b.cur.Nodes, assign)
		}
		for _, e := range cc.List {
			b.cur.Nodes = append(b.cur.Nodes, e)
		}
		ctx := loopCtx{brk: done}
		if allowFallthrough && i+1 < len(cases) {
			ctx.nextCase = blocks[i+1]
		}
		b.stack = append(b.stack, ctx)
		b.stmtList(cc.Body)
		b.popLoop()
		b.seal(done)
		b.cur = nil
	}
	b.cur = done
}

func (b *builder) selectStmt(s *ast.SelectStmt) {
	head := b.cur
	if head == nil {
		head = b.newBlock("unreachable")
		b.cur = head
	}
	done := b.newBlock("select.done")
	if b.pendingLabel != nil {
		b.pendingLabel.brk = done
		b.pendingLabel = nil
	}
	var clauses []*ast.CommClause
	for _, st := range s.Body.List {
		if cc, ok := st.(*ast.CommClause); ok {
			clauses = append(clauses, cc)
		}
	}
	if len(clauses) == 0 {
		// select {} blocks forever; following code is unreachable.
		b.cur = done
		return
	}
	for _, cc := range clauses {
		kind := "select.comm"
		if cc.Comm == nil {
			kind = "select.default"
		}
		blk := b.newBlock(kind)
		b.edge(head, blk)
		b.cur = blk
		if cc.Comm != nil {
			b.cur.Nodes = append(b.cur.Nodes, cc.Comm)
		}
		b.stack = append(b.stack, loopCtx{brk: done})
		b.stmtList(cc.Body)
		b.popLoop()
		b.seal(done)
		b.cur = nil
	}
	b.cur = done
}

// finish prunes unreachable blocks, computes predecessor lists,
// deduplicates edges and assigns indices.
func (b *builder) finish() {
	g := b.graph
	reach := map[*Block]bool{g.Entry: true}
	work := []*Block{g.Entry}
	for len(work) > 0 {
		blk := work[len(work)-1]
		work = work[:len(work)-1]
		for _, s := range blk.Succs {
			if !reach[s] {
				reach[s] = true
				work = append(work, s)
			}
		}
	}
	var blocks []*Block
	for _, blk := range b.all {
		if reach[blk] || blk == g.Exit {
			blocks = append(blocks, blk)
		}
	}
	// Entry first, Exit last, others in creation order.
	var ordered []*Block
	ordered = append(ordered, g.Entry)
	for _, blk := range blocks {
		if blk != g.Entry && blk != g.Exit {
			ordered = append(ordered, blk)
		}
	}
	ordered = append(ordered, g.Exit)
	for i, blk := range ordered {
		blk.Index = i
		// Drop edges to pruned blocks and deduplicate.
		var succs []*Block
		seen := map[*Block]bool{}
		for _, s := range blk.Succs {
			if (reach[s] || s == g.Exit) && !seen[s] {
				seen[s] = true
				succs = append(succs, s)
			}
		}
		blk.Succs = succs
	}
	for _, blk := range ordered {
		blk.Preds = nil
	}
	for _, blk := range ordered {
		for _, s := range blk.Succs {
			s.Preds = append(s.Preds, blk)
		}
	}
	g.Blocks = ordered
}

// ---------------------------------------------------------------------------
// Queries.

// ReversePostorder returns the blocks in reverse postorder from Entry —
// the iteration order that makes forward dataflow converge fastest.
// Exit is included at its natural position; unreachable Exit comes
// last.
func (g *Graph) ReversePostorder() []*Block {
	seen := map[*Block]bool{}
	var post []*Block
	var dfs func(*Block)
	dfs = func(blk *Block) {
		seen[blk] = true
		for _, s := range blk.Succs {
			if !seen[s] {
				dfs(s)
			}
		}
		post = append(post, blk)
	}
	dfs(g.Entry)
	var rpo []*Block
	for i := len(post) - 1; i >= 0; i-- {
		rpo = append(rpo, post[i])
	}
	if !seen[g.Exit] {
		rpo = append(rpo, g.Exit)
	}
	return rpo
}

// Dominators returns the immediate-dominator relation: idom[b] is the
// closest strict dominator of b. Entry has no entry in the map. Blocks
// unreachable from Entry (only Exit can be) are absent.
func (g *Graph) Dominators() map[*Block]*Block {
	// Cooper–Harvey–Kennedy iterative algorithm over RPO.
	rpo := g.ReversePostorder()
	order := map[*Block]int{}
	for i, blk := range rpo {
		order[blk] = i
	}
	idom := map[*Block]*Block{g.Entry: g.Entry}
	intersect := func(a, b *Block) *Block {
		for a != b {
			for order[a] > order[b] {
				a = idom[a]
			}
			for order[b] > order[a] {
				b = idom[b]
			}
		}
		return a
	}
	changed := true
	for changed {
		changed = false
		for _, blk := range rpo {
			if blk == g.Entry {
				continue
			}
			var newIdom *Block
			for _, p := range blk.Preds {
				if idom[p] == nil {
					continue
				}
				if newIdom == nil {
					newIdom = p
				} else {
					newIdom = intersect(p, newIdom)
				}
			}
			if newIdom != nil && idom[blk] != newIdom {
				idom[blk] = newIdom
				changed = true
			}
		}
	}
	delete(idom, g.Entry)
	return idom
}

// ---------------------------------------------------------------------------
// Debug formatting (golden tests).

// Format renders the graph as deterministic text: one paragraph per
// block with its kind, abbreviated nodes and successor indices.
func (g *Graph) Format(fset *token.FileSet) string {
	var sb strings.Builder
	for _, blk := range g.Blocks {
		fmt.Fprintf(&sb, "b%d %s", blk.Index, blk.Kind)
		if len(blk.Succs) > 0 {
			var ss []string
			for _, s := range blk.Succs {
				ss = append(ss, fmt.Sprintf("b%d", s.Index))
			}
			fmt.Fprintf(&sb, " -> %s", strings.Join(ss, " "))
		}
		sb.WriteString("\n")
		for _, n := range blk.Nodes {
			fmt.Fprintf(&sb, "\t%s\n", nodeText(fset, n))
		}
	}
	return sb.String()
}

// nodeText abbreviates one node to a single line.
func nodeText(fset *token.FileSet, n ast.Node) string {
	if r, ok := n.(*ast.ReturnStmt); ok && len(r.Results) == 0 {
		return "return"
	}
	var buf bytes.Buffer
	cfgPrinter.Fprint(&buf, fset, n)
	s := strings.Join(strings.Fields(buf.String()), " ")
	if len(s) > 60 {
		s = s[:57] + "..."
	}
	return s
}

var cfgPrinter = &printer.Config{Mode: printer.RawFormat}
