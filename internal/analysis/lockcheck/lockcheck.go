// Package lockcheck enforces the locking discipline around NVM persist
// barriers and the network path. It runs a flow-sensitive lockset
// analysis over the control-flow graph of every function
// (internal/analysis/cfg + dataflow): the fact is the set of
// sync.Mutex/sync.RWMutex locks that may be held at a program point
// (join = union), keyed by the canonical text of the receiver
// expression, with the acquisition mode (read or write) and site.
//
// Lock operations are recognized through go/types method resolution, so
// embedded mutexes (s.Lock() with a promoted sync.Mutex) are handled;
// TryLock/TryRLock are ignored because their success is branch-coupled
// in a way an unlabeled CFG cannot track. Deferred unlocks are applied,
// LIFO, to the fact at every return.
//
// Rules:
//
//   - unlock-on-all-paths: a lock acquired in the function must be
//     released (directly or via defer) before every return; a lock that
//     may still be held at a return is reported.
//   - self-deadlock: acquiring a write lock whose key may already be
//     held (in either mode), or a read lock while the write lock may be
//     held, deadlocks a sync mutex — Go mutexes are not reentrant.
//   - blocking call under lock: network reads and writes, frame codec
//     calls, time.Sleep and WaitGroup.Wait stall every other goroutine
//     contending for a held lock, and on the group-commit path they
//     stall commits; they are reported while any lock may be held.
//   - persist barrier under read lock: a persist barrier flushes
//     NVM writes, i.e. it is a mutation step; executing one while
//     holding only a shared (RLock) view is a discipline smell and is
//     reported. Barriers under a write lock are the group-commit idiom
//     and are allowed.
//   - lock-order consistency: for every acquisition of lock B while A
//     is held, the package-level order edge A→B is recorded using
//     type-level keys (Type.field); if both A→B and B→A are observed
//     anywhere in the package, both sites are reported, because the two
//     orders deadlock under concurrency.
//
// Functions whose name ends in "Locked" follow the caller-holds-the-
// lock convention: their returns are exempt from unlock-on-all-paths
// for locks they did not acquire (they acquire none by convention), and
// the analysis still checks everything else inside them.
package lockcheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"hyrisenv/internal/analysis"
	"hyrisenv/internal/analysis/cfg"
	"hyrisenv/internal/analysis/dataflow"
	"hyrisenv/internal/analysis/summary"
)

// Analyzer is the lockcheck analysis.
var Analyzer = &analysis.Analyzer{
	Name: "lockcheck",
	Doc:  "lockset discipline: unlock on all paths, no self-deadlock, no blocking calls or RLock-held persist barriers under a mutex, consistent lock order",
	Run:  run,
}

// ---------------------------------------------------------------------------
// Lock identification.

type lockOp int

const (
	opNone lockOp = iota
	opLock
	opRLock
	opUnlock
	opRUnlock
)

// lockSite identifies one acquisition: key is the canonical receiver
// expression text (intra-function identity), typeKey the Type.field
// form used for package-level lock ordering.
type lockSite struct {
	key     string
	typeKey string
	rlock   bool
	pos     token.Pos
}

// mutexOp classifies call as a lock operation through the method's
// types object, which sees through embedding.
func mutexOp(info *types.Info, call *ast.CallExpr) (lockOp, string, string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return opNone, "", ""
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return opNone, "", ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return opNone, "", ""
	}
	recv := sig.Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || (named.Obj().Name() != "Mutex" && named.Obj().Name() != "RWMutex") {
		return opNone, "", ""
	}
	var op lockOp
	switch fn.Name() {
	case "Lock":
		op = opLock
	case "RLock":
		op = opRLock
	case "Unlock":
		op = opUnlock
	case "RUnlock":
		op = opRUnlock
	default:
		return opNone, "", "" // TryLock/TryRLock/RLocker: branch-coupled, ignored
	}
	return op, types.ExprString(sel.X), typeKeyOf(info, sel.X)
}

// typeKeyOf renders the package-level identity of a mutex expression:
// "Type.field" for a field selector, "pkg.var" for a plain variable.
// Lock-order edges compare these, so two instances of the same struct
// share an ordering discipline.
func typeKeyOf(info *types.Info, x ast.Expr) string {
	switch x := ast.Unparen(x).(type) {
	case *ast.SelectorExpr:
		t := info.TypeOf(x.X)
		for {
			p, ok := t.(*types.Pointer)
			if !ok {
				break
			}
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return named.Obj().Name() + "." + x.Sel.Name
		}
		return x.Sel.Name
	case *ast.Ident:
		if obj := info.Uses[x]; obj != nil && obj.Pkg() != nil {
			return obj.Pkg().Name() + "." + x.Name
		}
		return x.Name
	}
	return types.ExprString(x)
}

// ---------------------------------------------------------------------------
// Blocking-call classification.

var netConnTypes = []string{"Conn", "TCPConn", "UDPConn", "UnixConn"}

// blockingCall reports whether call can block indefinitely on external
// progress (network peers, timers, other goroutines). File I/O is
// deliberately excluded: a log-mode commit group appends to the WAL
// under the commit mutex, and the WAL writes and syncs its device under
// its own mutex, by design.
func blockingCall(pass *analysis.Pass, call *ast.CallExpr) (bool, string) {
	name, pkgName := analysis.CalleeName(pass.Info, call)
	switch {
	case name == "ReadFrame" || name == "WriteFrame":
		return true, "wire." + name
	case pkgName == "time" && name == "Sleep":
		return true, "time.Sleep"
	case pkgName == "io" && name == "ReadFull":
		return true, "io.ReadFull"
	}
	recv := analysis.ReceiverType(pass.Info, call)
	if name == "Wait" && recv != nil && analysis.NamedFrom(recv, "sync", "WaitGroup") {
		return true, "WaitGroup.Wait"
	}
	if name == "Next" && recv != nil && analysis.NamedFrom(recv, "wire", "FrameReader") {
		return true, "wire.FrameReader.Next"
	}
	if name == "Read" || name == "Write" {
		if recv != nil {
			for _, t := range netConnTypes {
				if analysis.NamedFrom(recv, "net", t) {
					return true, "net conn " + name
				}
			}
		}
	}
	return false, ""
}

// persistBarrier reports whether name is a persist barrier: the suite's
// shared table plus the split-barrier halves. Fence publishes flushed
// lines, and Drain is a fence plus the device-level durability wait
// (group commit's shared barrier); under a read lock both carry
// Persist's hazard, and a drain stalls every reader for the device
// latency on top.
func persistBarrier(name string) bool {
	return analysis.PersistNames[name] || name == "Fence" || name == "Drain"
}

// ---------------------------------------------------------------------------
// The lockset lattice.

// lockFact is the may-held lockset; nil = unvisited bottom.
type lockFact struct {
	held []lockSite // sorted by key then mode
}

func sortHeld(h []lockSite) {
	sort.Slice(h, func(i, j int) bool {
		if h[i].key != h[j].key {
			return h[i].key < h[j].key
		}
		return !h[i].rlock && h[j].rlock
	})
}

var lattice = dataflow.Lattice[*lockFact]{
	Bottom: func() *lockFact { return nil },
	Join: func(a, b *lockFact) *lockFact {
		if a == nil {
			return b
		}
		if b == nil {
			return a
		}
		merged := make([]lockSite, 0, len(a.held)+len(b.held))
		merged = append(merged, a.held...)
	outer:
		for _, s := range b.held {
			for _, t := range a.held {
				if t.key == s.key && t.rlock == s.rlock {
					continue outer
				}
			}
			merged = append(merged, s)
		}
		sortHeld(merged)
		return &lockFact{held: merged}
	},
	Equal: func(a, b *lockFact) bool {
		if (a == nil) != (b == nil) {
			return false
		}
		if a == nil {
			return true
		}
		if len(a.held) != len(b.held) {
			return false
		}
		for i := range a.held {
			if a.held[i].key != b.held[i].key || a.held[i].rlock != b.held[i].rlock {
				return false
			}
		}
		return true
	},
}

func (f *lockFact) acquire(s lockSite) *lockFact {
	var held []lockSite
	if f != nil {
		held = f.held
	}
	out := make([]lockSite, 0, len(held)+1)
	for _, t := range held {
		if t.key == s.key && t.rlock == s.rlock {
			continue // re-acquire keeps one entry (already reported)
		}
		out = append(out, t)
	}
	out = append(out, s)
	sortHeld(out)
	return &lockFact{held: out}
}

func (f *lockFact) release(key string, rlock bool) *lockFact {
	if f == nil {
		return nil
	}
	out := make([]lockSite, 0, len(f.held))
	for _, t := range f.held {
		if t.key == key && t.rlock == rlock {
			continue
		}
		out = append(out, t)
	}
	return &lockFact{held: out}
}

func (f *lockFact) holds(key string, rlock bool) bool {
	if f == nil {
		return false
	}
	for _, t := range f.held {
		if t.key == key && t.rlock == rlock {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// The analysis.

// orderEdge is one observed acquisition order A→B with the site of B.
type orderEdge struct {
	first, second string
	pos           token.Pos
}

func run(pass *analysis.Pass) error {
	var edges []orderEdge
	for _, fd := range summary.Functions(pass) {
		edges = append(edges, checkFunc(pass, fd)...)
	}

	// Lock-order consistency across the package: for each inverted
	// pair, report once at the earliest-position edge of the pair.
	seen := map[string]orderEdge{}
	for _, e := range edges {
		k := e.first + "\x00" + e.second
		if prev, ok := seen[k]; !ok || e.pos < prev.pos {
			seen[k] = e
		}
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	reported := map[string]bool{}
	for _, k := range keys {
		e := seen[k]
		inv := e.second + "\x00" + e.first
		other, ok := seen[inv]
		if !ok || reported[k] || reported[inv] {
			continue
		}
		reported[k], reported[inv] = true, true
		if other.pos < e.pos {
			e, other = other, e
		}
		pass.Reportf(e.pos, "lock order inversion: %s acquired while holding %s here, but %s is acquired while holding %s at %s",
			e.second, e.first, e.first, e.second, pass.Fset.Position(other.pos))
	}
	return nil
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) []orderEdge {
	g := cfg.New(fd.Body)
	var edges []orderEdge

	transfer := func(n ast.Node, in *lockFact) *lockFact {
		if _, ok := n.(*ast.DeferStmt); ok {
			return in
		}
		f := in
		analysis.ForEachCall(n, func(call *ast.CallExpr) {
			f = applyCall(pass, call, f)
		})
		return f
	}
	res := dataflow.Forward(g, lattice, &lockFact{}, transfer)

	// Reporting walk: re-apply calls with the running fact.
	res.NodeFacts(g, func(n ast.Node, before *lockFact) {
		if _, ok := n.(*ast.DeferStmt); ok {
			return
		}
		f := before
		analysis.ForEachCall(n, func(call *ast.CallExpr) {
			op, key, typeKey := mutexOp(pass.Info, call)
			switch op {
			case opLock, opRLock:
				if f.holds(key, false) || (op == opLock && f.holds(key, true)) {
					pass.Reportf(call.Pos(), "%s is already held: Go sync mutexes are not reentrant, this self-deadlocks", key)
				}
				if f != nil {
					for _, h := range f.held {
						if h.typeKey != typeKey {
							edges = append(edges, orderEdge{first: h.typeKey, second: typeKey, pos: call.Pos()})
						}
					}
				}
			case opNone:
				if f != nil && len(f.held) > 0 {
					if blocking, what := blockingCall(pass, call); blocking {
						pass.Reportf(call.Pos(), "%s may block indefinitely while holding %s (acquired at %s)",
							what, f.held[0].key, pass.Fset.Position(f.held[0].pos))
					}
					name, _ := analysis.CalleeName(pass.Info, call)
					if persistBarrier(name) {
						for _, h := range f.held {
							if h.rlock {
								pass.Reportf(call.Pos(), "persist barrier %s under read lock %s (acquired at %s): flushing writes is a mutation, take the write lock",
									name, h.key, pass.Fset.Position(h.pos))
								break
							}
						}
					}
				}
			}
			f = applyCall(pass, call, f)
		})
	})

	// Unlock-on-all-paths, after deferred releases; *Locked functions
	// follow the caller-holds convention.
	if !strings.HasSuffix(fd.Name.Name, "Locked") {
		res.NodeFacts(g, func(n ast.Node, before *lockFact) {
			if _, ok := n.(*ast.ReturnStmt); !ok {
				return
			}
			f := before
			for i := len(g.Defers) - 1; i >= 0; i-- {
				f = applyCall(pass, g.Defers[i].Call, f)
			}
			if f != nil && len(f.held) > 0 {
				h := f.held[0]
				pass.Reportf(n.Pos(), "function %s may return while still holding %s (acquired at %s)",
					fd.Name.Name, h.key, pass.Fset.Position(h.pos))
			}
		})
	}
	return edges
}

func applyCall(pass *analysis.Pass, call *ast.CallExpr, f *lockFact) *lockFact {
	op, key, typeKey := mutexOp(pass.Info, call)
	switch op {
	case opLock:
		return f.acquire(lockSite{key: key, typeKey: typeKey, rlock: false, pos: call.Pos()})
	case opRLock:
		return f.acquire(lockSite{key: key, typeKey: typeKey, rlock: true, pos: call.Pos()})
	case opUnlock:
		return f.release(key, false)
	case opRUnlock:
		return f.release(key, true)
	}
	return f
}
