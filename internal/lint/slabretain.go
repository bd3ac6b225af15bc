package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"strings"
)

// SlabRetain flags uses of a kv.Slab — or of pairs decoded through one —
// after the slab has been released back to the pool in the same
// function. Release recycles the slab's pair block, so any read through
// a retained reference observes memory a concurrent decode may already
// be overwriting. The rules, scanned linearly per function the way
// lockedsend tracks mutexes:
//
//   - a variable assigned from AcquireSlab is a slab; after
//     X.Release() executes (a deferred release runs at return and is
//     exempt), any further use of X is flagged;
//   - a variable assigned from DecodePairsSlab(..., X) is derived from
//     slab X and dies with it;
//   - after a chunk's c.release() executes, further reads of c.Pairs are
//     flagged (other chunk fields stay valid — release only returns the
//     slab).
var SlabRetain = &Analyzer{
	Name: "slabretain",
	Doc: "use of a kv.Slab, or of pairs decoded through it, after " +
		"Release returned it to the pool " +
		"(use-after-free on pooled memory; deferred releases are exempt)",
	Run: runSlabRetain,
}

// slabReleaseNames are the methods that hand a slab (or a chunk's slab)
// back to the pool. The lowercase release is the state/shuffle chunk
// helper, which only invalidates the chunk's Pairs.
var slabReleaseNames = map[string]bool{
	"Release": true,
	"release": true,
}

// slabDecodeName is the call whose first result aliases the slab passed
// as its final argument.
const slabDecodeName = "DecodePairsSlab"

func runSlabRetain(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		for _, fb := range functionBodies(f.AST) {
			ss := &slabScan{pass: pass, fn: fb.name}
			start := &slabState{released: map[string]slabRelease{}, derived: map[string]string{}}
			flow[*slabState]{leaf: ss.stmt, expr: ss.checkExpr}.stmts(fb.body.List, start)
		}
	}
}

// slabRelease records how and where a slab variable was released.
type slabRelease struct {
	pos       token.Pos
	method    string
	pairsOnly bool // chunk release(): only .Pairs is invalidated
}

// slabState is what the flow walk carries for slabretain: released maps
// a slab (or chunk) variable's source text to its release site; derived
// maps a decoded-pairs variable to the slab it aliases.
type slabState struct {
	released map[string]slabRelease
	derived  map[string]string
}

func (s *slabState) clone() *slabState {
	return &slabState{released: maps.Clone(s.released), derived: maps.Clone(s.derived)}
}

// merge joins another branch: released in either stays released.
func (s *slabState) merge(o *slabState) {
	for k, v := range o.released {
		if _, ok := s.released[k]; !ok {
			s.released[k] = v
		}
	}
	for k, v := range o.derived {
		if _, ok := s.derived[k]; !ok {
			s.derived[k] = v
		}
	}
}

// slabScan is slabretain's side of a flow walk over one function body.
type slabScan struct {
	pass *Pass
	fn   string
}

func (ss *slabScan) stmt(s ast.Stmt, st *slabState, _ bool) {
	switch x := s.(type) {
	case *ast.ExprStmt:
		if call, ok := x.X.(*ast.CallExpr); ok && ss.releaseOp(call, st) {
			return
		}
		ss.checkExpr(x.X, st)
	case *ast.DeferStmt:
		// A deferred release runs at return, after every use in the body
		// — the intended ownership idiom. Check its arguments only.
		for _, a := range x.Call.Args {
			ss.checkExpr(a, st)
		}
	case *ast.AssignStmt:
		for _, r := range x.Rhs {
			ss.checkExpr(r, st)
		}
		ss.trackAssign(x, st)
	case *ast.ReturnStmt:
		for _, r := range x.Results {
			ss.checkExpr(r, st)
		}
	case *ast.SendStmt:
		ss.checkExpr(x.Chan, st)
		ss.checkExpr(x.Value, st)
	case *ast.GoStmt:
		// The goroutine body is a function literal analyzed on its own;
		// just check the spawn's arguments.
		for _, a := range x.Call.Args {
			ss.checkExpr(a, st)
		}
	}
}

// trackAssign records new slab and derived-pairs variables, and clears
// the released/derived state of reassigned names (a fresh value is a
// fresh ownership).
func (ss *slabScan) trackAssign(st *ast.AssignStmt, state *slabState) {
	for _, l := range st.Lhs {
		if id, ok := l.(*ast.Ident); ok && id.Name != "_" {
			delete(state.released, id.Name)
			delete(state.derived, id.Name)
		}
	}
	if len(st.Rhs) != 1 {
		return
	}
	call, ok := st.Rhs[0].(*ast.CallExpr)
	if !ok {
		return
	}
	_, name, ok := selectorCall(call)
	if !ok {
		return
	}
	// AcquireSlab/DecodePairsSlab must resolve to internal/kv — a
	// same-named helper in another package does not hand out pooled
	// memory.
	callee := calleeOf(ss.pass.Pkg.Info, call)
	if callee == nil || callee.Pkg() == nil || !strings.HasSuffix(callee.Pkg().Path(), "internal/kv") {
		return
	}
	switch {
	case name == "AcquireSlab":
		// s := kv.AcquireSlab() — s is a slab; nothing to do beyond the
		// reassignment reset above (it becomes trackable by releaseOp).
	case name == slabDecodeName && len(call.Args) > 0:
		slab, ok := call.Args[len(call.Args)-1].(*ast.Ident)
		if !ok {
			return
		}
		if id, ok := st.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
			state.derived[id.Name] = slab.Name
		}
	}
}

// releaseOp handles an expression-statement call that may be a release,
// returning true when it was one. A release of an already-released slab
// is itself reported (the runtime panics on double release).
func (ss *slabScan) releaseOp(call *ast.CallExpr, st *slabState) bool {
	recv, name, ok := selectorCall(call)
	if !ok || recv == "" || !slabReleaseNames[name] {
		return false
	}
	// An exported Release must be a method on a type named Slab —
	// sync.Pool-style Release methods on other types are not slab
	// ownership transfers. The lowercase release stays name-based: it is
	// the chunk helper's private idiom.
	if name != "release" {
		callee := calleeOf(ss.pass.Pkg.Info, call)
		if callee == nil {
			return false
		}
		sig, ok := callee.Type().(*types.Signature)
		if !ok || sig.Recv() == nil || typeName(sig.Recv().Type()) != "Slab" {
			return false
		}
	}
	if prev, ok := st.released[recv]; ok && !prev.pairsOnly {
		ss.pass.Reportf(call.Pos(),
			"%s.%s in %s but %s was already released at line %d (double release panics)",
			recv, name, ss.fn, recv, ss.pass.Pkg.Fset.Position(prev.pos).Line)
		return true
	}
	st.released[recv] = slabRelease{pos: call.Pos(), method: name, pairsOnly: name == "release"}
	return true
}

// checkExpr reports reads of released slabs and of pairs decoded from
// them, anywhere in an expression (not descending into function
// literals).
func (ss *slabScan) checkExpr(e ast.Expr, st *slabState) {
	if e == nil || len(st.released) == 0 {
		return
	}
	walkShallow(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SelectorExpr:
			base, ok := x.X.(*ast.Ident)
			if !ok {
				return true
			}
			rel, released := st.released[base.Name]
			if released && rel.pairsOnly && x.Sel.Name == "Pairs" {
				ss.report(x.Pos(), base.Name+".Pairs", base.Name, rel)
				return false
			}
			if released && !rel.pairsOnly {
				ss.report(x.Pos(), base.Name, base.Name, rel)
				return false
			}
			return true
		case *ast.Ident:
			if rel, ok := st.released[x.Name]; ok && !rel.pairsOnly {
				ss.report(x.Pos(), x.Name, x.Name, rel)
				return false
			}
			if slab, ok := st.derived[x.Name]; ok {
				if rel, released := st.released[slab]; released {
					ss.report(x.Pos(), x.Name, slab, rel)
					return false
				}
			}
		}
		return true
	})
}

func (ss *slabScan) report(pos token.Pos, what, slab string, rel slabRelease) {
	ss.pass.Reportf(pos,
		"use of %s in %s after %s.%s at line %d returned the slab to the pool; copy what you need before releasing",
		what, ss.fn, slab, rel.method, ss.pass.Pkg.Fset.Position(rel.pos).Line)
}
