package lint

import (
	"go/ast"
	"go/token"
	"go/types"
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
			ss := &slabScan{
				pass:     pass,
				info:     pass.Pkg.Info,
				fn:       fb.name,
				released: map[string]slabRelease{},
				derived:  map[string]string{},
			}
			ss.scanStmts(fb.body.List)
		}
	}
}

// slabRelease records how and where a slab variable was released.
type slabRelease struct {
	pos       token.Pos
	method    string
	pairsOnly bool // chunk release(): only .Pairs is invalidated
}

// slabScan walks one function body in statement order. released maps a
// slab (or chunk) variable's source text to its release site; derived
// maps a decoded-pairs variable to the slab it aliases. Branches of
// if/switch/select scan with a copy and join conservatively: released in
// any branch stays released.
type slabScan struct {
	pass     *Pass
	info     *types.Info
	fn       string
	released map[string]slabRelease
	derived  map[string]string
}

func (ss *slabScan) copyState() (map[string]slabRelease, map[string]string) {
	r := make(map[string]slabRelease, len(ss.released))
	for k, v := range ss.released {
		r[k] = v
	}
	d := make(map[string]string, len(ss.derived))
	for k, v := range ss.derived {
		d[k] = v
	}
	return r, d
}

func (ss *slabScan) scanStmts(stmts []ast.Stmt) {
	for _, s := range stmts {
		ss.scanStmt(s)
	}
}

func (ss *slabScan) scanStmt(s ast.Stmt) {
	switch st := s.(type) {
	case *ast.ExprStmt:
		if call, ok := st.X.(*ast.CallExpr); ok && ss.releaseOp(call) {
			return
		}
		ss.checkExpr(st.X)
	case *ast.DeferStmt:
		// A deferred release runs at return, after every use in the body
		// — the intended ownership idiom. Check its arguments only.
		for _, a := range st.Call.Args {
			ss.checkExpr(a)
		}
	case *ast.AssignStmt:
		for _, r := range st.Rhs {
			ss.checkExpr(r)
		}
		ss.trackAssign(st)
	case *ast.ReturnStmt:
		for _, r := range st.Results {
			ss.checkExpr(r)
		}
	case *ast.SendStmt:
		ss.checkExpr(st.Chan)
		ss.checkExpr(st.Value)
	case *ast.IfStmt:
		if st.Init != nil {
			ss.scanStmt(st.Init)
		}
		ss.checkExpr(st.Cond)
		savedR, savedD := ss.copyState()
		ss.scanStmts(st.Body.List)
		bodyR := ss.released
		bodyExits := terminates(st.Body.List)
		ss.released, ss.derived = savedR, savedD
		if st.Else != nil {
			preR, preD := ss.copyState()
			ss.scanStmt(st.Else)
			if elseExits(st.Else) {
				ss.released, ss.derived = preR, preD
			}
		}
		// Conservative join: released in either branch stays released —
		// unless the branch exits the function, in which case its releases
		// never reach the code after the if (the error-path
		// release-then-return idiom).
		if !bodyExits {
			for k, v := range bodyR {
				if _, ok := ss.released[k]; !ok {
					ss.released[k] = v
				}
			}
		}
	case *ast.BlockStmt:
		ss.scanStmts(st.List)
	case *ast.ForStmt:
		if st.Init != nil {
			ss.scanStmt(st.Init)
		}
		if st.Cond != nil {
			ss.checkExpr(st.Cond)
		}
		ss.scanStmts(st.Body.List)
	case *ast.RangeStmt:
		ss.checkExpr(st.X)
		ss.scanStmts(st.Body.List)
	case *ast.SwitchStmt:
		if st.Init != nil {
			ss.scanStmt(st.Init)
		}
		if st.Tag != nil {
			ss.checkExpr(st.Tag)
		}
		ss.scanCases(st.Body.List)
	case *ast.TypeSwitchStmt:
		ss.scanCases(st.Body.List)
	case *ast.SelectStmt:
		ss.scanCases(st.Body.List)
	case *ast.GoStmt:
		// The goroutine body is a function literal analyzed on its own;
		// just check the spawn's arguments.
		for _, a := range st.Call.Args {
			ss.checkExpr(a)
		}
	case *ast.LabeledStmt:
		ss.scanStmt(st.Stmt)
	}
}

// scanCases runs each clause body against a copy of the state and joins
// releases conservatively across clauses.
func (ss *slabScan) scanCases(clauses []ast.Stmt) {
	savedR, savedD := ss.copyState()
	joined := map[string]slabRelease{}
	for _, c := range clauses {
		ss.released = copyReleases(savedR)
		ss.derived = copyDerived(savedD)
		switch cc := c.(type) {
		case *ast.CaseClause:
			ss.scanStmts(cc.Body)
		case *ast.CommClause:
			if cc.Comm != nil {
				ss.scanStmt(cc.Comm)
			}
			ss.scanStmts(cc.Body)
		}
		if clauseTerminates(c) {
			continue // this clause exits the function; its releases don't flow on
		}
		for k, v := range ss.released {
			joined[k] = v
		}
	}
	ss.released, ss.derived = joined, savedD
}

// terminates reports whether a statement list always leaves the
// enclosing function or loop: its last statement is a return, a
// branch (break/continue/goto), or a call to panic. Good enough for the
// linear scan — the error-path `s.Release(); return nil, err` idiom is
// exactly this shape.
func terminates(stmts []ast.Stmt) bool {
	if len(stmts) == 0 {
		return false
	}
	switch last := stmts[len(stmts)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, isIdent := call.Fun.(*ast.Ident); isIdent && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

func elseExits(s ast.Stmt) bool {
	switch e := s.(type) {
	case *ast.BlockStmt:
		return terminates(e.List)
	case *ast.IfStmt:
		return terminates(e.Body.List) && e.Else != nil && elseExits(e.Else)
	}
	return false
}

func clauseTerminates(c ast.Stmt) bool {
	switch cc := c.(type) {
	case *ast.CaseClause:
		return terminates(cc.Body)
	case *ast.CommClause:
		return terminates(cc.Body)
	}
	return false
}

func copyReleases(m map[string]slabRelease) map[string]slabRelease {
	c := make(map[string]slabRelease, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

func copyDerived(m map[string]string) map[string]string {
	c := make(map[string]string, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

// trackAssign records new slab and derived-pairs variables, and clears
// the released/derived state of reassigned names (a fresh value is a
// fresh ownership).
func (ss *slabScan) trackAssign(st *ast.AssignStmt) {
	for _, l := range st.Lhs {
		if id, ok := l.(*ast.Ident); ok && id.Name != "_" {
			delete(ss.released, id.Name)
			delete(ss.derived, id.Name)
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
	// Typed gate: AcquireSlab/DecodePairsSlab must resolve to internal/kv —
	// a same-named helper in another package does not hand out pooled
	// memory.
	if callee := calleeOf(ss.info, call); callee != nil {
		if callee.Pkg() == nil || !strings.HasSuffix(callee.Pkg().Path(), "internal/kv") {
			return
		}
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
			ss.derived[id.Name] = slab.Name
		}
	}
}

// releaseOp handles an expression-statement call that may be a release,
// returning true when it was one. A release of an already-released slab
// is itself reported (the runtime panics on double release).
func (ss *slabScan) releaseOp(call *ast.CallExpr) bool {
	recv, name, ok := selectorCall(call)
	if !ok || recv == "" || !slabReleaseNames[name] {
		return false
	}
	// Typed gate: an exported Release must be a method on a type named
	// Slab — sync.Pool-style Release methods on other types are not slab
	// ownership transfers. The lowercase release stays name-based: it is
	// the chunk helper's private idiom.
	if name != "release" {
		if callee := calleeOf(ss.info, call); callee != nil {
			sig, ok := callee.Type().(*types.Signature)
			if !ok || sig.Recv() == nil || typeName(sig.Recv().Type()) != "Slab" {
				return false
			}
		}
	}
	if prev, ok := ss.released[recv]; ok && !prev.pairsOnly {
		ss.pass.Reportf(call.Pos(),
			"%s.%s in %s but %s was already released at line %d (double release panics)",
			recv, name, ss.fn, recv, ss.pass.Pkg.Fset.Position(prev.pos).Line)
		return true
	}
	ss.released[recv] = slabRelease{pos: call.Pos(), method: name, pairsOnly: name == "release"}
	return true
}

// checkExpr reports reads of released slabs and of pairs decoded from
// them, anywhere in an expression (not descending into function
// literals).
func (ss *slabScan) checkExpr(e ast.Expr) {
	if e == nil || len(ss.released) == 0 {
		return
	}
	walkShallow(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SelectorExpr:
			base, ok := x.X.(*ast.Ident)
			if !ok {
				return true
			}
			rel, released := ss.released[base.Name]
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
			if rel, ok := ss.released[x.Name]; ok && !rel.pairsOnly {
				ss.report(x.Pos(), x.Name, x.Name, rel)
				return false
			}
			if slab, ok := ss.derived[x.Name]; ok {
				if rel, released := ss.released[slab]; released {
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
