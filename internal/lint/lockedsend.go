package lint

import "go/ast"

// LockedSend flags transport sends performed while a sync.Mutex or
// RWMutex is held in the same function: a channel send statement, or a
// call to Send / ReliableSend / sendReliable, between X.Lock() (or
// X.RLock()) and the matching unlock. The engine's task loops and the
// master drain unbounded inboxes, but the TCP backend and the chaos
// wrapper can block inside Send (dial, flush, injected latency); doing
// that under a lock the receive path also needs is the classic
// distributed-deadlock shape PRs 1–4 were careful to avoid.
//
// Non-blocking sends — a select with a default clause — are exempt:
// that is precisely the idiom (see the inbox push fast path) for
// signalling under a lock safely.
var LockedSend = &Analyzer{
	Name: "lockedsend",
	Doc: "channel send or transport Send/ReliableSend call while holding a " +
		"sync mutex in the same function (deadlock risk; non-blocking " +
		"select-with-default sends are allowed)",
	Run: runLockedSend,
}

// sendCallNames are the callee names lockedsend treats as potentially
// blocking transport sends. The name is only a pre-filter: the resolved
// callee must also return an error as its last result (every
// transport-style send does; a same-named method without one is not a
// send).
var sendCallNames = map[string]bool{
	"Send":         true, // transport.Endpoint.Send
	"ReliableSend": true, // transport.ReliableSend
	"sendReliable": true, // core.Engine.sendReliable
}

func runLockedSend(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		for _, fb := range functionBodies(f.AST) {
			ls := &lockScan{pass: pass, fn: fb.name}
			flow[heldLocks]{leaf: ls.stmt, expr: ls.checkExpr}.stmts(fb.body.List, heldLocks{})
		}
	}
}

// lockScan is lockedsend's side of a flow walk over one function body:
// the walker carries the held locks, lockScan reports the sends made
// while any is held.
type lockScan struct {
	pass *Pass
	fn   string
}

func (ls *lockScan) stmt(s ast.Stmt, held heldLocks, nonBlocking bool) {
	info := ls.pass.Pkg.Info
	switch st := s.(type) {
	case *ast.ExprStmt:
		if call, ok := st.X.(*ast.CallExpr); ok {
			if _, isLock := held.track(info, call, false); isLock {
				return
			}
		}
		ls.checkExpr(st.X, held)
	case *ast.SendStmt:
		if !nonBlocking && len(held) > 0 {
			recv, lk := held.first()
			ls.pass.Reportf(st.Arrow,
				"channel send in %s while %s is locked (Lock at line %d); release the lock or use a non-blocking select",
				ls.fn, recv, ls.pass.Pkg.Fset.Position(lk.pos).Line)
		}
		ls.checkExpr(st.Value, held)
	case *ast.DeferStmt:
		// defer X.Unlock() keeps the lock held for the rest of the
		// function body — exactly the window we must keep sends out of.
		// Other deferred calls run at return, outside this walk.
		held.track(info, st.Call, true)
	case *ast.AssignStmt:
		for _, r := range st.Rhs {
			ls.checkExpr(r, held)
		}
	case *ast.ReturnStmt:
		for _, r := range st.Results {
			ls.checkExpr(r, held)
		}
	}
	// A go statement's goroutine does not hold this goroutine's locks;
	// its body is analyzed as its own function.
}

// checkExpr reports blocking send calls appearing anywhere in an
// expression while a lock is held (it does not descend into function
// literals).
func (ls *lockScan) checkExpr(e ast.Expr, held heldLocks) {
	if len(held) == 0 {
		return
	}
	walkShallow(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		recv, name, ok := selectorCall(call)
		if !ok || !sendCallNames[name] {
			return true
		}
		// A Send without an error result, or a call through a function
		// value, is not a transport send.
		if callee := calleeOf(ls.pass.Pkg.Info, call); callee == nil || !lastResultIsError(callee) {
			return true
		}
		lockRecv, lk := held.first()
		target := name
		if recv != "" {
			target = recv + "." + name
		}
		ls.pass.Reportf(call.Pos(),
			"call to %s in %s while %s is locked (Lock at line %d); transport sends can block — release the lock first",
			target, ls.fn, lockRecv, ls.pass.Pkg.Fset.Position(lk.pos).Line)
		return true
	})
}
