package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ---- module-wide call graph ----
//
// A deliberately lightweight substrate: static calls only (identifier
// and selector callees resolved through types.Info), attributed to the
// enclosing declared function. Function-literal bodies count as part of
// their declaring function — a closure or deferred cleanup runs on the
// caller's goroutine — EXCEPT the body of a `go func(){...}()`: a
// spawned goroutine neither blocks its spawner nor holds its locks, so
// its calls and channel operations are not the spawner's. Indirect
// calls through function values produce no edge; consumers must treat
// the graph as may-call, not must-call.

// callGraph maps each declared function of the module to the functions
// it may call, plus the facts the flow analyzers derive from it.
type callGraph struct {
	mod     *Module
	decls   map[*types.Func]declFunc
	pkgOf   map[*types.Func]*Package
	callees map[*types.Func]map[*types.Func]bool

	blockingOnce bool
	blocking     map[*types.Func]bool
}

// buildCallGraph walks every declared function of every loaded package.
func buildCallGraph(mod *Module) *callGraph {
	cg := &callGraph{
		mod:     mod,
		decls:   map[*types.Func]declFunc{},
		pkgOf:   map[*types.Func]*Package{},
		callees: map[*types.Func]map[*types.Func]bool{},
	}
	for _, pkg := range mod.Pkgs {
		for _, df := range funcDeclsOf(pkg) {
			if df.obj == nil {
				continue
			}
			cg.decls[df.obj] = df
			cg.pkgOf[df.obj] = pkg
			set := map[*types.Func]bool{}
			walkCallerScope(df.decl.Body, func(n ast.Node) {
				if call, ok := n.(*ast.CallExpr); ok {
					if callee := calleeOf(pkg.Info, call); callee != nil {
						set[callee] = true
					}
				}
			})
			cg.callees[df.obj] = set
		}
	}
	return cg
}

// walkCallerScope visits every node that executes on the declaring
// function's goroutine: the whole body, including function literals
// (called, deferred, or stored), but not the bodies of go-statement
// literals and not the callee of `go f()` (the spawned call runs
// elsewhere; its argument expressions still evaluate here).
func walkCallerScope(body ast.Node, fn func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if g, ok := n.(*ast.GoStmt); ok {
			for _, a := range g.Call.Args {
				walkCallerScope(a, fn)
			}
			// A spawned literal's body is skipped entirely. Any other
			// callee expression is evaluated here, but the call itself
			// happens on the new goroutine — callers looking at CallExpr
			// nodes never see g.Call.
			if _, isLit := g.Call.Fun.(*ast.FuncLit); !isLit {
				walkCallerScope(g.Call.Fun, fn)
			}
			return false
		}
		if n != nil {
			fn(n)
		}
		return true
	})
}

// blockingFullNames are external functions the flow analyzers treat as
// blocking: unbounded waits and dials. Mutex acquisition is excluded on
// purpose — lock waits are bounded by the holder and are lockorder's
// concern, not ctxflow's.
var blockingFullNames = map[string]bool{
	"time.Sleep":                true,
	"(*sync.WaitGroup).Wait":    true,
	"(*sync.Cond).Wait":         true,
	"net.Dial":                  true,
	"net.DialTimeout":           true,
	"(*net.Dialer).Dial":        true,
	"(net.Listener).Accept":     true,
	"(*net.TCPListener).Accept": true,
}

// blockingFuncs computes, once, the set of declared functions that may
// block: a channel send/receive or select with no default clause in
// caller scope, a receive-range over a channel, a call to a known
// blocking external, or (transitively) a call to another blocking
// function of the module.
func (cg *callGraph) blockingFuncs() map[*types.Func]bool {
	if cg.blockingOnce {
		return cg.blocking
	}
	cg.blockingOnce = true
	cg.blocking = map[*types.Func]bool{}
	for obj, df := range cg.decls {
		pkg := cg.pkgOf[obj]
		if bodyBlocks(pkg.Info, df.decl.Body) {
			cg.blocking[obj] = true
			continue
		}
		for callee := range cg.callees[obj] {
			if blockingFullNames[callee.FullName()] {
				cg.blocking[obj] = true
				break
			}
		}
	}
	// Fixpoint: calling a blocking function blocks.
	for changed := true; changed; {
		changed = false
		for obj := range cg.decls {
			if cg.blocking[obj] {
				continue
			}
			for callee := range cg.callees[obj] {
				if cg.blocking[callee] {
					cg.blocking[obj] = true
					changed = true
					break
				}
			}
		}
	}
	return cg.blocking
}

// bodyBlocks reports whether the body itself contains a blocking
// channel operation in caller scope: a send or receive that is not a
// comm clause of a select with a default, a select without a default,
// or a range over a channel.
func bodyBlocks(info *types.Info, body ast.Node) bool {
	// First collect the comm operations of selects that have a default
	// clause: those are non-blocking by construction.
	nonBlocking := map[ast.Node]bool{}
	walkCallerScope(body, func(n ast.Node) {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return
		}
		hasDefault := false
		for _, c := range sel.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			return
		}
		nonBlocking[sel] = true
		for _, c := range sel.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
				nonBlocking[cc.Comm] = true
				switch comm := cc.Comm.(type) {
				case *ast.SendStmt:
					nonBlocking[ast.Node(comm)] = true
				case *ast.ExprStmt:
					nonBlocking[comm.X] = true
				case *ast.AssignStmt:
					for _, r := range comm.Rhs {
						nonBlocking[r] = true
					}
				}
			}
		}
	})
	blocks := false
	walkCallerScope(body, func(n ast.Node) {
		if blocks || nonBlocking[n] {
			return
		}
		switch x := n.(type) {
		case *ast.SendStmt:
			blocks = true
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				blocks = true
			}
		case *ast.SelectStmt:
			blocks = true // selects with default were marked above
		case *ast.RangeStmt:
			if _, isChan := types.Unalias(exprType(info, x.X)).Underlying().(*types.Chan); isChan {
				blocks = true
			}
		}
	})
	return blocks
}
