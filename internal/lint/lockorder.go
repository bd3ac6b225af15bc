package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"sort"
	"strings"
)

// LockOrder builds the module-wide mutex acquisition-order graph and
// reports cycles. Each statically identifiable mutex — a sync.Mutex or
// RWMutex field of a named type, a package-level mutex variable, or a
// type with an embedded mutex — is one node, keyed by type, not by
// instance (the order discipline is per-type). Acquiring B while A is
// held adds the edge A→B; calls made under a lock contribute edges to
// every mutex the callee may (transitively) acquire, via the module
// call graph. Any strongly connected component with two or more nodes
// is an order inversion: two goroutines interleaving the two paths
// deadlock. Every edge inside such a component is reported at its
// acquisition (or call) site.
//
// Local mutex variables are untracked — they cannot participate in a
// cross-goroutine cycle. Every function body and function literal is
// walked on its own by the shared flow walker (lint.go), so the held set
// follows branches, and a spawned goroutine starts with nothing held;
// what it acquires is not its spawner's. TryLock establishes no edge: it
// fails rather than waits.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc: "mutex acquisition order must be acyclic across the module " +
		"(acquiring B under A on one path and A under B on another " +
		"deadlocks; edges through calls count)",
	RunModule: runLockOrder,
}

// heldCall records a function call made while locks are held; the
// callee's transitive acquisitions become order edges from each held
// mutex.
type heldCall struct {
	callee *types.Func
	held   []string
	pkg    *Package
	pos    token.Pos
}

// orderEdge is one acquisition-order fact, kept at its first witness.
type orderEdge struct {
	from, to string
	pkg      *Package
	pos      token.Pos
	via      string // callee short name for call-mediated edges
}

func runLockOrder(pass *ModulePass) {
	cg := buildCallGraph(pass.Mod)

	direct := map[*types.Func]map[string]bool{} // per-function direct acquisitions
	edges := map[[2]string]orderEdge{}
	var calls []heldCall

	addEdge := func(e orderEdge) {
		k := [2]string{e.from, e.to}
		if _, ok := edges[k]; !ok {
			edges[k] = e
		}
	}

	for _, pkg := range pass.Mod.Pkgs {
		for _, df := range funcDeclsOf(pkg) {
			if df.obj == nil {
				continue
			}
			acquired := map[string]bool{}
			direct[df.obj] = acquired
			walk := func(body *ast.BlockStmt, into map[string]bool) {
				o := &orderScan{pkg: pkg, acquired: into, edge: addEdge, calls: &calls}
				flow[heldLocks]{leaf: o.stmt, expr: o.expr}.stmts(body.List, heldLocks{})
			}
			walk(df.decl.Body, acquired)
			// Each function literal is walked on its own. What one a go
			// statement spawns acquires is not its declaring function's:
			// the caller never holds or waits for those locks.
			funcLits(df.decl.Body, false, func(lit *ast.FuncLit, spawned bool) {
				into := acquired
				if spawned {
					into = nil
				}
				walk(lit.Body, into)
			})
		}
	}

	// Transitive closure of acquisitions through the call graph.
	acq := map[*types.Func]map[string]bool{}
	for fn, d := range direct {
		set := map[string]bool{}
		for k := range d {
			set[k] = true
		}
		acq[fn] = set
	}
	for changed := true; changed; {
		changed = false
		for fn := range acq {
			for callee := range cg.callees[fn] {
				for k := range acq[callee] {
					if !acq[fn][k] {
						acq[fn][k] = true
						changed = true
					}
				}
			}
		}
	}
	for _, hc := range calls {
		for to := range acq[hc.callee] {
			for _, from := range hc.held {
				if from != to {
					addEdge(orderEdge{from: from, to: to, pkg: hc.pkg, pos: hc.pos,
						via: hc.callee.Name()})
				}
			}
		}
	}

	// Strongly connected components of two or more nodes are inversions.
	for _, scc := range lockSCCs(edges) {
		if len(scc) < 2 {
			continue
		}
		inSCC := map[string]bool{}
		for _, n := range scc {
			inSCC[n] = true
		}
		sort.Strings(scc)
		cycle := strings.Join(scc, ", ")
		for _, e := range sortedEdges(edges) {
			if !inSCC[e.from] || !inSCC[e.to] {
				continue
			}
			if e.via != "" {
				pass.Reportf(e.pkg, e.pos,
					"call to %s acquires %s while %s is held, completing a lock-order cycle among {%s}; acquire these locks in one global order",
					e.via, e.to, e.from, cycle)
			} else {
				pass.Reportf(e.pkg, e.pos,
					"%s acquired while %s is held, completing a lock-order cycle among {%s}; acquire these locks in one global order",
					e.to, e.from, cycle)
			}
		}
	}
}

func sortedEdges(edges map[[2]string]orderEdge) []orderEdge {
	out := make([]orderEdge, 0, len(edges))
	for _, e := range edges {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].from != out[j].from {
			return out[i].from < out[j].from
		}
		return out[i].to < out[j].to
	})
	return out
}

// lockSCCs runs Tarjan's algorithm over the order graph.
func lockSCCs(edges map[[2]string]orderEdge) [][]string {
	adj := map[string][]string{}
	nodes := map[string]bool{}
	for k := range edges {
		adj[k[0]] = append(adj[k[0]], k[1])
		nodes[k[0]], nodes[k[1]] = true, true
	}
	var order []string
	for n := range nodes {
		order = append(order, n)
	}
	sort.Strings(order)
	for _, vs := range adj {
		sort.Strings(vs)
	}

	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	next := 0
	var sccs [][]string

	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v], low[v] = next, next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var scc []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			sccs = append(sccs, scc)
		}
	}
	for _, v := range order {
		if _, seen := index[v]; !seen {
			strongconnect(v)
		}
	}
	return sccs
}

// orderScan is lockorder's side of a flow walk over one function body:
// each acquisition adds an edge from every held mutex, and each call
// made with locks held is kept for the call-graph edges.
type orderScan struct {
	pkg *Package
	// acquired collects the declaring function's direct acquisitions;
	// nil in the body of a spawned goroutine.
	acquired map[string]bool
	edge     func(orderEdge)
	calls    *[]heldCall
}

func (o *orderScan) stmt(s ast.Stmt, held heldLocks, _ bool) {
	switch st := s.(type) {
	case *ast.ExprStmt:
		call, isCall := st.X.(*ast.CallExpr)
		if !isCall {
			break
		}
		op, isLock := held.track(o.pkg.Info, call, false)
		if !isLock {
			break
		}
		if op.acquire && op.class != "" {
			for _, h := range held {
				if h.class != "" && h.class != op.class {
					o.edge(orderEdge{from: h.class, to: op.class, pkg: o.pkg, pos: call.Pos()})
				}
			}
			if o.acquired != nil {
				o.acquired[op.class] = true
			}
		}
		return
	case *ast.DeferStmt:
		if _, isLock := held.track(o.pkg.Info, st.Call, true); isLock {
			return // defer mu.Unlock(): held until return
		}
	case *ast.GoStmt:
		// Only the arguments evaluate here; the call runs on the new
		// goroutine.
		for _, a := range st.Call.Args {
			o.expr(a, held)
		}
		return
	}
	o.callsIn(s, held)
}

func (o *orderScan) expr(e ast.Expr, held heldLocks) { o.callsIn(e, held) }

// callsIn records each static call in n made while a tracked mutex is
// held (not descending into function literals).
func (o *orderScan) callsIn(n ast.Node, held heldLocks) {
	var classes []string
	for _, h := range held {
		if h.class != "" {
			classes = append(classes, h.class)
		}
	}
	if len(classes) == 0 {
		return
	}
	walkShallow(n, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if callee := calleeOf(o.pkg.Info, call); callee != nil {
				*o.calls = append(*o.calls, heldCall{callee: callee, held: classes, pkg: o.pkg, pos: call.Pos()})
			}
		}
		return true
	})
}

// funcLits calls fn for every function literal nested in n, outermost
// first. spawned is set for the literal a go statement runs and for
// everything nested in it.
func funcLits(n ast.Node, spawned bool, fn func(lit *ast.FuncLit, spawned bool)) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.GoStmt:
			lit, ok := x.Call.Fun.(*ast.FuncLit)
			if !ok {
				return true
			}
			fn(lit, true)
			funcLits(lit.Body, true, fn)
			for _, a := range x.Call.Args {
				funcLits(a, spawned, fn)
			}
			return false
		case *ast.FuncLit:
			fn(x, spawned)
			funcLits(x.Body, spawned, fn)
			return false
		}
		return true
	})
}

// syncLockMethods are the fully-qualified mutex operations. A Lock or
// Unlock that is NOT one of these (a cache's Lock method, a lease's
// Unlock) is no mutex operation at all.
var syncLockMethods = map[string]bool{
	"(*sync.Mutex).Lock":      true,
	"(*sync.Mutex).Unlock":    true,
	"(*sync.RWMutex).Lock":    true,
	"(*sync.RWMutex).Unlock":  true,
	"(*sync.RWMutex).RLock":   true,
	"(*sync.RWMutex).RUnlock": true,
	"(sync.Locker).Lock":      true,
	"(sync.Locker).Unlock":    true,
}

// lockOp is one mutex operation: the mutex, by its receiver's source
// text; its node in the lock-order graph ("" for a local mutex, which
// takes no part in a cross-goroutine cycle); and whether it acquires
// (Lock, RLock) or releases (Unlock, RUnlock).
type lockOp struct {
	recv, class string
	acquire     bool
}

// lockKeyOp classifies call as a mutex operation: ok is false for any
// call that is not a sync mutex method.
func lockKeyOp(info *types.Info, call *ast.CallExpr) (op lockOp, ok bool) {
	callee := calleeOf(info, call)
	if callee == nil || !syncLockMethods[callee.FullName()] {
		return lockOp{}, false
	}
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return lockOp{}, false
	}
	class, _ := lockKey(info, sel.X)
	name := callee.Name()
	return lockOp{recv: exprString(sel.X), class: class, acquire: name == "Lock" || name == "RLock"}, true
}

// heldLocks is the held-lock tracker lockedsend and lockorder share: the
// mutexes held at a point of a flow walk, keyed by the receiver text of
// the Lock that took each one.
type heldLocks map[string]heldLock

// heldLock is one held mutex: where it was locked and its lock-order
// class.
type heldLock struct {
	pos   token.Pos
	class string
}

func (h heldLocks) clone() heldLocks { return maps.Clone(h) }

// merge joins another branch: a lock held at the end of either branch
// stays held.
func (h heldLocks) merge(o heldLocks) {
	for k, v := range o {
		if _, ok := h[k]; !ok {
			h[k] = v
		}
	}
}

// track applies call to the held set when it is a mutex operation and
// reports whether it was one. A deferred operation changes nothing: a
// deferred Unlock runs at return, so the lock stays held for the rest
// of the body.
func (h heldLocks) track(info *types.Info, call *ast.CallExpr, deferred bool) (lockOp, bool) {
	op, ok := lockKeyOp(info, call)
	if !ok || deferred {
		return op, ok
	}
	if op.acquire {
		h[op.recv] = heldLock{pos: call.Pos(), class: op.class}
	} else {
		delete(h, op.recv)
	}
	return op, true
}

// first returns the earliest-locked held mutex, for messages.
func (h heldLocks) first() (string, heldLock) {
	bestName, best := "", heldLock{}
	for k, v := range h {
		if bestName == "" || v.pos < best.pos || (v.pos == best.pos && k < bestName) {
			bestName, best = k, v
		}
	}
	return bestName, best
}

// lockKey canonicalizes the receiver of a mutex operation. Keys are
// "pkg.Type" for embedded mutexes, "pkg.Type.field" for mutex fields,
// and "pkg.var" for package-level mutex variables; locals yield !ok.
func lockKey(info *types.Info, recv ast.Expr) (string, bool) {
	recv = ast.Unparen(recv)
	// Embedded mutex: the receiver is the owning struct, not a mutex.
	if n := namedOf(exprType(info, recv)); n != nil {
		if o := n.Obj(); o.Pkg() != nil && o.Pkg().Path() != "sync" {
			return o.Pkg().Name() + "." + o.Name(), true
		}
	}
	switch x := recv.(type) {
	case *ast.SelectorExpr:
		v, ok := info.Uses[x.Sel].(*types.Var)
		if !ok {
			return "", false
		}
		if v.IsField() {
			if owner := namedOf(exprType(info, x.X)); owner != nil && owner.Obj().Pkg() != nil {
				return owner.Obj().Pkg().Name() + "." + owner.Obj().Name() + "." + v.Name(), true
			}
			return "", false
		}
		if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Name() + "." + v.Name(), true
		}
	case *ast.Ident:
		if v, ok := info.Uses[x].(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Name() + "." + v.Name(), true
		}
	}
	return "", false
}
