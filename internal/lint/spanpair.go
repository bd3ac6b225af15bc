package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"slices"
)

// SpanPair flags trace spans opened with Begin that can be left open:
// a Pending that is never ended, discarded outright, or not ended on an
// early-return path and not closed by a defer. An unpaired 'B' event
// corrupts the factor decomposition (decompose.go pairs B/E by ID and
// drops orphans silently), so a leak here shows up as missing coverage
// in Fig-10 plots rather than as an error — exactly the kind of bug a
// human review misses.
//
// Each function is followed by the shared flow walker (lint.go): a return
// on a path where the span is still open is flagged, unless a defer ends
// it.
var SpanPair = &Analyzer{
	Name: "spanpair",
	Doc: "every trace span Begin must have a matching End on all paths of " +
		"the function (use defer p.End() when early returns exist)",
	Run: runSpanPair,
}

func runSpanPair(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		for _, fb := range functionBodies(f.AST) {
			checkSpanPairs(pass, fb)
		}
	}
}

// openSpans is what the flow walk carries for spanpair: the spans begun
// and not yet ended on the path so far, by variable name, with their
// Begin positions.
type openSpans map[string]token.Pos

func (o openSpans) clone() openSpans { return maps.Clone(o) }

// merge joins another branch: a span open at the end of either branch
// is still open.
func (o openSpans) merge(b openSpans) {
	for k, v := range b {
		if _, ok := o[k]; !ok {
			o[k] = v
		}
	}
}

// spanScan is spanpair's side of a flow walk over one function body.
// ended and deferred hold for the whole body: the spans some statement
// ends, and the spans a defer ends on every path.
type spanScan struct {
	pass     *Pass
	fn       string
	ended    map[string]bool
	deferred map[string]bool
	begins   []beginSite
}

type beginSite struct {
	name string
	pos  token.Pos
}

func checkSpanPairs(pass *Pass, fb funcBody) {
	sc := &spanScan{pass: pass, fn: fb.name, ended: map[string]bool{}, deferred: map[string]bool{}}
	walkShallow(fb.body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.ExprStmt:
			if call, ok := st.X.(*ast.CallExpr); ok {
				if recv, ok := endCall(call); ok {
					sc.ended[recv] = true
				}
			}
		case *ast.DeferStmt:
			// defer x.End(), or defer func() { ...; x.End(); ... }().
			if recv, ok := endCall(st.Call); ok {
				sc.deferred[recv] = true
			}
			if lit, ok := st.Call.Fun.(*ast.FuncLit); ok {
				ast.Inspect(lit.Body, func(n ast.Node) bool {
					if call, ok := n.(*ast.CallExpr); ok {
						if recv, ok := endCall(call); ok {
							sc.deferred[recv] = true
						}
					}
					return true
				})
			}
		}
		return true
	})
	flow[openSpans]{leaf: sc.stmt, expr: func(ast.Expr, openSpans) {}}.stmts(fb.body.List, openSpans{})
	for _, b := range sc.begins {
		if !sc.ended[b.name] && !sc.deferred[b.name] {
			pass.Reportf(b.pos,
				"span %s opened in %s is never ended; call %s.End() or defer it",
				b.name, fb.name, b.name)
		}
	}
}

func (sc *spanScan) stmt(s ast.Stmt, open openSpans, _ bool) {
	info := sc.pass.Pkg.Info
	switch st := s.(type) {
	case *ast.AssignStmt:
		for i, rhs := range st.Rhs {
			call, ok := rhs.(*ast.CallExpr)
			if !ok || i >= len(st.Lhs) || !isBeginCall(info, call) {
				continue
			}
			id, ok := st.Lhs[i].(*ast.Ident)
			if !ok {
				continue
			}
			if id.Name == "_" {
				sc.discarded(call)
				continue
			}
			open[id.Name] = call.Pos()
			sc.begins = append(sc.begins, beginSite{id.Name, call.Pos()})
		}
	case *ast.ExprStmt:
		call, ok := st.X.(*ast.CallExpr)
		if !ok {
			return
		}
		if isBeginCall(info, call) {
			sc.discarded(call)
		} else if recv, ok := endCall(call); ok {
			delete(open, recv)
		}
	case *ast.ReturnStmt:
		// A span with no End anywhere is reported once, at its Begin; one
		// a defer ends is ended on every path.
		for _, name := range slices.Sorted(maps.Keys(open)) {
			if sc.ended[name] && !sc.deferred[name] {
				sc.pass.Reportf(st.Pos(),
					"return leaves span %s (opened at line %d) unended in %s; end it before returning or use defer %s.End()",
					name, sc.pass.Pkg.Fset.Position(open[name]).Line, sc.fn, name)
			}
		}
	}
}

func (sc *spanScan) discarded(call *ast.CallExpr) {
	sc.pass.Reportf(call.Pos(),
		"result of %s discarded in %s; the span can never be ended",
		exprString(call.Fun), sc.fn)
}

// endCall reports whether call is <name>.End() and returns the name.
func endCall(call *ast.CallExpr) (string, bool) {
	recv, name, ok := selectorCall(call)
	return recv, ok && name == "End" && recv != ""
}

// isBeginCall reports whether call is <expr>.Begin(...) opening a span.
// The callee must return exactly one value — the Pending. A
// database-style `tx, err := db.Begin()` (two results) is a
// transaction, not a trace span, and is exempt.
func isBeginCall(info *types.Info, call *ast.CallExpr) bool {
	recv, name, ok := selectorCall(call)
	if !ok || recv == "" || name != "Begin" {
		return false
	}
	callee := calleeOf(info, call)
	if callee == nil {
		return false
	}
	sig, ok := callee.Type().(*types.Signature)
	return ok && sig.Results().Len() == 1
}
