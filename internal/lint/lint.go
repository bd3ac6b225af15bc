// Package lint is the project's static-analysis framework: a small,
// stdlib-only (go/ast, go/parser, go/token, go/types, go/importer)
// harness for analyzers that encode invariants of *this* codebase — the
// deadlock, tracing, error-handling, protocol-exhaustiveness, and
// determinism rules the concurrent engine, the transport, and the
// seeded chaos harness depend on but that go vet cannot see.
//
// The loader type-checks the whole module from source (dependencies
// resolve from compiled export data), so analyzers see types.Info
// facts, not just names. Per-package Analyzers inspect one checked
// package at a time; module Analyzers (RunModule) see every loaded
// package at once — the call graph, lock-order graph, and wire-protocol
// dispatch maps live at that level. The cmd/imrlint driver loads every
// package under the module, runs all registered analyzers, and exits
// non-zero on any finding, so CI enforces the invariants on every
// change. There is no suppression directive: each analyzer's escape is
// a form of the code itself (sendcheck's `_ =`, ctxflow's `_`
// parameter, lockedsend's select with a default clause).
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// File is one parsed source file of a package.
type File struct {
	// Name is the file's path as handed to the parser (shown in
	// findings).
	Name string
	// AST is the parsed file, with comments.
	AST *ast.File
}

// Package is the unit of analysis: all (non-test, unless the driver was
// asked otherwise) files of one directory, parsed and type-checked.
type Package struct {
	// Path is the package's import path, e.g. "imapreduce/internal/core".
	Path string
	// Fset positions every file in Files.
	Fset *token.FileSet
	// Files are the package's parsed sources.
	Files []*File
	// Types is the checked package. Every loader fails on a type error,
	// so it is complete.
	Types *types.Package
	// Info holds the resolved uses/defs/types/selections for Files.
	Info *types.Info
}

// Module is the whole analyzed source set — every loaded Package.
// Module analyzers (Analyzer.RunModule) see all of it at once.
type Module struct {
	Pkgs []*Package
}

// Finding is one reported invariant violation.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the finding in the classic file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// Pass is the per-(analyzer, package) context handed to Analyzer.Run.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	findings []Finding
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.findings = append(p.findings, Finding{
		Pos:      p.Pkg.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ModulePass is the context handed to a module analyzer's RunModule:
// the whole loaded source set at once.
type ModulePass struct {
	Analyzer *Analyzer
	Mod      *Module
	findings []Finding
}

// Reportf records a finding at pos, which must belong to pkg's FileSet.
func (p *ModulePass) Reportf(pkg *Package, pos token.Pos, format string, args ...any) {
	p.findings = append(p.findings, Finding{
		Pos:      pkg.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzer is one named check. Exactly one of Run (per-package) and
// RunModule (whole source set) is set.
type Analyzer struct {
	// Name identifies the analyzer in findings.
	Name string
	// Doc is the one-paragraph description `imrlint -list` prints.
	Doc string
	// Match, when non-nil, restricts a per-package analyzer to (package
	// path, file base name) pairs it returns true for. A nil Match
	// analyzes everything. Module analyzers scope themselves.
	Match func(pkgPath, fileBase string) bool
	// Run inspects the files of pass.Pkg that survived Match and
	// reports findings through pass.Reportf.
	Run func(pass *Pass)
	// RunModule inspects every loaded package at once — for invariants
	// that live in cross-package contracts (dispatch exhaustiveness,
	// lock ordering, context flow, deprecation).
	RunModule func(pass *ModulePass)
}

// All returns the project's analyzer suite in a stable order.
func All() []*Analyzer {
	return []*Analyzer{
		LockedSend,
		SpanPair,
		SendCheck,
		SimDeterminism,
		MetricKey,
		ProtoExhaustive,
		LockOrder,
		CtxFlow,
		ErrWrapCheck,
	}
}

// ByName returns the analyzer with the given name, or nil.
func ByName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Run executes each analyzer over each package (module analyzers run
// once over the whole set) and returns every finding, sorted by file,
// line, column, then analyzer.
func Run(pkgs []*Package, analyzers []*Analyzer) []Finding {
	var out []Finding
	mod := &Module{Pkgs: pkgs}
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			files := pkg.Files
			if a.Match != nil {
				files = nil
				for _, f := range pkg.Files {
					if a.Match(pkg.Path, baseName(f.Name)) {
						files = append(files, f)
					}
				}
				if len(files) == 0 {
					continue
				}
			}
			pass := &Pass{Analyzer: a, Pkg: &Package{
				Path: pkg.Path, Fset: pkg.Fset, Files: files,
				Types: pkg.Types, Info: pkg.Info,
			}}
			a.Run(pass)
			out = append(out, pass.findings...)
		}
	}
	for _, a := range analyzers {
		if a.RunModule == nil {
			continue
		}
		pass := &ModulePass{Analyzer: a, Mod: mod}
		a.RunModule(pass)
		out = append(out, pass.findings...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}

func baseName(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// ---- shared AST helpers used by the analyzers ----

// funcBody is one analyzable function: a declared function/method or a
// function literal (goroutine bodies and callbacks are analyzed as
// functions of their own — a goroutine does not hold its spawner's
// locks, and a closure's spans pair within the closure).
type funcBody struct {
	name string
	body *ast.BlockStmt
}

// functionBodies collects every function and function-literal body in
// the file, outermost first.
func functionBodies(f *ast.File) []funcBody {
	var out []funcBody
	ast.Inspect(f, func(n ast.Node) bool {
		switch d := n.(type) {
		case *ast.FuncDecl:
			if d.Body != nil {
				out = append(out, funcBody{name: d.Name.Name, body: d.Body})
			}
		case *ast.FuncLit:
			out = append(out, funcBody{name: "func literal", body: d.Body})
		}
		return true
	})
	return out
}

// walkShallow calls fn for every node in root, without descending into
// nested function literals (they are separate funcBodies).
func walkShallow(root ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(root, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit && n != root {
			return false
		}
		return fn(n)
	})
}

// selectorCall decomposes a call of the form X.Sel(...) into the
// receiver expression's source text and the method name. For a plain
// f(...) call it returns ("", "f"). ok is false for indirect calls
// (through a function value expression).
func selectorCall(call *ast.CallExpr) (recv, name string, ok bool) {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return "", fun.Name, true
	case *ast.SelectorExpr:
		return exprString(fun.X), fun.Sel.Name, true
	}
	return "", "", false
}

// exprString renders a simple expression (identifiers, selectors, index
// and unary expressions) as source-ish text, for matching receivers.
func exprString(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprString(x.X) + "." + x.Sel.Name
	case *ast.IndexExpr:
		return exprString(x.X) + "[" + exprString(x.Index) + "]"
	case *ast.UnaryExpr:
		return x.Op.String() + exprString(x.X)
	case *ast.StarExpr:
		return "*" + exprString(x.X)
	case *ast.ParenExpr:
		return "(" + exprString(x.X) + ")"
	case *ast.BasicLit:
		return x.Value
	case *ast.CallExpr:
		return exprString(x.Fun) + "(…)"
	}
	return "…"
}

// stringLit returns the unquoted value of a string literal expression,
// or ok=false when e is not one.
func stringLit(e ast.Expr) (string, bool) {
	lit, isLit := e.(*ast.BasicLit)
	if !isLit || lit.Kind != token.STRING {
		return "", false
	}
	s := lit.Value
	if len(s) >= 2 {
		s = s[1 : len(s)-1]
	}
	return s, true
}

// ---- the statement-flow walker ----

// flowState is what a flow walk carries through a function body: the
// facts one analyzer tracks at a point of it (the locks held).
type flowState[S any] interface {
	// clone copies the state for a branch.
	clone() S
	// merge adds the facts of another branch that reaches the join.
	merge(S)
}

// flow walks one function body in statement order, the one way the
// analyzers follow a function's control flow. Each branch of an if,
// switch, type switch or select runs on a clone of the state before
// it; at the join, the state of every branch that does not exit the
// function (end in a return or a panic) flows on, merged. An if
// without an else and a switch without a default also pass on the state
// from before them, since they may run no branch. A loop body runs
// once, in sequence. The walk does not enter function literals: an
// analyzer walks each one as a function of its own.
type flow[S flowState[S]] struct {
	// leaf handles each statement that holds no statement list. A select
	// clause's communication arrives here too, with nonBlocking set when
	// the select has a default clause and so cannot block.
	leaf func(s ast.Stmt, st S, nonBlocking bool)
	// expr handles each expression a compound statement evaluates: an
	// if or for condition, a switch tag, a range operand.
	expr func(e ast.Expr, st S)
}

// stmts walks a statement list from state st and returns the state
// after it.
func (f flow[S]) stmts(list []ast.Stmt, st S) S {
	for _, s := range list {
		st = f.stmt(s, st)
	}
	return st
}

func (f flow[S]) stmt(s ast.Stmt, st S) S {
	if s == nil {
		return st
	}
	switch x := s.(type) {
	case *ast.BlockStmt:
		return f.stmts(x.List, st)
	case *ast.LabeledStmt:
		return f.stmt(x.Stmt, st)
	case *ast.IfStmt:
		st = f.stmt(x.Init, st)
		f.expr(x.Cond, st)
		var j join[S]
		j.add(f.stmts(x.Body.List, st.clone()), exits(x.Body.List))
		if x.Else != nil {
			j.add(f.stmt(x.Else, st.clone()), elseExits(x.Else))
		} else {
			j.add(st, false)
		}
		return j.result(st)
	case *ast.ForStmt:
		st = f.stmt(x.Init, st)
		if x.Cond != nil {
			f.expr(x.Cond, st)
		}
		return f.stmt(x.Post, f.stmts(x.Body.List, st))
	case *ast.RangeStmt:
		f.expr(x.X, st)
		return f.stmts(x.Body.List, st)
	case *ast.SwitchStmt:
		st = f.stmt(x.Init, st)
		if x.Tag != nil {
			f.expr(x.Tag, st)
		}
		return f.clauses(x.Body.List, st, false)
	case *ast.TypeSwitchStmt:
		st = f.stmt(x.Init, st)
		return f.clauses(x.Body.List, f.stmt(x.Assign, st), false)
	case *ast.SelectStmt:
		return f.clauses(x.Body.List, st, true)
	}
	f.leaf(s, st, false)
	return st
}

// clauses walks the clauses of a switch, type switch or select. A select
// runs exactly one clause; a switch without a default may run none.
func (f flow[S]) clauses(list []ast.Stmt, st S, isSelect bool) S {
	hasDefault := false
	for _, c := range list {
		switch cc := c.(type) {
		case *ast.CaseClause:
			hasDefault = hasDefault || cc.List == nil
		case *ast.CommClause:
			hasDefault = hasDefault || cc.Comm == nil
		}
	}
	var j join[S]
	if !hasDefault && !isSelect {
		j.add(st.clone(), false)
	}
	for _, c := range list {
		b := st.clone()
		var body []ast.Stmt
		switch cc := c.(type) {
		case *ast.CaseClause:
			body = cc.Body
		case *ast.CommClause:
			if cc.Comm != nil {
				f.leaf(cc.Comm, b, hasDefault)
			}
			body = cc.Body
		}
		j.add(f.stmts(body, b), exits(body))
	}
	return j.result(st)
}

// join merges the branch states that reach the end of a compound
// statement.
type join[S flowState[S]] struct {
	out   S
	flows bool
}

func (j *join[S]) add(st S, exits bool) {
	switch {
	case exits:
	case !j.flows:
		j.out, j.flows = st, true
	default:
		j.out.merge(st)
	}
}

// result is the merged state; when every branch exits, the code after
// is unreachable and the state before stands.
func (j *join[S]) result(before S) S {
	if !j.flows {
		return before
	}
	return j.out
}

// exits reports whether a statement list always leaves the function:
// its last statement is a return or a call to panic.
func exits(stmts []ast.Stmt) bool {
	if len(stmts) == 0 {
		return false
	}
	switch last := stmts[len(stmts)-1].(type) {
	case *ast.ReturnStmt:
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

// elseExits reports whether an else branch (a block or an else-if chain)
// always leaves the function.
func elseExits(s ast.Stmt) bool {
	switch e := s.(type) {
	case *ast.BlockStmt:
		return exits(e.List)
	case *ast.IfStmt:
		return exits(e.Body.List) && e.Else != nil && elseExits(e.Else)
	}
	return false
}
