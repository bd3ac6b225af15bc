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
// non-zero on any new finding, so CI enforces the invariants on every
// change.
//
// A finding can be suppressed — sparingly, with a reason — by placing
//
//	// imrlint:ignore <analyzer> <why this site is safe>
//
// on the offending line or on the line directly above it.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// File is one parsed source file of a package.
type File struct {
	// Name is the file's path as handed to the parser (shown in
	// findings).
	Name string
	// AST is the parsed file, with comments (suppression directives are
	// read from them).
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
	// Types is the checked package (may be incomplete when TypeErrors is
	// non-empty — fixtures are checked leniently).
	Types *types.Package
	// Info holds the resolved uses/defs/types/selections for Files. Nil
	// only for hand-built packages; analyzers fall back to syntactic
	// matching for expressions Info cannot resolve.
	Info *types.Info
	// TypeErrors are the type-check diagnostics (empty for packages
	// loaded by LoadPackages, which treats them as load errors).
	TypeErrors []error
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
	// Name identifies the analyzer in findings and in imrlint:ignore
	// directives.
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
		SlabRetain,
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
// once over the whole set) and returns every unsuppressed finding,
// sorted by file, line, column, then analyzer.
func Run(pkgs []*Package, analyzers []*Analyzer) []Finding {
	var out []Finding
	mod := &Module{Pkgs: pkgs}
	allSup := suppressionSet{}
	for _, pkg := range pkgs {
		sup := suppressions(pkg)
		allSup.merge(sup)
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
				Types: pkg.Types, Info: pkg.Info, TypeErrors: pkg.TypeErrors,
			}}
			a.Run(pass)
			for _, f := range pass.findings {
				if sup.covers(f) {
					continue
				}
				out = append(out, f)
			}
		}
	}
	for _, a := range analyzers {
		if a.RunModule == nil {
			continue
		}
		pass := &ModulePass{Analyzer: a, Mod: mod}
		a.RunModule(pass)
		for _, f := range pass.findings {
			if allSup.covers(f) {
				continue
			}
			out = append(out, f)
		}
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

// ignoreRe matches "imrlint:ignore name1[,name2] reason..." inside a
// comment.
var ignoreRe = regexp.MustCompile(`imrlint:ignore\s+([A-Za-z0-9_,-]+)`)

// suppressionSet records, per file, the lines each analyzer is muted on.
type suppressionSet map[string]map[int]map[string]bool // file -> line -> analyzer set

func (s suppressionSet) merge(other suppressionSet) {
	for file, byLine := range other {
		if s[file] == nil {
			s[file] = byLine
			continue
		}
		for line, names := range byLine {
			if s[file][line] == nil {
				s[file][line] = names
				continue
			}
			for n := range names {
				s[file][line][n] = true
			}
		}
	}
}

func (s suppressionSet) covers(f Finding) bool {
	byLine := s[f.Pos.Filename]
	if byLine == nil {
		return false
	}
	names := byLine[f.Pos.Line]
	return names != nil && (names[f.Analyzer] || names["all"])
}

// suppressions scans a package's comments for imrlint:ignore directives.
// A directive mutes the named analyzer(s) on the comment's own line and
// on the line immediately after it (for comments placed above the
// offending statement).
func suppressions(pkg *Package) suppressionSet {
	out := suppressionSet{}
	for _, f := range pkg.Files {
		for _, cg := range f.AST.Comments {
			for _, c := range cg.List {
				m := ignoreRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				end := pkg.Fset.Position(c.End())
				byLine := out[pos.Filename]
				if byLine == nil {
					byLine = map[int]map[string]bool{}
					out[pos.Filename] = byLine
				}
				for _, name := range strings.Split(m[1], ",") {
					name = strings.TrimSpace(name)
					if name == "" {
						continue
					}
					for _, line := range []int{pos.Line, end.Line + 1} {
						if byLine[line] == nil {
							byLine[line] = map[string]bool{}
						}
						byLine[line][name] = true
					}
				}
			}
		}
	}
	return out
}

// ---- shared AST helpers used by the analyzers ----

// funcBody is one analyzable function: a declared function/method or a
// function literal (goroutine bodies and callbacks are analyzed as
// functions of their own — a goroutine does not hold its spawner's
// locks, and a closure's spans pair within the closure).
type funcBody struct {
	name   string
	params *ast.FieldList
	body   *ast.BlockStmt
}

// functionBodies collects every function and function-literal body in
// the file, outermost first.
func functionBodies(f *ast.File) []funcBody {
	var out []funcBody
	ast.Inspect(f, func(n ast.Node) bool {
		switch d := n.(type) {
		case *ast.FuncDecl:
			if d.Body != nil {
				out = append(out, funcBody{name: d.Name.Name, params: d.Type.Params, body: d.Body})
			}
		case *ast.FuncLit:
			out = append(out, funcBody{name: "func literal", params: d.Type.Params, body: d.Body})
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

// importName returns the local name the file binds the given import
// path to ("" when the path is not imported). A dot import returns ".".
func importName(f *ast.File, path string) string {
	for _, imp := range f.Imports {
		p, _ := stringLit(imp.Path)
		if p != path {
			continue
		}
		if imp.Name != nil {
			return imp.Name.Name
		}
		if i := strings.LastIndexByte(p, '/'); i >= 0 {
			return p[i+1:]
		}
		return p
	}
	return ""
}
