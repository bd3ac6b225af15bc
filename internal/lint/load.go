package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// ModulePath reads the module path from the go.mod at or above dir,
// returning the module path and the module root directory.
func ModulePath(dir string) (string, string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return strings.TrimSpace(rest), dir, nil
				}
			}
			return "", "", fmt.Errorf("lint: no module directive in %s/go.mod", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// ---- shared type-checking environment ----
//
// All parsing and type checking in one process shares a single FileSet
// (so cross-package positions compare and render uniformly) and a
// single gc-export-data importer (so the stdlib is loaded once).
// Packages of the analyzed module are checked from source, in import
// order, so their objects are shared across packages — the module-wide
// analyzers (call graph, lock order, protocol exhaustiveness) depend on
// that identity. Everything else — the stdlib, and real module packages
// imported by test fixtures — is resolved from compiled export data
// located via `go list -export`.

// typeEnv is the process-wide parse/type-check environment.
type typeEnv struct {
	fset *token.FileSet
	exp  *exportData
	gc   types.Importer
}

var (
	envOnce sync.Once
	env     *typeEnv
)

func sharedEnv() *typeEnv {
	envOnce.Do(func() {
		_, root, err := ModulePath(".")
		if err != nil {
			root = "."
		}
		fset := token.NewFileSet()
		exp := &exportData{root: root, files: map[string]string{}}
		env = &typeEnv{fset: fset, exp: exp, gc: importer.ForCompiler(fset, "gc", exp.lookup)}
	})
	return env
}

// exportData locates compiled export data for packages outside the
// source set being checked, by asking the go tool. The first lookup
// preloads the whole module's dependency graph in one `go list` run;
// anything not covered (a fixture importing a package the module does
// not) is resolved with a per-package run.
type exportData struct {
	mu        sync.Mutex
	root      string
	preloaded bool
	files     map[string]string // import path -> export file ("" = known absent)
}

func (e *exportData) lookup(path string) (io.ReadCloser, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.preloaded {
		e.preloaded = true
		e.list("-deps", "./...") // best effort; per-package lookups cover the rest
	}
	f, ok := e.files[path]
	if !ok {
		e.list(path)
		f = e.files[path]
	}
	if f == "" {
		return nil, fmt.Errorf("lint: no compiled export data for %q", path)
	}
	return os.Open(f)
}

// list runs `go list -export` with the given arguments and records the
// reported export files. Errors are swallowed: a missing entry simply
// stays unresolvable and surfaces as a type-check import error.
func (e *exportData) list(args ...string) {
	cmd := exec.Command("go", append([]string{"list", "-export", "-f", "{{.ImportPath}}\t{{.Export}}"}, args...)...)
	cmd.Dir = e.root
	out, err := cmd.Output()
	if err != nil {
		for _, a := range args {
			if !strings.HasPrefix(a, "-") {
				if _, known := e.files[a]; !known {
					e.files[a] = ""
				}
			}
		}
		return
	}
	for _, line := range strings.Split(string(out), "\n") {
		p, f, ok := strings.Cut(strings.TrimSpace(line), "\t")
		if ok && p != "" {
			e.files[p] = f
		}
	}
}

// moduleImporter resolves imports during a type check: packages already
// checked from source win (shared object identity across the module);
// everything else falls back to compiled export data.
type moduleImporter struct {
	checked map[string]*types.Package
	gc      types.Importer
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if p := m.checked[path]; p != nil {
		return p, nil
	}
	return m.gc.Import(path)
}

// newInfo allocates the types.Info maps the analyzers consume.
func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
}

// typeCheck checks one package's parsed files. checked maps already
// type-checked source packages by import path. Type errors are
// collected so one load can report all of them (typeCheckError).
func typeCheck(te *typeEnv, pkgPath string, files []*File, checked map[string]*types.Package) (*types.Package, *types.Info, []error) {
	var errs []error
	conf := types.Config{
		Importer: &moduleImporter{checked: checked, gc: te.gc},
		Error:    func(err error) { errs = append(errs, err) },
	}
	info := newInfo()
	asts := make([]*ast.File, len(files))
	for i, f := range files {
		asts[i] = f.AST
	}
	tpkg, _ := conf.Check(pkgPath, te.fset, asts, info)
	return tpkg, info, errs
}

// LoadPackages parses and type-checks every Go package under each
// pattern into lint Packages. A pattern is a directory, or a directory
// suffixed with "/..." for a recursive walk. Directories named
// testdata, vendor, or starting with "." or "_" are skipped, matching
// the go tool's rules. _test.go files are left out: the invariants
// guard production code, and tests deliberately exercise bad patterns.
// File paths in findings are reported relative to the module root.
//
// Packages are checked from source in dependency order, so a loaded
// package's objects are identical to those its loaded importers see;
// module packages imported but not matched by any pattern resolve from
// compiled export data instead (no doc comments, so e.g. deprecation
// facts about them are invisible — run over ./... for the full view).
// Type-check errors are load errors: the analyzers' typed facts are
// meaningless on code that does not compile.
func LoadPackages(patterns []string) ([]*Package, error) {
	modPath, modRoot, err := ModulePath(".")
	if err != nil {
		return nil, err
	}
	dirs := map[string]bool{}
	for _, pat := range patterns {
		rec := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			rec, pat = true, rest
		} else if pat == "..." {
			rec, pat = true, "."
		}
		pat = filepath.Clean(pat)
		info, err := os.Stat(pat)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		if !info.IsDir() {
			return nil, fmt.Errorf("lint: %s is not a directory", pat)
		}
		if !rec {
			dirs[pat] = true
			continue
		}
		err = filepath.WalkDir(pat, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != pat && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			dirs[p] = true
			return nil
		})
		if err != nil {
			return nil, err
		}
	}

	sorted := make([]string, 0, len(dirs))
	for d := range dirs {
		sorted = append(sorted, d)
	}
	sort.Strings(sorted)

	var pkgs []*Package
	for _, dir := range sorted {
		pkg, err := parseDir(dir, modPath, modRoot)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			pkgs = append(pkgs, pkg)
		}
	}
	if err := checkInOrder(pkgs, modPath); err != nil {
		return nil, err
	}
	return pkgs, nil
}

// checkInOrder type-checks the parsed packages in intra-module import
// order and fails on any type error.
func checkInOrder(pkgs []*Package, modPath string) error {
	te := sharedEnv()
	byPath := map[string]*Package{}
	for _, p := range pkgs {
		byPath[p.Path] = p
	}
	checked := map[string]*types.Package{}
	state := map[string]int{} // 0 unvisited, 1 visiting, 2 done
	var allErrs []error
	var visit func(p *Package)
	visit = func(p *Package) {
		if state[p.Path] != 0 {
			return // cycles are a type error the checker reports itself
		}
		state[p.Path] = 1
		for _, f := range p.Files {
			for _, imp := range f.AST.Imports {
				ipath, _ := stringLit(imp.Path)
				if dep := byPath[ipath]; dep != nil && (ipath == modPath || strings.HasPrefix(ipath, modPath+"/")) {
					visit(dep)
				}
			}
		}
		tpkg, info, errs := typeCheck(te, p.Path, p.Files, checked)
		p.Types, p.Info = tpkg, info
		checked[p.Path] = tpkg
		allErrs = append(allErrs, errs...)
		state[p.Path] = 2
	}
	for _, p := range pkgs {
		visit(p)
	}
	return typeCheckError(allErrs)
}

// typeCheckError folds type-check diagnostics, each of which names its
// file and line, into one load error (nil when there are none). Every
// loader fails on a type error: the analyzers' typed facts mean nothing
// on code that does not compile.
func typeCheckError(errs []error) error {
	if len(errs) == 0 {
		return nil
	}
	const max = 8
	msgs := make([]string, 0, max+1)
	for i, e := range errs {
		if i == max {
			msgs = append(msgs, fmt.Sprintf("... and %d more", len(errs)-max))
			break
		}
		msgs = append(msgs, e.Error())
	}
	return fmt.Errorf("lint: type check failed:\n\t%s", strings.Join(msgs, "\n\t"))
}

// parseDir parses one directory into a Package (nil when it holds no
// eligible Go files). Type checking happens later, in import order.
func parseDir(dir, modPath, modRoot string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	fset := sharedEnv().fset
	var files []*File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") ||
			strings.HasSuffix(name, "_test.go") {
			continue
		}
		path := filepath.Join(dir, name)
		display := path
		if abs, err := filepath.Abs(path); err == nil {
			if rel, err := filepath.Rel(modRoot, abs); err == nil && !strings.HasPrefix(rel, "..") {
				display = rel
			}
		}
		af, err := parser.ParseFile(fset, display, mustRead(path), parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: parse %s: %w", path, err)
		}
		files = append(files, &File{Name: display, AST: af})
	}
	if len(files) == 0 {
		return nil, nil
	}
	pkgPath := modPath
	if abs, err := filepath.Abs(dir); err == nil {
		if rel, err := filepath.Rel(modRoot, abs); err == nil && rel != "." && !strings.HasPrefix(rel, "..") {
			pkgPath = modPath + "/" + filepath.ToSlash(rel)
		}
	}
	return &Package{Path: pkgPath, Fset: fset, Files: files}, nil
}

func mustRead(path string) []byte {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil // surfaces as a parse error with the right file name
	}
	return data
}

// ParseSource builds a single-file Package from in-memory source.
// Imports (the stdlib, or real module packages via their compiled
// export data) resolve; a type error fails the load, as in
// LoadPackages.
func ParseSource(pkgPath, fileName, src string) (*Package, error) {
	te := sharedEnv()
	af, err := parser.ParseFile(te.fset, fileName, src, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	return checkSingle(te, &Package{Path: pkgPath, Fset: te.fset, Files: []*File{{Name: fileName, AST: af}}})
}

// checkSingle type-checks a package that imports no other source
// package of the load.
func checkSingle(te *typeEnv, pkg *Package) (*Package, error) {
	var errs []error
	pkg.Types, pkg.Info, errs = typeCheck(te, pkg.Path, pkg.Files, nil)
	if err := typeCheckError(errs); err != nil {
		return nil, err
	}
	return pkg, nil
}

// LoadFixtureDir parses every .go file of one fixture directory as a
// single package under the given import path, and type-checks it the
// way ParseSource does. Fixture files may import the stdlib and real
// module packages; local stand-in types work too.
func LoadFixtureDir(pkgPath, dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	te := sharedEnv()
	var files []*File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") {
			continue
		}
		path := filepath.Join(dir, name)
		af, err := parser.ParseFile(te.fset, path, mustRead(path), parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: parse %s: %w", path, err)
		}
		files = append(files, &File{Name: path, AST: af})
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no fixture files in %s", dir)
	}
	return checkSingle(te, &Package{Path: pkgPath, Fset: te.fset, Files: files})
}
