package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ProtoExhaustive checks that the wire protocol's declared surface and
// its handled surface are the same set, module-wide:
//
//   - every frame/kind/cmd constant declared in the transport and core
//     packages must be both emitted (used in a send/encode position)
//     and dispatched (a case arm, an ==/!= comparison, or a handler-map
//     key consumes it). A kind that is emitted but never dispatched is
//     a frame receivers silently drop; dispatched but never emitted is
//     a dead protocol arm.
//   - every message type the core and dfs packages register with
//     transport.RegisterMessage (its type argument) must be built by a
//     composite literal and appear in a type switch or type assertion
//     somewhere in the module — registration makes the transport encode
//     and decode it, but only a sender builds it and only a dispatch arm
//     makes anyone handle it. (Record types register with kv.Register
//     instead; those are data, not messages, and are out of scope.)
//   - every exported trace.Kind constant and every exported metric name
//     constant must be referenced somewhere in the module: the Fig-10
//     decomposition and the experiment assertions read these catalogs,
//     and an unreferenced entry is a series nothing will ever fill.
var ProtoExhaustive = &Analyzer{
	Name: "protoexhaustive",
	Doc: "declared wire constants need both an emit and a dispatch site; " +
		"registered message types need a constructor and a type-switch arm; declared " +
		"trace kinds and metric names must be referenced",
	RunModule: runProtoExhaustive,
}

// wireConstPrefixes select the protocol constants in scope: frame kinds
// on the TCP framing layer, message/chunk kinds and master commands in
// the engine.
var wireConstPrefixes = []string{"frame", "kind", "cmd"}

// wireConstPkg reports whether path declares protocol constants.
func wireConstPkg(path string) bool {
	return strings.HasSuffix(path, "internal/transport") || strings.HasSuffix(path, "internal/core")
}

func runProtoExhaustive(pass *ModulePass) {
	checkWireConsts(pass)
	checkRegisteredTypes(pass)
	checkDeclaredCatalogs(pass)
}

// wireConst tracks one protocol constant's observed uses. group ties
// siblings of one const block together: the dispatch requirement is
// family-relative (see checkWireConsts).
type wireConst struct {
	pkg        *Package
	pos        token.Pos
	group      *ast.GenDecl
	emitted    bool
	dispatched bool
}

func checkWireConsts(pass *ModulePass) {
	tracked := map[types.Object]*wireConst{}
	for _, pkg := range pass.Mod.Pkgs {
		if !wireConstPkg(pkg.Path) {
			continue
		}
		for _, f := range pkg.Files {
			for _, d := range f.AST.Decls {
				gd, ok := d.(*ast.GenDecl)
				if !ok || gd.Tok != token.CONST {
					continue
				}
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for _, name := range vs.Names {
						if !isWireConstName(name.Name) {
							continue
						}
						if obj := pkg.Info.Defs[name]; obj != nil {
							tracked[obj] = &wireConst{pkg: pkg, pos: name.Pos(), group: gd}
						}
					}
				}
			}
		}
	}
	if len(tracked) == 0 {
		return
	}

	for _, pkg := range pass.Mod.Pkgs {
		for _, f := range pkg.Files {
			// First mark the dispatch positions: case arms of a value
			// switch, operands of ==/!=, and keys of a composite literal
			// (the handler-table idiom).
			dispatchPos := map[*ast.Ident]bool{}
			markDispatch := func(e ast.Expr) {
				if id := constIdent(e); id != nil {
					dispatchPos[id] = true
				}
			}
			ast.Inspect(f.AST, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.SwitchStmt:
					for _, c := range x.Body.List {
						if cc, ok := c.(*ast.CaseClause); ok {
							for _, e := range cc.List {
								markDispatch(e)
							}
						}
					}
				case *ast.BinaryExpr:
					if x.Op == token.EQL || x.Op == token.NEQ {
						markDispatch(x.X)
						markDispatch(x.Y)
					}
				case *ast.KeyValueExpr:
					markDispatch(x.Key)
				}
				return true
			})
			ast.Inspect(f.AST, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				wc := tracked[pkg.Info.Uses[id]]
				if wc == nil {
					return true
				}
				if dispatchPos[id] {
					wc.dispatched = true
				} else {
					wc.emitted = true
				}
				return true
			})
		}
	}

	// The dispatch requirement is family-relative: the engine's kind*
	// tags are pure wire labels (dispatch there is the payload type
	// switch, which checkRegisteredTypes covers), while the cmd* and
	// frame* families are switch-dispatched. If ANY sibling of a const
	// block appears in a dispatch position, the family's protocol style
	// is switching — and then every member needs an arm.
	groupDispatched := map[*ast.GenDecl]bool{}
	for _, wc := range tracked {
		if wc.dispatched {
			groupDispatched[wc.group] = true
		}
	}
	for obj, wc := range tracked {
		switch {
		case !wc.emitted && !wc.dispatched:
			pass.Reportf(wc.pkg, wc.pos,
				"wire constant %s is declared but never used; dead protocol surface",
				obj.Name())
		case !wc.dispatched && groupDispatched[wc.group]:
			pass.Reportf(wc.pkg, wc.pos,
				"wire constant %s is emitted but never dispatched (no case arm, comparison, or handler key consumes it, while its const-block siblings are dispatched); frames of this kind are silently dropped",
				obj.Name())
		case !wc.emitted:
			pass.Reportf(wc.pkg, wc.pos,
				"wire constant %s is dispatched but never emitted; dead protocol arm, or a sender forgot the constant",
				obj.Name())
		}
	}
}

// isWireConstName matches frameX/kindX/cmdX (prefix plus an upper-case
// continuation, so "framework" or "kindness" never match).
func isWireConstName(name string) bool {
	for _, p := range wireConstPrefixes {
		if rest, ok := strings.CutPrefix(name, p); ok && rest != "" &&
			rest[0] >= 'A' && rest[0] <= 'Z' {
			return true
		}
	}
	return false
}

// constIdent unwraps e to the identifier naming a constant: a bare
// ident, or the selector of pkg.Const.
func constIdent(e ast.Expr) *ast.Ident {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return x
	case *ast.SelectorExpr:
		return x.Sel
	}
	return nil
}

// checkRegisteredTypes verifies that message types registered by the
// core and dfs layers (and the fixture's transport stand-in) are built
// somewhere and reach a type-switch or type-assertion arm somewhere.
func checkRegisteredTypes(pass *ModulePass) {
	type regSite struct {
		pkg *Package
		pos token.Pos
	}
	registered := map[*types.TypeName]regSite{}
	for _, pkg := range pass.Mod.Pkgs {
		if !(wireConstPkg(pkg.Path) || strings.HasSuffix(pkg.Path, "internal/dfs")) {
			continue
		}
		for _, f := range pkg.Files {
			ast.Inspect(f.AST, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				callee := calleeOf(pkg.Info, call)
				if callee == nil || callee.FullName() != "imapreduce/internal/transport.RegisterMessage" {
					return true
				}
				if n := namedOf(typeArg(pkg.Info, call)); n != nil {
					if _, seen := registered[n.Obj()]; !seen {
						registered[n.Obj()] = regSite{pkg: pkg, pos: call.Pos()}
					}
				}
				return true
			})
		}
	}
	if len(registered) == 0 {
		return
	}

	dispatched, built := map[*types.TypeName]bool{}, map[*types.TypeName]bool{}
	noteType := func(pkg *Package, e ast.Expr) {
		if e == nil {
			return // the x.(type) of a type switch
		}
		if n := namedOf(exprType(pkg.Info, e)); n != nil {
			dispatched[n.Obj()] = true
		}
	}
	for _, pkg := range pass.Mod.Pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f.AST, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.TypeSwitchStmt:
					for _, c := range x.Body.List {
						if cc, ok := c.(*ast.CaseClause); ok {
							for _, e := range cc.List {
								noteType(pkg, e)
							}
						}
					}
				case *ast.TypeAssertExpr:
					noteType(pkg, x.Type)
				case *ast.CompositeLit:
					if n := namedOf(exprType(pkg.Info, x)); n != nil {
						built[n.Obj()] = true
					}
				}
				return true
			})
		}
	}

	for tn, site := range registered {
		if !dispatched[tn] {
			pass.Reportf(site.pkg, site.pos,
				"message type %s is registered with transport.RegisterMessage but no type switch or assertion anywhere handles it; decoded frames of this type are silently dropped",
				tn.Name())
		}
		if !built[tn] {
			pass.Reportf(site.pkg, site.pos,
				"message type %s is registered with transport.RegisterMessage but no composite literal anywhere builds it; dead protocol surface",
				tn.Name())
		}
	}
}

// typeArg returns the first type argument of a call of a generic
// function, or nil.
func typeArg(info *types.Info, call *ast.CallExpr) types.Type {
	fun := ast.Unparen(call.Fun)
	if ix, ok := fun.(*ast.IndexExpr); ok {
		fun = ix.X
	}
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		fun = sel.Sel
	}
	if id, ok := fun.(*ast.Ident); ok && info.Instances[id].TypeArgs.Len() > 0 {
		return info.Instances[id].TypeArgs.At(0)
	}
	return nil
}

// checkDeclaredCatalogs verifies every exported trace.Kind constant and
// every exported metric-name constant is referenced somewhere in the
// module.
func checkDeclaredCatalogs(pass *ModulePass) {
	type catConst struct {
		pkg  *Package
		pos  token.Pos
		what string
	}
	tracked := map[types.Object]catConst{}
	for _, pkg := range pass.Mod.Pkgs {
		isTrace := strings.HasSuffix(pkg.Path, "internal/trace")
		isMetrics := strings.HasSuffix(pkg.Path, "internal/metrics")
		if !isTrace && !isMetrics {
			continue
		}
		for _, f := range pkg.Files {
			for _, d := range f.AST.Decls {
				gd, ok := d.(*ast.GenDecl)
				if !ok || gd.Tok != token.CONST {
					continue
				}
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for _, name := range vs.Names {
						if !ast.IsExported(name.Name) {
							continue
						}
						obj := pkg.Info.Defs[name]
						if obj == nil {
							continue
						}
						switch {
						case isTrace && typeName(obj.Type()) == "Kind":
							tracked[obj] = catConst{pkg: pkg, pos: name.Pos(), what: "trace kind"}
						case isMetrics && isBasicString(obj.Type()):
							tracked[obj] = catConst{pkg: pkg, pos: name.Pos(), what: "metric name constant"}
						}
					}
				}
			}
		}
	}
	if len(tracked) == 0 {
		return
	}

	for _, pkg := range pass.Mod.Pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f.AST, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if _, isTracked := tracked[pkg.Info.Uses[id]]; isTracked {
						delete(tracked, pkg.Info.Uses[id])
					}
				}
				return true
			})
		}
	}

	for obj, cc := range tracked {
		pass.Reportf(cc.pkg, cc.pos,
			"%s %s is declared but never referenced anywhere in the module; no code can ever emit or read this series",
			cc.what, obj.Name())
	}
}
