package lint

import (
	"go/ast"
	"go/types"
)

// CtxFlow flags a function that accepts a context.Context, never uses
// it, and yet can block — directly on a channel operation or dial, or
// transitively by calling another module function that blocks. That
// combination is the cancellation lie the Submit API migration was
// meant to end: the signature promises the caller can cancel, but the
// blocking wait inside never consults ctx. Thread the context into the
// blocking call or select on ctx.Done(); naming the parameter _ is the
// explicit "this context is intentionally unused" escape hatch.
//
// The blocking facts come from the module call graph: goroutine bodies
// spawned with `go` do not count against the spawner (they don't block
// it), and a context used anywhere in the body — including inside a
// spawned goroutine — counts as used.
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc: "a context.Context parameter must be used (threaded, or selected " +
		"on via Done) in any function that can block; name it _ when the " +
		"context is intentionally ignored",
	RunModule: runCtxFlow,
}

func runCtxFlow(pass *ModulePass) {
	cg := buildCallGraph(pass.Mod)
	blocking := cg.blockingFuncs()
	for _, pkg := range pass.Mod.Pkgs {
		for _, df := range funcDeclsOf(pkg) {
			if df.obj == nil || !blocking[df.obj] {
				continue
			}
			for _, field := range df.decl.Type.Params.List {
				for _, name := range field.Names {
					if name.Name == "_" {
						continue
					}
					obj := pkg.Info.Defs[name]
					if obj == nil || !isContextType(obj.Type()) {
						continue
					}
					if ctxUsed(pkg, df.decl.Body, obj) {
						continue
					}
					pass.Reportf(pkg, name.Pos(),
						"context parameter %s of %s is never used, but the function can block; thread it into the blocking call or select on %s.Done()",
						name.Name, df.decl.Name.Name, name.Name)
				}
			}
		}
	}
}

// ctxUsed reports whether obj is referenced anywhere in body, including
// inside spawned goroutine literals (handing the context to background
// work is a legitimate use).
func ctxUsed(pkg *Package, body *ast.BlockStmt, obj types.Object) bool {
	used := false
	ast.Inspect(body, func(n ast.Node) bool {
		if used {
			return false
		}
		if id, ok := n.(*ast.Ident); ok && pkg.Info.Uses[id] == obj {
			used = true
		}
		return true
	})
	return used
}
