package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ErrWrapCheck flags == / != comparisons (and switch cases) that match
// an error against a package-level sentinel like ErrQueueFull or
// ErrKilled. The module wraps errors at layer boundaries — the serve
// admission path wraps ErrQuotaExceeded with tenant context, the engine
// wraps ErrKilled with the task id — so an identity comparison silently
// stops matching the moment anyone adds `%w` context upstream. Use
// errors.Is (or errors.As for typed errors), which unwraps.
//
// Only variables of error type named Err* at package scope count as
// sentinels; `err == nil` and comparisons against local error values
// are fine.
var ErrWrapCheck = &Analyzer{
	Name: "errwrapcheck",
	Doc: "errors must be matched against Err* sentinels with errors.Is, " +
		"not == / != / switch-case identity (wrapped errors never match " +
		"an identity comparison)",
	Run: runErrWrapCheck,
}

func runErrWrapCheck(pass *Pass) {
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f.AST, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.BinaryExpr:
				if x.Op != token.EQL && x.Op != token.NEQ {
					return true
				}
				s := sentinelError(info, x.X)
				other := x.Y
				if s == nil {
					s = sentinelError(info, x.Y)
					other = x.X
				}
				if s == nil || isNilExpr(info, other) {
					return true
				}
				pass.Reportf(x.Pos(),
					"error compared against sentinel %s with %s; wrapped errors never match — use errors.Is(err, %s)",
					s.Name(), x.Op, s.Name())
			case *ast.SwitchStmt:
				if x.Tag == nil {
					return true
				}
				if !isErrorType(exprType(info, x.Tag)) {
					return true
				}
				for _, c := range x.Body.List {
					cc, ok := c.(*ast.CaseClause)
					if !ok {
						continue
					}
					for _, e := range cc.List {
						if s := sentinelError(info, e); s != nil {
							pass.Reportf(e.Pos(),
								"switch case matches error against sentinel %s by identity; wrapped errors never match — use errors.Is(err, %s)",
								s.Name(), s.Name())
						}
					}
				}
			}
			return true
		})
	}
}

// sentinelError resolves e to a package-level error variable named
// Err*, or nil.
func sentinelError(info *types.Info, e ast.Expr) *types.Var {
	v, ok := usedObject(info, e).(*types.Var)
	if !ok || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
		return nil
	}
	if len(v.Name()) < 4 || v.Name()[:3] != "Err" {
		return nil
	}
	if !isErrorType(v.Type()) {
		return nil
	}
	return v
}

// isNilExpr reports whether e is the predeclared nil.
func isNilExpr(info *types.Info, e ast.Expr) bool {
	return info.Types[e].IsNil()
}
