package lint

import (
	"go/ast"
	"go/types"
)

// SendCheck flags silently discarded error results of the calls that
// feed the retry and rollback machinery: transport Send/ReliableSend
// (and the engine's sendReliable wrapper), and DFS WriteFile/Rename.
// Every one of these errors is load-bearing — Send errors are how the
// FaultyNetwork surfaces drops and how TCP surfaces dead connections,
// and WriteFile/Rename errors gate the checkpoint commit protocol.
//
// A bare call statement discards the error invisibly and is flagged. An
// explicit `_ = ep.Send(...)` is allowed: it is the project's visible
// "loss is tolerated here" marker (shutdown races, counted-and-dropped
// frames) and every such site is expected to say why in a comment.
var SendCheck = &Analyzer{
	Name: "sendcheck",
	Doc: "error results of Send/ReliableSend/sendReliable and DFS " +
		"WriteFile/Rename must not be silently discarded (assign to _ " +
		"explicitly when loss is tolerated)",
	Run: runSendCheck,
}

// checkedCallNames are the callee names whose error result must be
// consumed or explicitly discarded.
var checkedCallNames = map[string]bool{
	"Send":         true,
	"ReliableSend": true,
	"sendReliable": true,
	"WriteFile":    true,
	"Rename":       true,
}

func runSendCheck(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f.AST, func(n ast.Node) bool {
			var call *ast.CallExpr
			var how string
			switch st := n.(type) {
			case *ast.ExprStmt:
				c, ok := st.X.(*ast.CallExpr)
				if !ok {
					return true
				}
				call, how = c, "discarded"
			case *ast.GoStmt:
				call, how = st.Call, "discarded by go statement"
			case *ast.DeferStmt:
				call, how = st.Call, "discarded by defer"
			default:
				return true
			}
			recv, name, ok := selectorCall(call)
			if !ok || !checkedCallNames[name] {
				return true
			}
			// The callee must actually return an error, and
			// WriteFile/Rename must be methods — os.WriteFile and os.Rename
			// are not the DFS commit path this analyzer guards. A call
			// through a function value has no static callee and is exempt.
			callee := calleeOf(pass.Pkg.Info, call)
			if callee == nil || !lastResultIsError(callee) {
				return true
			}
			if name == "WriteFile" || name == "Rename" {
				if sig, ok := callee.Type().(*types.Signature); ok && sig.Recv() == nil {
					return true
				}
			}
			target := name
			if recv != "" {
				target = recv + "." + name
			}
			pass.Reportf(call.Pos(),
				"error result of %s %s; handle it or write `_ = %s(...)` with a reason",
				target, how, target)
			return true
		})
	}
}
