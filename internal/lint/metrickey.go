package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// MetricKey flags metric and trace names passed as inline string
// literals instead of the declared constants. A typo'd counter name
// ("send.retires") doesn't fail anything — it silently splits the
// metric into two series, and the experiment harness, the benchmark
// snapshots, and the soak assertions all read the well-known names from
// internal/metrics. The same goes for trace kinds: the decomposition
// sweep matches trace.Kind constants exactly, so a literal kind string
// produces spans no analysis ever sees.
//
// The internal/metrics and internal/trace packages themselves (where
// the constant sets are declared) are exempt.
var MetricKey = &Analyzer{
	Name: "metrickey",
	Doc: "metric counter names (Set.Add/AddSpan/Span/Timed) and trace kinds " +
		"(Recorder.Emit/Begin/RecordSpan) must be the declared constants, " +
		"not inline string literals",
	Match: func(pkgPath, fileBase string) bool {
		return !strings.HasSuffix(pkgPath, "internal/metrics") &&
			!strings.HasSuffix(pkgPath, "internal/trace")
	},
	Run: runMetricKey,
}

// metricNameMethods take a metric name as their first argument.
var metricNameMethods = map[string]bool{
	"Add":     true,
	"AddSpan": true,
	"Span":    true,
	"Timed":   true,
}

// traceKindMethods take a trace.Kind as their first argument.
var traceKindMethods = map[string]bool{
	"Emit":       true,
	"Begin":      true,
	"RecordSpan": true,
}

func runMetricKey(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f.AST, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			recv, name, ok := selectorCall(call)
			if !ok || recv == "" || len(call.Args) == 0 {
				return true
			}
			// The callee must have the shape of the real API — metric
			// methods take a plain string name first, trace methods take a
			// defined Kind first. Same-named methods elsewhere (wg.Add,
			// logger.Emit(msg string)) are exempt.
			callee := calleeOf(pass.Pkg.Info, call)
			if callee == nil {
				return true
			}
			switch {
			case metricNameMethods[name]:
				if !firstParamIs(callee, isBasicString) {
					return true
				}
				if lit, isLit := stringLit(call.Args[0]); isLit {
					pass.Reportf(call.Args[0].Pos(),
						"metric name %q passed as a string literal to %s.%s; use a constant from internal/metrics (a typo silently splits the series)",
						lit, recv, name)
				}
			case traceKindMethods[name]:
				if !firstParamIs(callee, func(t types.Type) bool {
					return typeName(t) == "Kind"
				}) {
					return true
				}
				if lit, isLit := kindLiteral(call.Args[0]); isLit {
					pass.Reportf(call.Args[0].Pos(),
						"trace kind %q passed as a literal to %s.%s; use a declared trace.Kind constant (the decomposition matches kinds exactly)",
						lit, recv, name)
				}
			}
			return true
		})
	}
}

// kindLiteral matches a raw string literal or an explicit conversion
// like trace.Kind("...") / Kind("..."), both of which bypass the
// declared constant set.
func kindLiteral(e ast.Expr) (string, bool) {
	if s, ok := stringLit(e); ok {
		return s, true
	}
	call, ok := e.(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return "", false
	}
	_, name, ok := selectorCall(call)
	if !ok || name != "Kind" {
		return "", false
	}
	return stringLit(call.Args[0])
}
