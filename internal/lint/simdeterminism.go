package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// SimDeterminism guards the reproducibility of the simulator and the
// seeded chaos soak: internal/sim, internal/simcluster, and the soak
// scheduling in internal/experiments must produce bit-identical results
// from a seed alone. Three leak paths are flagged:
//
//   - wall-clock reads (time.Now / time.Since / time.Until) — a value
//     derived from the host clock differs between runs. Sleeping and
//     timers are allowed: they pace a real engine without feeding
//     nondeterministic values into results.
//   - the global math/rand source (rand.Intn, rand.Float64, ...) —
//     only rand.New(rand.NewSource(seed)) keeps the stream replayable.
//   - iteration over a map while accumulating ordered output (append or
//     channel send in the loop body) — Go randomizes map order per run.
var SimDeterminism = &Analyzer{
	Name: "simdeterminism",
	Doc: "no wall-clock reads, global math/rand source, or map-iteration-" +
		"ordered output in the simulator and soak scheduling (seeded runs " +
		"must be bit-reproducible)",
	Match: func(pkgPath, fileBase string) bool {
		switch {
		case strings.HasSuffix(pkgPath, "internal/sim"),
			strings.HasSuffix(pkgPath, "internal/simcluster"):
			return true
		case strings.HasSuffix(pkgPath, "internal/experiments"):
			// Only the seeded soak scheduler; the other experiment files
			// time real engine runs and legitimately read the clock.
			return fileBase == "soak.go"
		}
		return false
	},
	Run: runSimDeterminism,
}

// seededRandCtors are the math/rand functions allowed in deterministic
// code: constructors for an explicitly seeded source.
var seededRandCtors = map[string]bool{"New": true, "NewSource": true, "NewPCG": true, "NewChaCha8": true}

func runSimDeterminism(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f.AST, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if callee := calleeOf(pass.Pkg.Info, call); callee != nil {
					checkDeterministicCallee(pass, call, callee)
				}
			}
			return true
		})
		checkMapRangeOrder(pass, f.AST)
	}
}

// checkDeterministicCallee flags clock reads and the global math/rand
// source. The resolved callee gives the true package however it was
// imported. Methods on *rand.Rand are fine — a Rand is built from an
// explicit source; only the package-level (global-source) functions
// leak nondeterminism.
func checkDeterministicCallee(pass *Pass, call *ast.CallExpr, callee *types.Func) {
	full := callee.FullName()
	if full == "time.Now" || full == "time.Since" || full == "time.Until" {
		pass.Reportf(call.Pos(),
			"%s reads the wall clock; seeded simulation/soak code must derive every value from the seed",
			full)
		return
	}
	pkg := callee.Pkg()
	if pkg == nil || (pkg.Path() != "math/rand" && pkg.Path() != "math/rand/v2") {
		return
	}
	if sig, ok := callee.Type().(*types.Signature); ok && sig.Recv() != nil {
		return // method on an explicitly seeded *rand.Rand
	}
	if seededRandCtors[callee.Name()] {
		return
	}
	pass.Reportf(call.Pos(),
		"%s uses the global math/rand source; use a local rand.New(rand.NewSource(seed)) so the run replays from its seed",
		exprString(call.Fun))
}

// checkMapRangeOrder flags `for k := range m` over a map when the loop
// body accumulates ordered output (append or a channel send): Go
// randomizes map iteration order per process, so the accumulated
// sequence differs between runs. The one sanctioned shape — appending
// into a slice that is later passed to a sort.* or slices.* call in the
// same function (collect keys, sort, iterate sorted) — is exempt.
func checkMapRangeOrder(pass *Pass, f *ast.File) {
	info := pass.Pkg.Info
	for _, fb := range functionBodies(f) {
		sorted := sortedVars(info, fb)
		walkShallow(fb.body, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			if _, isMap := types.Unalias(exprType(info, rng.X)).Underlying().(*types.Map); !isMap {
				return true
			}
			if node, kind, target, found := orderedAccumulation(rng.Body); found {
				if kind == "append" && target != "" && sorted[target] {
					return true
				}
				pass.Reportf(node.Pos(),
					"%s inside range over map %s produces map-iteration-ordered output; iterate a sorted key slice instead",
					kind, exprString(rng.X))
			}
			return true
		})
	}
}

// orderedAccumulation finds an append call or channel send in body.
// target is the slice appended to when it is a plain identifier.
func orderedAccumulation(body *ast.BlockStmt) (pos ast.Node, kind, target string, found bool) {
	var hit ast.Node
	var what, tgt string
	walkShallow(body, func(n ast.Node) bool {
		if hit != nil {
			return false
		}
		switch x := n.(type) {
		case *ast.CallExpr:
			if id, ok := x.Fun.(*ast.Ident); ok && id.Name == "append" {
				hit, what = x, "append"
				if len(x.Args) > 0 {
					if slice, ok := x.Args[0].(*ast.Ident); ok {
						tgt = slice.Name
					}
				}
				return false
			}
		case *ast.SendStmt:
			hit, what = x, "channel send"
			return false
		}
		return true
	})
	if hit == nil {
		return nil, "", "", false
	}
	return hit, what, tgt, true
}

// sortedVars collects identifiers passed to a function of package sort
// or slices anywhere in the function: appending map keys into a slice
// sorted afterwards is the sanctioned fix for map-order dependence, not
// a bug.
func sortedVars(info *types.Info, fb funcBody) map[string]bool {
	out := map[string]bool{}
	walkShallow(fb.body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := calleeOf(info, call)
		if callee == nil || callee.Pkg() == nil || (callee.Pkg().Path() != "sort" && callee.Pkg().Path() != "slices") {
			return true
		}
		for _, arg := range call.Args {
			if id, ok := arg.(*ast.Ident); ok {
				out[id.Name] = true
			}
		}
		return true
	})
	return out
}
