package analysis

import (
	"go/ast"
	"strings"
)

func retryboundAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "retrybound",
		Doc: "retry loops around fabric calls in library code go through internal/resilience " +
			"(bounded attempts, seeded backoff, breaker-gated)",
		Run: runRetrybound,
	}
}

// runRetrybound flags unbounded `for` loops (no loop condition) that issue a
// fabric Call in library code. The repo's contract is that its one retry
// loop lives in resilience.Do — everything else either bounds its iteration
// explicitly (a conditioned or counted loop, like the allgather's peer walk)
// or delegates to the policy, so every retry is attempt-bounded, backs off
// deterministically, and respects the per-peer circuit breaker. An inline
// `for { Call }` silently spins on a dead peer forever; that is exactly the
// hang class the resilience layer exists to remove.
func runRetrybound(p *Package) []Diagnostic {
	if p.mainAdjacent() || p.under("internal/resilience") {
		return nil
	}
	var diags []Diagnostic
	inspectFiles(p, func(_ *ast.File, n ast.Node) bool {
		loop, ok := n.(*ast.ForStmt)
		if !ok || loop.Cond != nil {
			return true
		}
		if call := fabricCallIn(p, loop.Body); call != nil {
			diags = append(diags, p.diag(loop.Pos(), "retrybound",
				"unbounded for loop around a fabric Call: route the retry through "+
					"internal/resilience (resilience.Do) so attempts are bounded, backoff is "+
					"seeded, and the per-peer circuit breaker is honoured"))
		}
		return true
	})
	return diags
}

// fabricCallIn returns the first transport Call invocation in the subtree,
// or nil. A fabric call is a method call named Call whose receiver's static
// type is declared in internal/transport (the Network interface, a concrete
// endpoint, or any alias of them — decorators embedding Network resolve to
// the interface type).
func fabricCallIn(p *Package, root ast.Node) *ast.CallExpr {
	var found *ast.CallExpr
	ast.Inspect(root, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Call" {
			return true
		}
		if t := namedType(exprType(p.Info, sel.X)); t != nil && t.Obj().Pkg() != nil &&
			strings.HasSuffix(t.Obj().Pkg().Path(), "internal/transport") {
			found = call
		}
		return found == nil
	})
	return found
}
