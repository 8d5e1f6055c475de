package analysis

import (
	"go/ast"
	"go/types"
)

// clockScope lists the live packages that read and wait on time only
// through internal/clock, so their tests can run on a manual clock.
var clockScope = []string{"internal/storage", "internal/resilience", "internal/transport"}

func goroutineAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "goroutine",
		Doc: "every goroutine in library code is tied to a teardown path (context, channel, or " +
			"WaitGroup), library code never busy-waits on a bare time.Sleep, and the clockScope " +
			"packages call no time function that reads or waits on the clock",
		Run: runGoroutine,
	}
}

func runGoroutine(p *Package) []Diagnostic {
	if p.mainAdjacent() {
		return nil
	}
	var diags []Diagnostic
	decls := funcDeclIndex(p)
	timeFuncs, why := []string{"Sleep"}, "bare time.%s in library code: wait on a context or timer channel so "+
		"cancellation can interrupt it (PR 3 contract: teardown in bounded time)"
	if p.under(clockScope...) {
		timeFuncs = []string{"Now", "Since", "Until", "Sleep", "After", "AfterFunc", "NewTimer", "Tick", "NewTicker"}
		why = "call to time.%s outside internal/clock: read and wait on a clock.Clock, so tests can run this package on a manual clock"
	}

	inspectFiles(p, func(_ *ast.File, n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			if name, ok := pkgFuncCall(p.Info, x, "time", timeFuncs...); ok {
				diags = append(diags, p.diag(x.Pos(), "goroutine", why, name))
			}
		case *ast.GoStmt:
			if !teardownEvidence(p, decls, x) {
				diags = append(diags, p.diag(x.Pos(), "goroutine",
					"goroutine has no visible teardown path: tie it to a context, a done/work "+
						"channel, or a sync.WaitGroup so cluster shutdown can collect it"))
			}
		}
		return true
	})
	return diags
}

// teardownEvidence reports whether the spawned function is visibly tied to a
// teardown path. The heuristic accepts any of, in the goroutine's arguments,
// its function-literal body, or (one level deep) the body of a same-package
// named function it calls:
//
//   - a value of type context.Context (cancellation reaches it),
//   - any channel operation or channel-typed value (its lifetime is bound to
//     a peer closing/draining the channel),
//   - a sync.WaitGroup use (a collector is waiting for it).
//
// A goroutine with none of these is unreachable by every shutdown mechanism
// the repo has — the exact leak class PR 3's zero-leaked-goroutines tests
// exist to prevent.
func teardownEvidence(p *Package, decls map[types.Object]*ast.FuncDecl, g *ast.GoStmt) bool {
	// Evidence in the call arguments (e.g. `go serve(ctx, conn)`).
	for _, arg := range g.Call.Args {
		if nodeHasTeardown(p, arg) {
			return true
		}
	}
	// Evidence in the spawned body: a literal's own body, or — one level
	// deep — the declaration of a same-package named function or method.
	switch fun := g.Call.Fun.(type) {
	case *ast.FuncLit:
		return nodeHasTeardown(p, fun.Body)
	default:
		if obj := calleeObject(p.Info, fun); obj != nil {
			if decl, ok := decls[obj]; ok && decl.Body != nil {
				return nodeHasTeardown(p, decl.Body)
			}
		}
		// Receiver evidence: `go j.worker()` where j carries a ctx/chan
		// field is opaque here, but the selector base itself may be typed.
		if sel, ok := fun.(*ast.SelectorExpr); ok && nodeHasTeardown(p, sel.X) {
			return true
		}
	}
	return false
}

// nodeHasTeardown scans one AST subtree for teardown evidence.
func nodeHasTeardown(p *Package, root ast.Node) bool {
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		if found {
			return false
		}
		switch x := n.(type) {
		case *ast.SelectStmt, *ast.SendStmt:
			found = true
		case *ast.UnaryExpr:
			if x.Op.String() == "<-" {
				found = true
			}
		case ast.Expr:
			if t := exprType(p.Info, x); t != nil {
				if isContext(t) || isChan(t) || isWaitGroup(t) {
					found = true
				}
			}
		}
		return !found
	})
	return found
}
