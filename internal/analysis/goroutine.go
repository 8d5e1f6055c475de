package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// clockScope lists the live packages that read and wait on time only
// through internal/clock, so their tests can run on a manual clock.
var clockScope = []string{"internal/storage", "internal/resilience", "internal/transport", "nopfs"}

func goroutineAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "goroutine",
		Doc: "every goroutine in library code is tied to a teardown path (context, channel, or " +
			"WaitGroup), library code never busy-waits on a bare time.Sleep, and the clockScope " +
			"packages call no time function that reads or waits on the clock, make no sync.Cond, and read or wait on " +
			"clock.Real only through a stored default",
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
	inClock := p.under(clockScope...)
	if inClock {
		timeFuncs = []string{"Now", "Since", "Until", "Sleep", "After", "AfterFunc", "NewTimer", "Tick", "NewTicker"}
		why = "call to time.%s outside internal/clock: read and wait on a clock.Clock, so tests can run this package on a manual clock"
	}

	inspectFiles(p, func(_ *ast.File, n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			if name, ok := pkgFuncCall(p.Info, x, "time", timeFuncs...); ok {
				diags = append(diags, p.diag(x.Pos(), "goroutine", why, name))
			}
			if _, ok := pkgFuncCall(p.Info, x, "sync", "NewCond"); ok && inClock {
				diags = append(diags, p.diag(x.Pos(), "goroutine", "sync.NewCond in a clock-scope package: "+
					"a Cond wait wakes for neither a context nor the clock; park in Clock.WaitUntil on a wake channel"))
			}
			if ref := realClockUse(p.Info, x); inClock && ref != nil {
				diags = append(diags, p.diag(ref.Pos(), "goroutine", "clock.Real read or waited on at the call: "+
					"store it as a default (a field, an assignment, cmp.Or) and read the stored clock, so tests can swap it"))
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

// realClockUse returns the clock.Real that call reads or waits on: its
// receiver (clock.Real.Now()) or an argument of a clock function
// (clock.Sleep(ctx, clock.Real, d)); nil if there is none.
func realClockUse(info *types.Info, call *ast.CallExpr) ast.Expr {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	if isClockReal(info, sel.X) {
		return sel.X
	}
	if fn, ok := info.Uses[sel.Sel].(*types.Func); !ok || !isClockPkg(fn.Pkg()) {
		return nil
	}
	for _, arg := range call.Args {
		if isClockReal(info, arg) {
			return arg
		}
	}
	return nil
}

// isClockReal reports whether e names the variable internal/clock.Real.
func isClockReal(info *types.Info, e ast.Expr) bool {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	v, ok := info.Uses[sel.Sel].(*types.Var)
	return ok && v.Name() == "Real" && isClockPkg(v.Pkg())
}

// isClockPkg reports whether pkg is internal/clock.
func isClockPkg(pkg *types.Package) bool {
	return pkg != nil && (pkg.Path() == "internal/clock" || strings.HasSuffix(pkg.Path(), "/internal/clock"))
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
