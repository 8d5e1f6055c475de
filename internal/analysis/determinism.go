package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// determinismScope lists the packages whose outputs must be a pure function
// of the seed: the clairvoyant-plan pipeline. Bit-identical reports at any
// parallelism (PR 1's contract) die the moment one of these packages reads a
// wall clock, draws from a global PRNG, or lets Go's randomized map
// iteration order leak into an ordered result.
var determinismScope = []string{
	"internal/access",
	"internal/sim",
	"internal/sweep",
	"internal/cachepolicy",
	"internal/plancache",
	"internal/prng",
}

func determinismAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "determinism",
		Doc: "simulation/planning packages must be a pure function of the seed: " +
			"no time.Now/time.Since, no math/rand, no map ranges feeding ordered output or order-sensitive accumulation",
		Run: runDeterminism,
	}
}

func runDeterminism(p *Package) []Diagnostic {
	if !p.under(determinismScope...) {
		return nil
	}

	var diags []Diagnostic
	inspectFiles(p, func(_ *ast.File, n ast.Node) bool {
		switch x := n.(type) {
		case *ast.ImportSpec:
			switch x.Path.Value {
			case `"math/rand"`, `"math/rand/v2"`:
				diags = append(diags, p.diag(x.Pos(), "determinism",
					"import of %s: randomness must flow from the seeded internal/prng generators", x.Path.Value))
			}
		case *ast.CallExpr:
			if name, ok := pkgFuncCall(p.Info, x, "time", "Now", "Since"); ok {
				diags = append(diags, p.diag(x.Pos(), "determinism",
					"call to time.%s: wall-clock time makes simulation output nondeterministic", name))
			}
		case *ast.RangeStmt:
			if t := exprType(p.Info, x.X); t != nil {
				if _, ok := t.Underlying().(*types.Map); ok {
					if sink, found := orderSensitiveSink(p.Info, x.Body); found {
						diags = append(diags, p.diag(x.Pos(), "determinism",
							"map iteration order feeds %s: iterate sorted keys instead", sink))
					}
				}
			}
		}
		return true
	})
	return diags
}

// orderSensitiveSink scans a map-range body for operations whose result
// depends on iteration order: slice appends (ordered accumulation),
// floating-point compound assignment (non-associative accumulation), and
// writes to an output stream. Building other maps, integer counting, and
// key deletion are order-insensitive and pass.
func orderSensitiveSink(info *types.Info, body *ast.BlockStmt) (string, bool) {
	var sink string
	ast.Inspect(body, func(n ast.Node) bool {
		if sink != "" {
			return false
		}
		switch x := n.(type) {
		case *ast.AssignStmt:
			switch x.Tok {
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
				for _, lhs := range x.Lhs {
					if t := exprType(info, lhs); t != nil && isFloat(t) {
						sink = "a floating-point accumulation (non-associative, so the sum depends on order)"
					}
				}
			default:
				for _, rhs := range x.Rhs {
					if call, ok := rhs.(*ast.CallExpr); ok && isAppend(info, call) {
						sink = "a slice append (ordered accumulation)"
					}
				}
			}
		case *ast.CallExpr:
			if name, ok := pkgFuncCall(info, x, "fmt",
				"Print", "Println", "Printf", "Fprint", "Fprintln", "Fprintf"); ok {
				sink = "fmt." + name + " output"
			} else if sel, ok := x.Fun.(*ast.SelectorExpr); ok {
				switch sel.Sel.Name {
				case "Write", "WriteString", "WriteByte", "WriteRune":
					sink = "a stream write"
				}
			}
		}
		return sink == ""
	})
	return sink, sink != ""
}
