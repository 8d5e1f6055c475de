package analysis

import (
	"go/ast"
)

func exitcodesAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "exitcodes",
		Doc: "os.Exit and log.Fatal* live only in cmd/ and internal/cli, where the " +
			"0/1/2/130 exit-code contract is implemented; library code returns errors",
		Run: runExitcodes,
	}
}

func runExitcodes(p *Package) []Diagnostic {
	// package main is the process boundary by definition (cmd/, examples/),
	// and internal/cli implements the contract itself.
	if p.Name == "main" {
		return nil
	}
	ep := p.EffectivePath()
	if underPath(ep, "cmd") || underPath(ep, "internal/cli") {
		return nil
	}
	var diags []Diagnostic
	inspectFiles(p, func(_ *ast.File, n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if _, ok := pkgFuncCall(p.Info, call, "os", "Exit"); ok {
			diags = append(diags, p.diag(call.Pos(), "exitcodes",
				"os.Exit in library code: return an error and let cmd/ or internal/cli map it "+
					"onto the 0/1/2/130 exit-code contract"))
		}
		if name, ok := pkgFuncCall(p.Info, call, "log", "Fatal", "Fatalf", "Fatalln"); ok {
			diags = append(diags, p.diag(call.Pos(), "exitcodes",
				"log.%s in library code exits the process: return an error and let cmd/ or "+
					"internal/cli map it onto the exit-code contract", name))
		}
		return true
	})
	return diags
}
