// Package analysis is a dependency-free static-analysis framework (stdlib
// go/parser + go/ast + go/types with the source importer) that mechanically
// enforces this repository's load-bearing contracts:
//
//   - determinism — the simulation/planning packages must stay a pure
//     function of the seed: no wall clock, no global math/rand, no map
//     iteration feeding ordered output or order-sensitive accumulation;
//   - ctxfirst — library APIs are context-first: blocking exported functions
//     take a context.Context as their first parameter, and library code
//     never manufactures context.Background()/TODO() roots;
//   - goroutine — every goroutine in library code is tied to a teardown
//     path (context, done channel, or WaitGroup), and library code never
//     busy-waits on a bare time.Sleep;
//   - metricnames — every internal/metrics registration uses a constant
//     nopfs_-prefixed snake_case name with the unit-suffix conventions;
//   - exitcodes — os.Exit and log.Fatal* live only in cmd/ and
//     internal/cli, where the 0/1/2/130 exit-code contract is implemented;
//   - retrybound — retry loops around fabric calls in library code go
//     through internal/resilience, so every retry is attempt-bounded, backs
//     off deterministically, and honours the per-peer circuit breaker.
//
// Findings are suppressed line by line with
//
//	//lint:ignore <check> <reason>
//
// placed on, or on the line above, the flagged line. The reason is
// mandatory: a reasonless or unknown-check ignore is itself a finding and
// cannot be suppressed. The surface is the `nopfs lint` subcommand
// (internal/cli) and `make lint`.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// Diagnostic is one finding, positioned for both human (String) and machine
// (-json) consumption. File is module-root-relative and slash-separated.
type Diagnostic struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Check   string `json:"check"`
	Message string `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Check, d.Message)
}

// Analyzer is one named check over a loaded package.
type Analyzer struct {
	// Name is the check token used in output and //lint:ignore comments.
	Name string
	// Doc is the one-line contract description.
	Doc string
	// Run returns the check's findings for one package.
	Run func(p *Package) []Diagnostic
}

// Analyzers returns the repo's check suite in output order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		determinismAnalyzer(),
		ctxfirstAnalyzer(),
		goroutineAnalyzer(),
		metricnamesAnalyzer(),
		exitcodesAnalyzer(),
		retryboundAnalyzer(),
	}
}

// Package is one loaded, type-checked package handed to analyzers.
type Package struct {
	Fset *token.FileSet
	// Dir is the absolute package directory; Rel is module-root-relative
	// (slash-separated), e.g. "internal/sim".
	Dir, Rel string
	// Name is the package name from source ("main" matters to scoping).
	Name  string
	Files []*ast.File
	// Types and Info carry whatever type information resolved; either may be
	// partial if the package had type errors.
	Types *types.Package
	Info  *types.Info

	root       string
	typeErrors []error
}

// EffectivePath is the module-relative path scope decisions use. Fixture
// packages under a testdata/src/ tree masquerade as the path below it, so
// testdata/src/internal/sim exercises exactly the internal/sim scope rules.
func (p *Package) EffectivePath() string {
	if i := strings.LastIndex(p.Rel, "testdata/src/"); i >= 0 {
		return p.Rel[i+len("testdata/src/"):]
	}
	return p.Rel
}

// underPath reports whether path is prefix or below it.
func underPath(path, prefix string) bool {
	return path == prefix || strings.HasPrefix(path, prefix+"/")
}

// mainAdjacent reports whether p is command (not library) code: package main
// anywhere, the cmd/ and examples/ trees, and the CLI implementation. The
// context, goroutine, and exit-code contracts bind library code only.
func (p *Package) mainAdjacent() bool {
	if p.Name == "main" {
		return true
	}
	ep := p.EffectivePath()
	for _, prefix := range []string{"cmd", "examples", "internal/cli"} {
		if underPath(ep, prefix) {
			return true
		}
	}
	return false
}

// diag builds a Diagnostic at pos with a module-relative file path.
func (p *Package) diag(pos token.Pos, check, format string, args ...any) Diagnostic {
	position := p.Fset.Position(pos)
	file := position.Filename
	if rel, err := relToSlash(p.root, file); err == nil {
		file = rel
	}
	return Diagnostic{
		File:    file,
		Line:    position.Line,
		Col:     position.Column,
		Check:   check,
		Message: fmt.Sprintf(format, args...),
	}
}

// Lint resolves patterns (relative to cwd), loads each matched package, runs
// the analyzers, applies //lint:ignore suppressions, and returns the
// surviving findings sorted by position. The returned error is a
// *PatternError for bad patterns (a usage error at the CLI).
func Lint(cwd string, patterns []string, analyzers []*Analyzer) ([]Diagnostic, error) {
	diags, _, err := lint(cwd, patterns, analyzers)
	return diags, err
}

// lint is Lint that also returns the type errors of the loaded packages.
func lint(cwd string, patterns []string, analyzers []*Analyzer) ([]Diagnostic, []error, error) {
	cwd, err := filepath.Abs(cwd)
	if err != nil {
		return nil, nil, err
	}
	root, err := FindModuleRoot(cwd)
	if err != nil {
		return nil, nil, err
	}
	dirs, err := Match(cwd, patterns)
	if err != nil {
		return nil, nil, err
	}
	known := map[string]bool{}
	for _, a := range analyzers {
		known[a.Name] = true
	}
	var out []Diagnostic
	var typeErrs []error
	for _, dir := range dirs {
		pkg, err := Load(root, dir)
		if err != nil {
			return nil, nil, err
		}
		typeErrs = append(typeErrs, pkg.typeErrors...)
		var diags []Diagnostic
		for _, a := range analyzers {
			diags = append(diags, a.Run(pkg)...)
		}
		out = append(out, applySuppressions(pkg, diags, known)...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Check < b.Check
	})
	return out, typeErrs, nil
}
