package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// PatternError marks a package-pattern problem (no such directory, no Go
// packages matched): a usage error under the CLI's exit-code contract, not a
// runtime failure.
type PatternError struct{ msg string }

func (e *PatternError) Error() string { return e.msg }

func patternErrf(format string, a ...any) error {
	return &PatternError{msg: fmt.Sprintf(format, a...)}
}

// One process-wide file set and one importer per module root, shared by
// every Load call. A module's importer reads the compiler export data `go
// list -export -deps` reports, so no dependency — the standard library
// included — is type-checked from source. When go list fails, the module
// falls back to the source importer, which type-checks each dependency from
// source once and caches it.
var (
	loadMu     sync.Mutex
	sharedFset = token.NewFileSet()
	sourceImp  = importer.ForCompiler(sharedFset, "source", nil)
	modules    = map[string]*module{}
)

// module is one Go module's import state: the export data file of every
// import path listed so far ("" when go list found none).
type module struct {
	root    string
	exports map[string]string
	imp     types.Importer
}

// moduleFor returns the import state of the module holding dir.
func moduleFor(dir string) (*module, error) {
	root, err := FindModuleRoot(dir)
	if m := modules[root]; err != nil || m != nil {
		return m, err
	}
	m := &module{root: root, exports: map[string]string{}}
	m.imp = importer.ForCompiler(sharedFset, "gc", func(path string) (io.ReadCloser, error) {
		if f := m.exports[path]; f != "" {
			return os.Open(f)
		}
		return nil, fmt.Errorf("analysis: no export data for %q", path)
	})
	modules[root] = m
	return m, nil
}

// need lists export data for the paths in imports not listed yet. The
// module's first listing covers all of "./..." too, so linting a whole
// module runs go list once.
func (m *module) need(imports []string) {
	var missing []string
	for _, path := range imports {
		if _, ok := m.exports[path]; !ok && path != "unsafe" {
			missing = append(missing, path)
			m.exports[path] = ""
		}
	}
	if len(missing) == 0 || m.imp == sourceImp {
		return
	}
	if len(m.exports) == len(missing) {
		missing = append(missing, "./...")
	}
	cmd := exec.Command("go", append([]string{"list", "-e", "-export", "-deps",
		"-f", "{{.ImportPath}}\t{{.Export}}"}, missing...)...)
	cmd.Dir = m.root
	out, err := cmd.Output()
	if err != nil {
		m.imp = sourceImp
		return
	}
	for _, line := range strings.Split(string(out), "\n") {
		if path, file, ok := strings.Cut(line, "\t"); ok {
			m.exports[path] = file
		}
	}
}

// FindModuleRoot walks up from dir to the directory containing go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("analysis: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// Match resolves package patterns relative to cwd into package directories
// (absolute, sorted). Supported forms: "dir", "./dir", and the recursive
// "dir/..." / "./...". Recursive walks skip testdata, hidden, and "_"
// directories — name a testdata directory explicitly to lint a fixture.
func Match(cwd string, patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		recursive := false
		p := pat
		if p == "..." {
			p, recursive = ".", true
		} else if strings.HasSuffix(p, "/...") {
			p, recursive = strings.TrimSuffix(p, "/..."), true
		}
		base := filepath.Join(cwd, filepath.FromSlash(p))
		st, err := os.Stat(base)
		if err != nil || !st.IsDir() {
			return nil, patternErrf("no such package directory: %s", pat)
		}
		if !recursive {
			if !hasGoFiles(base) {
				return nil, patternErrf("no Go package in %s", pat)
			}
			add(base)
			continue
		}
		found := false
		err = filepath.WalkDir(base, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			if path != base {
				name := d.Name()
				if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
					return filepath.SkipDir
				}
			}
			if hasGoFiles(path) {
				found = true
				add(path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if !found {
			return nil, patternErrf("no Go packages under %s", pat)
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

// hasGoFiles reports whether dir holds at least one non-test Go source file.
func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if !e.IsDir() && isSourceFile(e.Name()) {
			return true
		}
	}
	return false
}

// isSourceFile reports whether name is a non-test Go source file. Test files
// are outside the lint surface: the contracts govern library and command
// code, and tests legitimately use wall clocks, sleeps, and Background
// contexts.
func isSourceFile(name string) bool {
	return strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go")
}

// Load parses and type-checks the non-test sources of the package in dir.
// root is the module root (used to compute module-relative paths for
// diagnostics and scope decisions). Parse errors fail the load; type errors
// do not — the analyzers work from whatever type information resolved, so a
// package mid-refactor still gets linted — but they are kept on the package,
// so a clean tree can require none.
func Load(root, dir string) (*Package, error) {
	loadMu.Lock()
	defer loadMu.Unlock()

	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	var imports []string
	for _, e := range ents {
		if e.IsDir() || !isSourceFile(e.Name()) {
			continue
		}
		// Only the files the host's build compiles: a package may split a
		// function across GOARCH-suffixed or build-constrained files.
		match, err := build.Default.MatchFile(dir, e.Name())
		if err != nil {
			return nil, err
		}
		if !match {
			continue
		}
		f, err := parser.ParseFile(sharedFset, filepath.Join(dir, e.Name()), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
		for _, spec := range f.Imports {
			path, _ := strconv.Unquote(spec.Path.Value)
			imports = append(imports, path)
		}
	}
	if len(files) == 0 {
		return nil, patternErrf("no Go package in %s", dir)
	}
	rel, err := filepath.Rel(root, dir)
	if err != nil {
		return nil, err
	}
	rel = filepath.ToSlash(rel)
	m, err := moduleFor(dir)
	if err != nil {
		return nil, err
	}
	m.need(imports)

	pkg := &Package{
		Fset:  sharedFset,
		Dir:   dir,
		Rel:   rel,
		Name:  files[0].Name.Name,
		Files: files,
		Info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
		root: root,
	}
	conf := types.Config{
		Importer: m.imp,
		Error:    func(err error) { pkg.typeErrors = append(pkg.typeErrors, err) },
	}
	pkg.Types, _ = conf.Check(rel, sharedFset, files, pkg.Info)
	return pkg, nil
}
