package analysis

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden fixture expectations")

// fixtureDirs lists every fixture package and the analyzer its golden file
// is named for (the golden still holds the output of the FULL suite over the
// package, so cross-firing between analyzers cannot hide).
var fixtureDirs = []struct{ dir, golden string }{
	{"internal/sim", "determinism"},
	{"internal/access", "determinism-access"},
	{"internal/ctxlib", "ctxfirst"},
	{"internal/golib", "goroutine"},
	{"internal/storage", "goroutine-clock"},
	{"nopfs", "goroutine-clock-nopfs"},
	{"internal/metlib", "metricnames"},
	{"internal/exitlib", "exitcodes"},
	{"internal/retrylib", "retrybound"},
	{"internal/clean", "clean"},
}

// TestFixtureGoldens runs the full suite over each fixture package and
// compares the findings line for line against the golden file. The
// suppressed.go twins in each fixture contribute zero lines, which is the
// proof that a reasoned //lint:ignore silences each check; the bad.go files
// prove each check fires.
func TestFixtureGoldens(t *testing.T) {
	for _, tc := range fixtureDirs {
		t.Run(tc.golden, func(t *testing.T) {
			diags, err := Lint(".", []string{"./testdata/src/" + tc.dir}, Analyzers())
			if err != nil {
				t.Fatal(err)
			}
			var b strings.Builder
			for _, d := range diags {
				b.WriteString(d.String())
				b.WriteByte('\n')
			}
			got := b.String()

			goldenPath := filepath.Join("testdata", "golden", tc.golden+".golden")
			if *update {
				if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("missing golden (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("findings drifted from %s:\n--- got ---\n%s--- want ---\n%s", goldenPath, got, want)
			}
		})
	}
}

// TestFixturesFireEveryAnalyzer is the meta-acceptance check: each of the
// six analyzers produces at least one finding somewhere in the fixtures,
// and each fixture's suppressed file produces none.
func TestFixturesFireEveryAnalyzer(t *testing.T) {
	diags, err := Lint(".", []string{
		"./testdata/src/internal/sim",
		"./testdata/src/internal/access",
		"./testdata/src/internal/ctxlib",
		"./testdata/src/internal/golib",
		"./testdata/src/internal/storage",
		"./testdata/src/internal/metlib",
		"./testdata/src/internal/exitlib",
		"./testdata/src/internal/retrylib",
	}, Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	fired := map[string]bool{}
	for _, d := range diags {
		fired[d.Check] = true
		if strings.HasSuffix(d.File, "suppressed.go") {
			t.Errorf("finding leaked through a reasoned suppression: %s", d)
		}
	}
	for _, a := range Analyzers() {
		if !fired[a.Name] {
			t.Errorf("analyzer %s produced no fixture finding", a.Name)
		}
	}
	// The suppression grammar is itself enforced: the malformed fixtures
	// must surface as "suppression" findings.
	if !fired["suppression"] {
		t.Errorf("malformed //lint:ignore fixtures produced no suppression finding")
	}
}

// TestRepoLintClean is the suite's acceptance criterion in executable form:
// the full suite over the real tree reports nothing — every pre-existing
// finding was fixed or carries a written suppression reason — and every
// package type-checks, so no analyzer ran on partial type information (a
// missing import's export data would otherwise weaken them all silently).
func TestRepoLintClean(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	diags, typeErrs, err := lint(root, []string{"./..."}, Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("unsuppressed finding: %s", d)
	}
	for _, e := range typeErrs {
		t.Errorf("type error: %v", e)
	}
}

// TestMatchPatterns pins the pattern grammar and its usage-error class.
func TestMatchPatterns(t *testing.T) {
	if _, err := Match(".", []string{"./no/such/dir"}); err == nil {
		t.Error("missing directory: want error")
	} else if _, ok := err.(*PatternError); !ok {
		t.Errorf("missing directory: got %T, want *PatternError", err)
	}
	if _, err := Match(".", []string{"./testdata"}); err == nil {
		t.Error("dir without Go files: want *PatternError")
	}

	dirs, err := Match(".", []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if strings.Contains(d, "testdata") {
			t.Errorf("recursive walk descended into testdata: %s", d)
		}
	}
	if len(dirs) != 1 {
		t.Errorf("./... from internal/analysis matched %d dirs, want 1 (itself): %v", len(dirs), dirs)
	}

	// Explicitly naming a testdata package works (fixtures, CI's seeded
	// violation) and recursive patterns below one are honoured.
	dirs, err = Match(".", []string{"./testdata/src/..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) != len(fixtureDirs) {
		t.Errorf("testdata/src/... matched %d dirs, want %d", len(dirs), len(fixtureDirs))
	}
}

// TestDiagnosticJSON pins the -json wire shape the CLI exposes.
func TestDiagnosticJSON(t *testing.T) {
	d := Diagnostic{File: "internal/x/y.go", Line: 3, Col: 7, Check: "determinism", Message: "m"}
	raw, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"file":"internal/x/y.go","line":3,"col":7,"check":"determinism","message":"m"}`
	if string(raw) != want {
		t.Errorf("JSON shape drifted:\n got %s\nwant %s", raw, want)
	}
	if s := d.String(); s != "internal/x/y.go:3:7: determinism: m" {
		t.Errorf("String() drifted: %s", s)
	}
}

// TestEffectivePath pins the testdata/src masquerade used by fixtures.
func TestEffectivePath(t *testing.T) {
	p := &Package{Rel: "internal/analysis/testdata/src/internal/sim"}
	if got := p.EffectivePath(); got != "internal/sim" {
		t.Errorf("EffectivePath = %q, want internal/sim", got)
	}
	p = &Package{Rel: "internal/sweep"}
	if got := p.EffectivePath(); got != "internal/sweep" {
		t.Errorf("EffectivePath = %q, want internal/sweep", got)
	}
}
