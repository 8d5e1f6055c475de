package sweep

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	isim "repro/internal/sim"
)

// patternGoldenGrid is goldenGrid with an access-pattern axis: the explicit
// uniform baseline column plus a zipf column, exactly as AccessAxis builds
// for the CLIs. The cells are the same synthetic functions, so the goldens
// pin the pattern column's place in every report format and nothing else.
func patternGoldenGrid() *Grid {
	g := goldenGrid()
	g.Name = "golden-pattern"
	g.Patterns = []AccessSpec{
		{Name: "uniform"},
		{Name: "zipf", Spec: "zipf:s=1.1"},
	}
	return g
}

// TestGoldenPatternEncoders pins the pattern column byte-for-byte across
// JSON, CSV, and text, against checked-in goldens. Regenerate with -update.
func TestGoldenPatternEncoders(t *testing.T) {
	rep, err := (&Runner{Parallel: 3}).Run(context.Background(), patternGoldenGrid())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		file   string
		encode func(*bytes.Buffer) error
	}{
		{"golden_pattern.json", func(b *bytes.Buffer) error { return WriteJSON(b, rep) }},
		{"golden_pattern.csv", func(b *bytes.Buffer) error { return WriteCSV(b, rep) }},
		{"golden_pattern.txt", func(b *bytes.Buffer) error { return WriteText(b, rep) }},
	}
	for _, tc := range cases {
		t.Run(tc.file, func(t *testing.T) {
			var buf bytes.Buffer
			if err := tc.encode(&buf); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", tc.file)
			if *update {
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update to create): %v", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("%s drifted from golden.\n-- got --\n%s\n-- want --\n%s",
					tc.file, buf.Bytes(), want)
			}
		})
	}
}

// TestPatternStreamingByteIdentity: grids carrying a pattern axis — the
// synthetic golden grid and a real simulator grid — satisfy checkEncoders.
func TestPatternStreamingByteIdentity(t *testing.T) {
	axis, err := AccessAxis("zipf:s=1.1,drift=0.05")
	if err != nil {
		t.Fatal(err)
	}
	simGrid := testGrid(t)
	simGrid.Patterns = axis
	for _, g := range []*Grid{patternGoldenGrid(), simGrid} {
		checkEncoders(t, g)
	}
}

// TestAccessAxis pins the axis helper's contract: empty and uniform specs
// mean no axis at all (legacy output stays byte-identical), anything else
// pairs the pattern with the uniform baseline, and parse errors surface.
func TestAccessAxis(t *testing.T) {
	for _, spec := range []string{"", "uniform"} {
		axis, err := AccessAxis(spec)
		if err != nil {
			t.Fatalf("AccessAxis(%q): %v", spec, err)
		}
		if axis != nil {
			t.Errorf("AccessAxis(%q) = %v, want no axis", spec, axis)
		}
	}
	axis, err := AccessAxis("zipf:s=1.2")
	if err != nil {
		t.Fatal(err)
	}
	if len(axis) != 2 {
		t.Fatalf("AccessAxis(zipf) = %d columns, want 2 (uniform baseline + pattern)", len(axis))
	}
	if axis[0].Name != "uniform" || axis[0].Spec != "" {
		t.Errorf("baseline column = %+v, want named uniform with empty spec", axis[0])
	}
	if axis[1].Spec == "" {
		t.Errorf("pattern column %+v lost its spec", axis[1])
	}
	if _, err := AccessAxis("zipf:s=banana"); err == nil {
		t.Error("AccessAxis accepted an unparseable spec")
	}
}

// TestGridValidatePatterns: the grid validator rejects unnamed and duplicate
// pattern columns and unparseable specs before any cell runs, and accepts
// an elastic pattern crossed with a crash profile, whose cells all run.
func TestGridValidatePatterns(t *testing.T) {
	base := func() *Grid {
		g := funcGrid(1)
		g.Patterns = []AccessSpec{{Name: "uniform"}, {Name: "zipf", Spec: "zipf:s=1.1"}}
		return g
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("valid patterned grid rejected: %v", err)
	}

	g := base()
	g.Patterns[1].Name = ""
	if err := g.Validate(); err == nil {
		t.Error("unnamed pattern column accepted")
	}

	g = base()
	g.Patterns[1].Name = "uniform"
	if err := g.Validate(); err == nil || !strings.Contains(err.Error(), `duplicate pattern name "uniform"`) {
		t.Errorf("duplicate pattern name: err = %v", err)
	}

	g = base()
	g.Patterns[1].Spec = "zipf:s=oops"
	if err := g.Validate(); err == nil {
		t.Error("unparseable pattern spec accepted")
	}

	g = base()
	g.Patterns[1] = AccessSpec{Name: "elastic", Spec: "elastic:leave=1@2"}
	if err := g.Validate(); err != nil {
		t.Fatalf("elastic pattern without structural chaos rejected: %v", err)
	}
	crash, err := ChaosAxis("crash:1@1")
	if err != nil {
		t.Fatal(err)
	}
	g.Profiles = crash
	if err := g.Validate(); err != nil {
		t.Fatalf("elastic pattern × crash profile rejected: %v", err)
	}
	sim := smallSimGrid(t)
	sim.Patterns, sim.Profiles = g.Patterns, crash
	rep, err := (&Runner{Parallel: 2}).Run(bg, sim)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 24 {
		t.Fatalf("elastic × crash grid ran %d cells, want 24", len(rep.Cells))
	}
	for _, c := range rep.Cells {
		if c.Outcome.Failed {
			t.Errorf("%s %s @%s @%s failed: %s", c.Scenario, c.Policy, c.Profile, c.Pattern, c.Outcome.FailReason)
		}
	}
}

// smallSimGrid is a small simulator grid for the pattern-axis tests: one
// Fig. 8 panel × three policies × two replicas.
func smallSimGrid(t *testing.T) *Grid {
	t.Helper()
	s, err := isim.ScenarioByID("fig8a")
	if err != nil {
		t.Fatal(err)
	}
	g := ScenarioGrid(s, testScale, 5, 2)
	g.Policies = g.Policies[:3]
	return g
}

// TestPatternCellsDeterministic: a patterned simulator grid reproduces its
// report byte for byte across runs and pool widths.
func TestPatternCellsDeterministic(t *testing.T) {
	build := func() *Grid {
		g := smallSimGrid(t)
		axis, err := AccessAxis("curriculum:buckets=4")
		if err != nil {
			t.Fatal(err)
		}
		g.Patterns = axis
		return g
	}
	var reports [][]byte
	for _, par := range []int{1, 4} {
		rep, err := (&Runner{Parallel: par}).Run(bg, build())
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteJSON(&buf, rep); err != nil {
			t.Fatal(err)
		}
		reports = append(reports, buf.Bytes())
	}
	if !bytes.Equal(reports[0], reports[1]) {
		t.Error("patterned grid report differs across pool widths")
	}
}

// TestUniformPatternAxisMatchesNoAxis: an explicit single uniform column
// must not change cell outcomes relative to the axis-free grid — the empty
// spec is the same simulation. (Headers differ: the axis is present.)
func TestUniformPatternAxisMatchesNoAxis(t *testing.T) {
	plain, err := (&Runner{Parallel: 2}).Run(bg, smallSimGrid(t))
	if err != nil {
		t.Fatal(err)
	}
	g := smallSimGrid(t)
	g.Patterns = []AccessSpec{{Name: "uniform"}}
	axised, err := (&Runner{Parallel: 2}).Run(bg, g)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Cells) != len(axised.Cells) {
		t.Fatalf("cell counts differ: %d vs %d", len(plain.Cells), len(axised.Cells))
	}
	for i := range plain.Cells {
		p, q := plain.Cells[i], axised.Cells[i]
		if p.Seed != q.Seed {
			t.Fatalf("cell %d seed differs: %d vs %d", i, p.Seed, q.Seed)
		}
		for k, v := range p.Outcome.Values {
			if q.Outcome.Values[k] != v {
				t.Errorf("cell %d metric %s differs: %v vs %v", i, k, v, q.Outcome.Values[k])
			}
		}
	}
}
