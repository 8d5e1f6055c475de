package sweep

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/access"
	"repro/internal/cachepolicy"
	"repro/internal/prng"
	isim "repro/internal/sim"
)

// testScale keeps grids fast while preserving dataset-vs-storage regimes.
const testScale = 0.005

// bg is the default context for tests that exercise the engine's data paths
// rather than cancellation.
var bg = context.Background()

// testGrid is two Fig. 8 panels × every policy × two replicas — small
// enough for fast tests, wide enough to exercise scenario, policy, and
// replica enumeration plus a Failed cell group (LBANN on fig8d).
func testGrid(t *testing.T) *Grid {
	t.Helper()
	a, err := isim.ScenarioByID("fig8a")
	if err != nil {
		t.Fatal(err)
	}
	d, err := isim.ScenarioByID("fig8d")
	if err != nil {
		t.Fatal(err)
	}
	return &Grid{
		Name:      "test",
		Scenarios: []ScenarioSpec{scenarioSpec(a, testScale), scenarioSpec(d, testScale)},
		Policies:  AllPolicySpecs(),
		Replicas:  2, BaseSeed: 42,
	}
}

func TestReplicaSeedDerivation(t *testing.T) {
	if got := ReplicaSeed(42, 0); got != 42 {
		t.Errorf("replica 0 seed = %d, want the base seed unchanged", got)
	}
	seen := map[uint64]int{42: 0}
	for r := 1; r <= 16; r++ {
		s := ReplicaSeed(42, r)
		if prev, dup := seen[s]; dup {
			t.Errorf("replica %d seed %d collides with replica %d", r, s, prev)
		}
		seen[s] = r
		if again := ReplicaSeed(42, r); again != s {
			t.Errorf("replica %d seed not stable: %d vs %d", r, s, again)
		}
	}
	if ReplicaSeed(42, 1) == ReplicaSeed(43, 1) {
		t.Error("different base seeds produced the same replica-1 seed")
	}
}

func TestGridEnumeration(t *testing.T) {
	g := testGrid(t)
	cells := g.Cells()
	if len(cells) != g.Size() || g.Size() != 2*10*2 {
		t.Fatalf("got %d cells, want %d", len(cells), 2*10*2)
	}
	for i, c := range cells {
		if c.Index != i {
			t.Errorf("cell %d carries index %d", i, c.Index)
		}
		if c.Seed != ReplicaSeed(g.BaseSeed, c.Replica) {
			t.Errorf("cell %d seed %d != ReplicaSeed(%d, %d)", i, c.Seed, g.BaseSeed, c.Replica)
		}
	}
	// Scenario-major, then policy, then replica.
	if cells[0].Scenario != "fig8a" || cells[0].Policy != "Naive" || cells[0].Replica != 0 {
		t.Errorf("unexpected first cell %+v", cells[0])
	}
	if c := cells[1]; c.Replica != 1 || c.Policy != "Naive" {
		t.Errorf("replica should vary fastest, got %+v", c)
	}
	if c := cells[len(cells)-1]; c.Scenario != "fig8d" || c.Policy != "LowerBound" || c.Replica != 1 {
		t.Errorf("unexpected last cell %+v", c)
	}
}

func TestGridValidate(t *testing.T) {
	if err := (&Grid{Name: "empty"}).Validate(); err == nil {
		t.Error("empty grid accepted")
	}
	g := testGrid(t)
	if err := g.Validate(); err != nil {
		t.Errorf("valid grid rejected: %v", err)
	}
	bad := *g
	bad.Policies = []PolicySpec{{Name: "broken"}}
	if err := bad.Validate(); err == nil {
		t.Error("policy without constructor accepted")
	}
	// A repeated label on any axis is rejected by name: summaries, text
	// blocks and by-ID presenters all assume one contiguous group per label.
	clean, err := ChaosAxis("straggler:0x2@1")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		want string
		dup  func(g *Grid)
	}{
		{`duplicate scenario ID "fig8a"`, func(g *Grid) { g.Scenarios = append(g.Scenarios, g.Scenarios[0]) }},
		{`duplicate policy name "Naive"`, func(g *Grid) { g.Policies = append(g.Policies, g.Policies[0]) }},
		{`duplicate profile name "clean"`, func(g *Grid) { g.Profiles = append(clean, clean[0]) }},
	} {
		g := testGrid(t)
		tc.dup(g)
		if err := g.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("want an error naming %s, got %v", tc.want, err)
		}
	}
}

// TestDeterminismAcrossParallelism is the engine's core invariant: the same
// grid and base seed produce byte-identical JSON and CSV reports whether
// cells run serially or on an 8-wide pool.
func TestDeterminismAcrossParallelism(t *testing.T) {
	encode := func(parallel int) (jsonB, csvB []byte) {
		t.Helper()
		rep, err := (&Runner{Parallel: parallel}).Run(bg, testGrid(t))
		if err != nil {
			t.Fatal(err)
		}
		var j, c bytes.Buffer
		if err := WriteJSON(&j, rep); err != nil {
			t.Fatal(err)
		}
		if err := WriteCSV(&c, rep); err != nil {
			t.Fatal(err)
		}
		return j.Bytes(), c.Bytes()
	}
	j1, c1 := encode(1)
	j8, c8 := encode(8)
	if !bytes.Equal(j1, j8) {
		t.Error("JSON reports differ between -parallel 1 and -parallel 8")
	}
	if !bytes.Equal(c1, c8) {
		t.Error("CSV reports differ between -parallel 1 and -parallel 8")
	}
	// And across repeated runs at the same width.
	j8b, _ := encode(8)
	if !bytes.Equal(j8, j8b) {
		t.Error("repeated -parallel 8 runs differ")
	}
}

// TestEngineMatchesDirectRun pins the engine to the Run primitive: a
// 1-replica scenario grid must reproduce a hand-rolled serial loop exactly.
func TestEngineMatchesDirectRun(t *testing.T) {
	s, err := isim.ScenarioByID("fig8b")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := (&Runner{Parallel: 4}).Run(bg, ScenarioGrid(s, testScale, 42, 1))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := s.Config(testScale, 42)
	if err != nil {
		t.Fatal(err)
	}
	pols := isim.AllPolicies()
	if len(rep.Cells) != len(pols) {
		t.Fatalf("got %d cells, want %d", len(rep.Cells), len(pols))
	}
	for i, pol := range pols {
		want, err := isim.Run(cfg, pol)
		if err != nil {
			t.Fatal(err)
		}
		got := rep.Cells[i]
		if got.Policy != want.Policy {
			t.Errorf("cell %d is %q, want %q (bar order)", i, got.Policy, want.Policy)
		}
		if got.Outcome.Failed != want.Failed {
			t.Errorf("%s: engine failed=%v, direct failed=%v", want.Policy, got.Outcome.Failed, want.Failed)
		}
		if want.Failed {
			continue
		}
		if exec, stall := got.Outcome.Values[MetricExec], got.Outcome.Values[MetricStall]; exec != want.ExecSeconds || stall != want.StallSeconds {
			t.Errorf("%s: engine exec/stall %.6f/%.6f != direct %.6f/%.6f",
				want.Policy, exec, stall, want.ExecSeconds, want.StallSeconds)
		}
	}
}

func TestRegistryRoundTrip(t *testing.T) {
	// Policy registry: every Fig. 8 policy resolves to a working spec whose
	// constructor yields a fresh instance with the same name.
	specs := AllPolicySpecs()
	if len(specs) != len(isim.AllPolicies()) {
		t.Fatalf("%d policy specs, want %d", len(specs), len(isim.AllPolicies()))
	}
	for _, spec := range specs {
		if _, err := isim.PolicyByName(spec.Name); err != nil {
			t.Errorf("spec %q is not a registered policy: %v", spec.Name, err)
		}
		pol := spec.New()
		if pol == nil {
			t.Errorf("%q constructor returned nil", spec.Name)
			continue
		}
		if pol.Name() != spec.Name {
			t.Errorf("round trip %q -> %q", spec.Name, pol.Name())
		}
	}
	// Scenario registry: the Fig. 8 grid covers every panel preset.
	g := Fig8Grid(testScale, 1, 1)
	panels := isim.Fig8Scenarios()
	if len(g.Scenarios) != len(panels) {
		t.Fatalf("Fig8Grid has %d rows, want %d", len(g.Scenarios), len(panels))
	}
	for i, row := range g.Scenarios {
		if row.ID != panels[i].ID {
			t.Errorf("row %d is %q, want %q", i, row.ID, panels[i].ID)
		}
		if _, err := isim.ScenarioByID(row.ID); err != nil {
			t.Errorf("grid row %q not in scenario registry: %v", row.ID, err)
		}
	}
}

func TestAggregateReplicas(t *testing.T) {
	s, err := isim.ScenarioByID("fig8d")
	if err != nil {
		t.Fatal(err)
	}
	g := ScenarioGrid(s, testScale, 7, 3)
	rep, err := (&Runner{Parallel: 4}).Run(bg, g)
	if err != nil {
		t.Fatal(err)
	}
	summaries := rep.Aggregate()
	if len(summaries) != len(g.Policies) {
		t.Fatalf("%d summaries, want %d", len(summaries), len(g.Policies))
	}
	bySummary := map[string]Summary{}
	for _, sm := range summaries {
		bySummary[sm.Policy] = sm
		if sm.Replicas != 3 {
			t.Errorf("%s: %d replicas aggregated, want 3", sm.Policy, sm.Replicas)
		}
	}
	nopfs := bySummary["NoPFS"]
	if nopfs.Failed {
		t.Fatalf("NoPFS failed: %s", nopfs.FailReason)
	}
	exec := nopfs.Metric(MetricExec)
	if exec.N != 3 {
		t.Errorf("NoPFS exec summary over %d values, want 3", exec.N)
	}
	if exec.Mean <= 0 || exec.CILow > exec.Median || exec.CIHigh < exec.Median {
		t.Errorf("implausible exec summary: %+v", exec)
	}
	// LBANN cannot run the fig8d regime (dataset exceeds aggregate RAM);
	// the aggregate must carry the failure, not hide it.
	lbann := bySummary["LBANN (Dynamic)"]
	if !lbann.Failed || lbann.FailReason == "" {
		t.Error("LBANN failure not propagated to its summary")
	}
	// Replicas must actually differ: identical seeds would collapse the
	// spread to zero for a policy whose runtime depends on the shuffle.
	if exec.Min == exec.Max {
		t.Logf("note: NoPFS replica spread is zero (min=max=%.6f)", exec.Min)
	}
	seeds := map[uint64]bool{}
	for _, c := range rep.Cells {
		seeds[c.Seed] = true
	}
	if len(seeds) != 3 {
		t.Errorf("%d distinct seeds across 3 replicas", len(seeds))
	}
}

// TestPrintFig9Matrix: the Fig. 9 text matrix has one row per RAM size and
// one column per SSD size, every cell a simulated runtime.
func TestPrintFig9Matrix(t *testing.T) {
	rep, err := new(Runner).Run(bg, Fig9Grid(0.002, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	PrintFig9Matrix(&buf, rep)
	out := buf.String()
	if !strings.Contains(out, "512") || !strings.Contains(out, "1024") {
		t.Errorf("sweep grid missing row/column headers:\n%s", out)
	}
	// Header line, SSD column heads, 5 RAM rows; every cell is a simulated
	// runtime, never the zero a missing row would print.
	if lines := strings.Count(out, "\n"); lines != 7 {
		t.Errorf("sweep grid has %d lines, want 7:\n%s", lines, out)
	}
	if strings.Contains(out, " 0.0") {
		t.Errorf("sweep grid has an empty cell:\n%s", out)
	}
}

// funcGrid is a pure function-cell grid (no simulator involved): metrics
// are a deterministic hash of (scenario, policy, seed).
func funcGrid(replicas int) *Grid {
	return &Grid{
		Name: "func",
		Scenarios: []ScenarioSpec{
			{ID: "rowA", Label: "first row"},
			{ID: "rowB"},
		},
		Policies: []PolicySpec{{Name: "colX"}, {Name: "colY"}},
		Replicas: replicas, BaseSeed: 99,
		Metrics: []Metric{
			{Name: "score", Label: "score"},
			{Name: "aux", Hide: true},
		},
		Cell: func(si, pi, _, _ int) CellFunc {
			return func(_ context.Context, seed uint64) (*Outcome, error) {
				if si == 1 && pi == 1 {
					return &Outcome{Failed: true, FailReason: "colY cannot run rowB"}, nil
				}
				h := prng.NewSplitMix64(seed + uint64(si*31+pi)).Next()
				return &Outcome{Values: map[string]float64{
					"score": float64(h%1000) / 10,
					"aux":   float64(si + pi),
				}}, nil
			}
		},
	}
}

// TestFunctionCellGrid exercises the engine on a non-simulator grid: custom
// metric schema, custom cell binding, a Failed cell, and bit-identical
// encodings at any parallelism.
func TestFunctionCellGrid(t *testing.T) {
	encode := func(parallel int) (jsonB, csvB, textB []byte) {
		t.Helper()
		rep, err := (&Runner{Parallel: parallel}).Run(bg, funcGrid(3))
		if err != nil {
			t.Fatal(err)
		}
		var j, c, x bytes.Buffer
		if err := WriteJSON(&j, rep); err != nil {
			t.Fatal(err)
		}
		if err := WriteCSV(&c, rep); err != nil {
			t.Fatal(err)
		}
		if err := WriteText(&x, rep); err != nil {
			t.Fatal(err)
		}
		return j.Bytes(), c.Bytes(), x.Bytes()
	}
	j1, c1, x1 := encode(1)
	j8, c8, x8 := encode(8)
	if !bytes.Equal(j1, j8) || !bytes.Equal(c1, c8) || !bytes.Equal(x1, x8) {
		t.Error("function-cell grid encodings differ across parallelism")
	}

	rep, err := (&Runner{Parallel: 4}).Run(bg, funcGrid(3))
	if err != nil {
		t.Fatal(err)
	}
	summaries := rep.Aggregate()
	if len(summaries) != 4 {
		t.Fatalf("%d summaries, want 4", len(summaries))
	}
	byKey := map[string]Summary{}
	for _, s := range summaries {
		byKey[s.Scenario+"/"+s.Policy] = s
	}
	if s := byKey["rowB/colY"]; !s.Failed || s.FailReason == "" {
		t.Error("failed function cell not propagated to its summary")
	}
	if s := byKey["rowA/colX"]; s.Metric("score").N != 3 || s.Metric("aux").N != 3 {
		t.Errorf("metric summaries not aggregated over 3 replicas: %+v", s.Metrics)
	}
	// The custom schema must flow into the report and text rendering: the
	// hidden metric stays out of the text table but in the CSV header.
	if len(rep.Metrics) != 2 || rep.Metrics[0].Name != "score" {
		t.Errorf("report metrics = %+v", rep.Metrics)
	}
	if !bytes.Contains(x1, []byte("score")) || bytes.Contains(x1, []byte("aux")) {
		t.Errorf("text report visibility wrong:\n%s", x1)
	}
	if !bytes.Contains(c1, []byte("aux_mean")) {
		t.Errorf("CSV missing hidden metric column:\n%s", c1)
	}
}

// TestRunnerCancellation pins the engine's context contract: canceling
// mid-grid stops dispatching cells and returns the context error, and a
// pre-canceled context runs nothing at all.
func TestRunnerCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	g := funcGrid(64) // 3 cell groups × 64 replicas = plenty to interrupt
	inner := g.Cell
	g.Cell = func(si, pi, _, _ int) CellFunc {
		fn := inner(si, pi, 0, 0)
		return func(ctx context.Context, seed uint64) (*Outcome, error) {
			if ran.Add(1) == 3 {
				cancel()
			}
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			return fn(ctx, seed)
		}
	}
	if _, err := (&Runner{Parallel: 2}).Run(ctx, g); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled grid returned %v, want context.Canceled", err)
	}
	if n := ran.Load(); n >= int64(g.Size()) {
		t.Errorf("cancellation did not stop dispatch: %d of %d cells ran", n, g.Size())
	}

	pre, preCancel := context.WithCancel(context.Background())
	preCancel()
	ran.Store(0)
	if _, err := (&Runner{Parallel: 2}).Run(pre, funcGrid(2)); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled grid returned %v", err)
	}
}

// TestNilCellBinding pins the error path: a custom binding returning nil
// must abort the grid with a descriptive error, not panic.
func TestNilCellBinding(t *testing.T) {
	g := funcGrid(1)
	g.Cell = func(si, pi, _, _ int) CellFunc { return nil }
	if _, err := (&Runner{Parallel: 2}).Run(bg, g); err == nil {
		t.Error("nil cell binding accepted")
	}
}

func TestWriteTextShape(t *testing.T) {
	rep, err := (&Runner{Parallel: 2}).Run(bg, testGrid(t))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteText(&buf, rep); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"fig8a", "fig8d", "NoPFS", "LowerBound", "95% CI", "exceeds aggregate RAM"} {
		if !bytes.Contains([]byte(out), []byte(want)) {
			t.Errorf("text report missing %q:\n%s", want, out)
		}
	}
}

// TestWarmGridCellsDoZeroShuffleWork drives the acceptance probe at the
// engine level: many concurrent cells hammer the shared plan cache, and a
// warm re-run of the same grid — every cell in parallel — performs zero
// epoch shuffles while producing a bit-identical report.
func TestWarmGridCellsDoZeroShuffleWork(t *testing.T) {
	grid := testGrid(t)
	wide := &Runner{Parallel: 4 * runtime.GOMAXPROCS(0)}
	cold, err := wide.Run(bg, grid)
	if err != nil {
		t.Fatal(err)
	}
	before := access.ShuffleCount()
	warm, err := wide.Run(bg, grid)
	if err != nil {
		t.Fatal(err)
	}
	if n := access.ShuffleCount() - before; n != 0 {
		t.Fatalf("warm grid performed %d shuffles, want 0", n)
	}
	var coldBuf, warmBuf bytes.Buffer
	if err := WriteJSON(&coldBuf, cold); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSON(&warmBuf, warm); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(coldBuf.Bytes(), warmBuf.Bytes()) {
		t.Fatal("warm grid report differs from cold grid report")
	}
}

// TestGridRanksOncePerPlanAndFamily drives the cachepolicy.RankCount probe
// at the engine level. The Fig. 9 study evaluates 29 storage hierarchies on
// one plan: the candidate ranking depends on the seed alone, so the whole
// grid ranks once, however many node specs fill from it. The ablation grid
// adds the random-placement family on its one plan: two rankings. A warm
// re-run finds every placement in the plan cache and ranks nothing.
// rankTestSeeds numbers the grids TestGridRanksOncePerPlanAndFamily has run
// in this process: the shared plan cache outlives the test (-count > 1), and
// a seed it has seen is not cold.
var rankTestSeeds atomic.Uint64

func TestGridRanksOncePerPlanAndFamily(t *testing.T) {
	n := rankTestSeeds.Add(1) << 8
	for _, tc := range []struct {
		grid *Grid
		want int64
	}{
		{Fig9FullGrid(0.001, 0xf199+n, 1), 1},
		{AblationGrid(0.002, 0xab1a+n, 1), 2},
	} {
		runner := &Runner{Parallel: 4}
		before := cachepolicy.RankCount()
		if _, err := runner.Run(bg, tc.grid); err != nil {
			t.Fatal(err)
		}
		if n := cachepolicy.RankCount() - before; n != tc.want {
			t.Errorf("%s: cold grid of %d cells ranked %d times, want %d", tc.grid.Name, len(tc.grid.Scenarios)*len(tc.grid.Policies), n, tc.want)
		}
		before = cachepolicy.RankCount()
		if _, err := runner.Run(bg, tc.grid); err != nil {
			t.Fatal(err)
		}
		if n := cachepolicy.RankCount() - before; n != 0 {
			t.Errorf("%s: warm grid ranked %d times, want 0", tc.grid.Name, n)
		}
	}
}
