package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/stats"
)

func TestMedianAndQuartilesMatchPython(t *testing.T) {
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got := stats.Median(v); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles(v)
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles of three = %v, %v, want 1, 4", q1, q3)
	}
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n     int
		limit float64
		want  float64
	}{
		{5, 99, 50}, {19, 99, 50}, {100, 99, 90}, {999, 99, 90}, {1000, 99, 99},
		{200000, 99, 99}, {200000, 100, 99.99}, {10000, 100, 99.9},
	} {
		if got := tailPercentile(c.n, c.limit); got != c.want {
			t.Errorf("tailPercentile(%d, %g) = %g, want %g", c.n, c.limit, got, c.want)
		}
	}
	asc := make([]float64, 1000)
	for i := range asc {
		asc[i] = float64(i + 1)
	}
	if got := stats.PercentileSorted(asc, 99); math.Abs(got-990) > 0.011 {
		t.Errorf("p99 of 1..1000 = %v, want about 990", got)
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100e9},
		{ID: 2, Parent: 1, Name: "child", Start: 10e9, End: 30e9},
		{ID: 3, Parent: 1, Name: "child", Start: 20e9, End: 50e9},  // overlaps the first
		{ID: 4, Parent: 1, Name: "child", Start: 90e9, End: 120e9}, // runs past the parent
		{ID: 5, Parent: 2, Name: "grandchild", Start: 12e9, End: 15e9},
	}
	stats := aggregate(spans)
	if got := stats["parent"].self; got != 50 {
		t.Errorf("parent self = %v s, want 50 (100 - [10,50) - [90,100))", got)
	}
	if got := stats["child"].self; got != 20-3+30+30 {
		t.Errorf("child self = %v s, want 77", got)
	}
	if got := stats["child"].count; got != 3 {
		t.Errorf("child count = %d, want 3", got)
	}
}

func TestExactlyOnceCatchesDuplicateAndGap(t *testing.T) {
	const epochs, f = 3, 8
	fill := func() *tally {
		tl := newTally(epochs, f)
		for e := 0; e < epochs; e++ {
			for id := 0; id < f; id++ {
				tl.add(e, id)
			}
		}
		return tl
	}
	if missing, dup := fill().check(); missing != 0 || dup != 0 {
		t.Fatalf("clean tally: missing %d, duplicated %d", missing, dup)
	}
	tl := fill()
	tl.add(1, 5) // injected duplicate
	if missing, dup := tl.check(); missing != 0 || dup != 1 {
		t.Errorf("duplicate: missing %d, duplicated %d, want 0, 1", missing, dup)
	}
	tl = newTally(epochs, f)
	for e := 0; e < epochs; e++ {
		for id := 0; id < f; id++ {
			if e == 2 && id == 3 {
				continue // injected gap
			}
			tl.add(e, id)
		}
	}
	if missing, dup := tl.check(); missing != 1 || dup != 0 {
		t.Errorf("gap: missing %d, duplicated %d, want 1, 0", missing, dup)
	}
	if tl.add(epochs, 0) || tl.add(0, f) || tl.add(-1, 0) {
		t.Error("a delivery outside the plan was accepted")
	}
}

func TestSeedDeterminesGeneratedInputs(t *testing.T) {
	for _, w := range workloads() {
		if w.kind == live {
			a, b, c := w.live(7, false), w.live(7, false), w.live(8, false)
			if !reflect.DeepEqual(a, b) || a.options(7, 3).Seed != b.options(7, 3).Seed {
				t.Errorf("%s: same seed, different inputs", w.name)
			}
			if a.spec.Seed == c.spec.Seed || a.options(7, 0).Seed == a.options(7, 1).Seed {
				t.Errorf("%s: seeds do not vary with the run seed or the repetition", w.name)
			}
			continue
		}
		a, b, c := w.grid(7, false), w.grid(7, false), w.grid(8, false)
		if a.BaseSeed != b.BaseSeed || a.Size() != b.Size() || !reflect.DeepEqual(a.Cells(), b.Cells()) {
			t.Errorf("%s: same seed, different grids", w.name)
		}
		if a.BaseSeed == c.BaseSeed {
			t.Errorf("%s: grid seed does not vary with the run seed", w.name)
		}
	}
}

func TestJudge(t *testing.T) {
	def := metricDef{name: "us_per_op", better: "lower", bound: 0.10}
	tight := func(v float64) metricValue { return metricValue{Value: v, Q1: v * 0.99, Q3: v * 1.01} }
	wide := func(v float64) metricValue { return metricValue{Value: v, Q1: v * 0.9, Q3: v * 1.1} }
	for _, c := range []struct {
		a, b metricValue
		want verdict
	}{
		{tight(100), tight(105), within},
		{tight(100), tight(80), within},
		{tight(100), tight(111), regressed},
		{tight(100), wide(105), unresolved},
		{wide(100), tight(111), regressed},
	} {
		if _, got := judge(def, c.a, c.b); got != c.want {
			t.Errorf("judge(%v, %v) = %v, want %v", c.a.Value, c.b.Value, got, c.want)
		}
	}
}

// TestBenchmarkJSONMatchesHarness keeps BENCHMARK.json and the harness's own
// metric and workload lists from drifting apart.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(workloads()) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(file.Workloads), len(workloads()))
	}
	for i, w := range workloads() {
		if file.Workloads[i].Name != w.name || file.Workloads[i].Why == "" {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the harness", i, file.Workloads[i].Name, w.name)
		}
	}
	if len(file.EndToEnd) != len(endToEnd) || len(file.PerLayer) != len(perLayer) {
		t.Fatalf("metric counts differ: %d/%d end to end, %d/%d per layer",
			len(file.EndToEnd), len(endToEnd), len(file.PerLayer), len(perLayer))
	}
	for i, d := range endToEnd {
		if got := file.EndToEnd[i]; got.Name != d.name || got.Unit != d.unit || got.Better != d.better || got.Bound != d.bound {
			t.Errorf("end_to_end[%d] = %+v, harness has %+v", i, got, d)
		}
	}
	for i, d := range perLayer {
		if got := file.PerLayer[i]; got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, harness has %+v", i, got, d)
		}
	}
}

// TestQuickSmoke runs every phase of all seven workloads at toy size in
// this process, so the harness cannot rot unnoticed.
func TestQuickSmoke(t *testing.T) {
	resultsDir = t.TempDir()
	known := map[string]bool{}
	for _, d := range perLayer {
		known[d.name] = true
	}
	ctx := context.Background()
	for _, w := range workloads() {
		trial, err := runPhase(ctx, w, phaseTrial, 1, true, 0)
		if err != nil {
			t.Fatalf("%s trial: %v", w.name, err)
		}
		if trial.Failed != 0 || trial.Attempted == 0 || len(trial.RepWallS) == 0 {
			t.Errorf("%s trial: attempted %d, failed %d, %d repetitions: %v",
				w.name, trial.Attempted, trial.Failed, len(trial.RepWallS), trial.Problems)
		}
		if trial.PFSFrac[0] <= 0 || trial.PFSFrac[0] >= 1 {
			t.Errorf("%s: pfs_fetch_frac %v is not inside (0, 1)", w.name, trial.PFSFrac[0])
		}
		traced, err := runPhase(ctx, w, phaseTraced, 1, true, 0)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		if traced.Failed != 0 || traced.Attempted == 0 {
			t.Errorf("%s traced: attempted %d, failed %d: %v", w.name, traced.Attempted, traced.Failed, traced.Problems)
		}
		for name := range traced.Layer {
			if !known[name] {
				t.Errorf("%s traced: metric %q is not in the per-layer list", w.name, name)
			}
		}
		// Full-size runs attribute 99%; at toy size the untraced job
		// set-up inside RunCluster is a visible share, so only a collapse
		// of the span tree fails here.
		if got := traced.Layer["tracing.attributed_frac"]; got < 0.5 {
			t.Errorf("%s: spans cover %.0f%% of the traced repetition", w.name, 100*got)
		}
		if _, err := os.Stat(filepath.Join(resultsDir, "trace_"+w.name+".jsonl")); err != nil {
			t.Errorf("%s: no trace file: %v", w.name, err)
		}
		if w.kind != live {
			for _, phase := range []string{phaseSerial, phaseParallel} {
				if _, err := runPhase(ctx, w, phase, 1, true, 0); err != nil {
					t.Errorf("%s %s: %v", w.name, phase, err)
				}
			}
		}
	}
}
