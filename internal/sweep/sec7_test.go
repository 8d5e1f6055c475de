package sweep

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	isim "repro/internal/sim"
	"repro/internal/stats"
)

// sec7Scale keeps the Sec. 7 grids fast; ImageNet-1k at 0.05 still feeds
// 64 Piz Daint ranks full batches.
const sec7Scale = 0.05

// smallFig10 trims the Piz Daint preset to a fast 2×4 grid.
func smallFig10() Study {
	s := Fig10PizDaint()
	s.GPUCounts = []int{32, 64}
	return s
}

// runCells runs a Sec. 7 grid and returns its cells in enumeration order.
func runCells(t *testing.T, grid *Grid, parallel int) []CellResult {
	t.Helper()
	rep, err := (&Runner{Parallel: parallel}).Run(context.Background(), grid)
	if err != nil {
		t.Fatal(err)
	}
	return rep.Cells
}

// result is a cell's simulator result.
func result(t *testing.T, c CellResult) *isim.Result {
	t.Helper()
	r, ok := c.Outcome.Payload.(*isim.Result)
	if !ok {
		t.Fatalf("cell %s/%s carries %T, not a simulator result", c.Scenario, c.Policy, c.Outcome.Payload)
	}
	return r
}

// TestGridMatchesSerialCells pins the engine path to the simulator: every
// grid cell, in (GPU count, loader) order, carries sim.Run of its row's
// configuration under the loader's policy, and its metrics split epoch 0's
// batches off from the steady state's.
func TestGridMatchesSerialCells(t *testing.T) {
	exp := smallFig10()
	grid := exp.Grid(sec7Scale, 1)
	got := runCells(t, grid, 4)
	if want := len(exp.GPUCounts) * len(exp.Loaders); len(got) != want {
		t.Fatalf("engine produced %d cells, want %d", len(got), want)
	}
	for i, c := range got {
		cfg, err := grid.Scenarios[c.ScenarioIdx].Config(exp.Seed)
		if err != nil {
			t.Fatal(err)
		}
		want, err := isim.Run(cfg, exp.Loaders[c.PolicyIdx].New())
		if err != nil {
			t.Fatal(err)
		}
		r := result(t, c)
		if !reflect.DeepEqual(r, want) {
			t.Errorf("cell %d (%s/%s): engine %+v\n != serial %+v", i, c.Scenario, c.Policy, r, want)
		}
		n := cfg.Plan().SamplesPerEpoch(0) / cfg.Work.BatchPerWorker
		v := c.Outcome.Values
		for _, m := range []struct {
			name string
			want float64
		}{
			{MetricEpoch0, r.EpochSeconds[0]},
			{MetricMedianEpoch, stats.Median(r.EpochSeconds[1:])},
			{MetricBatch0Max, slices.Max(r.BatchSeconds[:n])},
			{MetricBatch0Med, stats.Median(r.BatchSeconds[:n])},
			{MetricBatchMax, slices.Max(r.BatchSeconds[n:])},
			{MetricBatchMedian, stats.Median(r.BatchSeconds[n:])},
			{MetricExec, r.ExecSeconds},
		} {
			if v[m.name] != m.want {
				t.Errorf("cell %d (%s/%s): %s = %v, want %v", i, c.Scenario, c.Policy, m.name, v[m.name], m.want)
			}
		}
	}
}

// TestGridStampsAxes: a Sec. 7 grid's fault-profile and access-pattern axes
// reach its cells. The clean/uniform cells equal the axis-free grid's, and
// every faulted or patterned NoPFS cell differs from its clean/uniform one.
func TestGridStampsAxes(t *testing.T) {
	base := runCells(t, smallFig10().Grid(sec7Scale, 1), 0)
	grid := smallFig10().Grid(sec7Scale, 1)
	var err error
	if grid.Profiles, err = ChaosAxis("node-crash"); err != nil {
		t.Fatal(err)
	}
	if grid.Patterns, err = AccessAxis("zipf"); err != nil {
		t.Fatal(err)
	}
	cells := runCells(t, grid, 0)
	if len(cells) != 4*len(base) {
		t.Fatalf("%d cells, want %d", len(cells), 4*len(base))
	}
	clean := map[[2]int]*isim.Result{}
	for _, c := range cells {
		if c.ProfileIdx == 0 && c.PatternIdx == 0 {
			clean[[2]int{c.ScenarioIdx, c.PolicyIdx}] = result(t, c)
		}
	}
	stamped := 0
	for _, c := range cells {
		r, ref := result(t, c), clean[[2]int{c.ScenarioIdx, c.PolicyIdx}]
		switch {
		case c.ProfileIdx == 0 && c.PatternIdx == 0:
			if want := result(t, base[c.ScenarioIdx*len(grid.Policies)+c.PolicyIdx]); !reflect.DeepEqual(r, want) {
				t.Errorf("%s/%s clean uniform: %+v\n != axis-free %+v", c.Scenario, c.Policy, r, want)
			}
		case c.Policy == NoPFS.Name:
			stamped++
			if reflect.DeepEqual(r, ref) {
				t.Errorf("%s/%s under %s/%s equals its clean uniform cell", c.Scenario, c.Policy, c.Profile, c.Pattern)
			}
		}
	}
	if stamped != 3*len(smallFig10().GPUCounts) {
		t.Errorf("checked %d stamped NoPFS cells, want %d", stamped, 3*len(smallFig10().GPUCounts))
	}
}

// TestTrainerGridDeterministicAcrossParallelism is the acceptance invariant
// behind `nopfs train -parallel`: serialised Sec. 7 reports are
// byte-identical at any pool width.
func TestTrainerGridDeterministicAcrossParallelism(t *testing.T) {
	encode := func(parallel int) (jsonB, csvB, textB []byte) {
		t.Helper()
		rep, err := (&Runner{Parallel: parallel}).Run(context.Background(), smallFig10().Grid(sec7Scale, 2))
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
	if !bytes.Equal(j1, j8) {
		t.Error("Sec. 7 JSON reports differ between -parallel 1 and -parallel 8")
	}
	if !bytes.Equal(c1, c8) {
		t.Error("Sec. 7 CSV reports differ between -parallel 1 and -parallel 8")
	}
	if !bytes.Equal(x1, x8) {
		t.Error("Sec. 7 text reports differ between -parallel 1 and -parallel 8")
	}
}

// TestMultiGridFig13 runs the batch-size sweep, four scenarios sharing one
// loader set and base seed, as one engine grid and checks rows, columns,
// and payloads.
func TestMultiGridFig13(t *testing.T) {
	grid := Fig13BatchSweep().Grid(sec7Scale, 1)
	if len(grid.Scenarios) != 4 || len(grid.Policies) != 3 {
		t.Fatalf("fig13 grid is %d×%d, want 4×3", len(grid.Scenarios), len(grid.Policies))
	}
	cells := runCells(t, grid, 0)
	if len(cells) != 12 {
		t.Fatalf("%d cells, want 12", len(cells))
	}
	for _, c := range cells {
		if r := result(t, c); len(r.EpochSeconds) != 10 {
			t.Errorf("%s/%s: %d epochs, want 10", c.Scenario, c.Policy, len(r.EpochSeconds))
		}
		if !strings.HasSuffix(c.Scenario, "-g128") {
			t.Errorf("row %s is not at 128 GPUs", c.Scenario)
		}
	}
}

// TestFig16GridShape checks the end-to-end grid: every cell's run folds into
// a 90-epoch curve whose total is the cell's total_s metric.
func TestFig16GridShape(t *testing.T) {
	cells := runCells(t, Fig16EndToEnd().Grid(sec7Scale, 1), 0)
	if len(cells) != 3 {
		t.Fatalf("%d cells, want 3 loaders", len(cells))
	}
	for _, c := range cells {
		res := EndToEnd(c.Policy, result(t, c))
		if c.Outcome.Failed {
			continue
		}
		if res.Loader != c.Policy || len(res.Curve) != 90 {
			t.Errorf("%s: %q with a %d-epoch curve, want the loader's 90", c.Policy, res.Loader, len(res.Curve))
		}
		if got := c.Outcome.Values[MetricTotalS]; got != res.TotalSeconds {
			t.Errorf("%s: total_s metric %.3f != curve total %.3f", c.Policy, got, res.TotalSeconds)
		}
	}
}

// scaleLA is the Lassen benchmark's dataset scale: ImageNet-1k at 0.1 is
// F=128,116, enough for 64 ranks to run full batches.
const scaleLA = 0.1

func TestResNet50Top1Curve(t *testing.T) {
	if ResNet50Top1(0) != 0 {
		t.Error("accuracy at epoch 0 should be 0")
	}
	if got := ResNet50Top1(90); math.Abs(got-76.5) > 0.2 {
		t.Errorf("final accuracy = %.2f, want 76.5 (paper)", got)
	}
	if got := ResNet50Top1(1000); got != 76.5 {
		t.Errorf("post-schedule accuracy = %.2f, want 76.5", got)
	}
	// Monotone non-decreasing.
	prev := 0.0
	for e := 1; e <= 90; e++ {
		v := ResNet50Top1(float64(e))
		if v < prev-1e-9 {
			t.Errorf("accuracy decreased at epoch %d: %.3f -> %.3f", e, prev, v)
		}
		prev = v
	}
	// Learning-rate drop at 30 and 60 must produce a visible jump.
	if ResNet50Top1(33)-ResNet50Top1(30) < 1 {
		t.Error("no visible jump after the epoch-30 LR drop")
	}
}

func BenchmarkFig10LassenOnePoint(b *testing.B) {
	exp := Fig10Lassen()
	exp.GPUCounts = []int{64}
	exp.Loaders = []PolicySpec{NoPFS}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := (&Runner{}).Run(context.Background(), exp.Grid(scaleLA, 1)); err != nil {
			b.Fatal(err)
		}
	}
}
