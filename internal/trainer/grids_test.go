package trainer

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"repro/internal/sim"
	"repro/internal/sweep"
)

// smallFig10 trims the Piz Daint preset to a fast 2×4 grid.
func smallFig10() Experiment {
	exp := Fig10PizDaint(0.05)
	exp.GPUCounts = []int{32, 64}
	return exp
}

// runPoints runs a trainer grid and recovers its points in cell order.
func runPoints(t *testing.T, grid *sweep.Grid, parallel int) ([]sweep.Cell, []ScalePoint) {
	t.Helper()
	rep, err := (&sweep.Runner{Parallel: parallel}).Run(context.Background(), grid)
	if err != nil {
		t.Fatal(err)
	}
	points, err := PointsFromReport(rep)
	if err != nil {
		t.Fatal(err)
	}
	cells := make([]sweep.Cell, len(rep.Cells))
	for i, c := range rep.Cells {
		cells[i] = c.Cell
	}
	return cells, points
}

// TestGridMatchesSerialCells pins the engine path to the simulator: every
// grid cell must equal sim.Run of its row's configuration under the cell's
// loader, in (GPU count, loader) order.
func TestGridMatchesSerialCells(t *testing.T) {
	exp := smallFig10()
	grid := exp.Grid(1)
	_, got := runPoints(t, grid, 4)
	var want []ScalePoint
	for i, row := range grid.Scenarios {
		gpus := exp.GPUCounts[i]
		for _, loader := range exp.Loaders {
			cfg, err := row.Config(exp.Seed)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Work = loader.AdjustWorkload(cfg.Work)
			pol, err := loader.Policy()
			if err != nil {
				t.Fatal(err)
			}
			r, err := sim.Run(cfg, pol)
			if err != nil {
				t.Fatal(err)
			}
			batches := cfg.Plan().SamplesPerEpoch(0) / cfg.Work.BatchPerWorker
			want = append(want, pointFromResult(loader.String(), gpus, batches, r))
		}
	}
	if len(got) != len(want) {
		t.Fatalf("engine produced %d points, want %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("point %d: engine %+v\n != serial %+v", i, got[i], want[i])
		}
	}
}

// TestGridStampsAxes: a trainer grid's fault-profile and access-pattern axes
// reach its cells. The clean/uniform cells equal the axis-free grid's, and
// every faulted or patterned NoPFS cell differs from its clean/uniform one.
func TestGridStampsAxes(t *testing.T) {
	_, base := runPoints(t, smallFig10().Grid(1), 0)
	grid := smallFig10().Grid(1)
	var err error
	if grid.Profiles, err = sweep.ChaosAxis("node-crash"); err != nil {
		t.Fatal(err)
	}
	if grid.Patterns, err = sweep.AccessAxis("zipf"); err != nil {
		t.Fatal(err)
	}
	cells, points := runPoints(t, grid, 0)
	if len(points) != 4*len(base) {
		t.Fatalf("%d points, want %d", len(points), 4*len(base))
	}
	clean := map[[2]int]ScalePoint{}
	for i, c := range cells {
		if c.ProfileIdx == 0 && c.PatternIdx == 0 {
			clean[[2]int{c.ScenarioIdx, c.PolicyIdx}] = points[i]
		}
	}
	stamped := 0
	for i, c := range cells {
		p, ref := points[i], clean[[2]int{c.ScenarioIdx, c.PolicyIdx}]
		switch {
		case c.ProfileIdx == 0 && c.PatternIdx == 0:
			if want := base[c.ScenarioIdx*len(grid.Policies)+c.PolicyIdx]; !reflect.DeepEqual(p, want) {
				t.Errorf("%s/%s clean uniform: %+v\n != axis-free %+v", c.Scenario, c.Policy, p, want)
			}
		case c.Policy == LoaderNoPFS.String():
			stamped++
			if reflect.DeepEqual(p, ref) {
				t.Errorf("%s/%s under %s/%s equals its clean uniform cell", c.Scenario, c.Policy, c.Profile, c.Pattern)
			}
		}
	}
	if stamped != 3*len(smallFig10().GPUCounts) {
		t.Errorf("checked %d stamped NoPFS cells, want %d", stamped, 3*len(smallFig10().GPUCounts))
	}
}

// TestTrainerGridDeterministicAcrossParallelism is the acceptance invariant
// behind `nopfs train -parallel`: serialised trainer reports are
// byte-identical at any pool width.
func TestTrainerGridDeterministicAcrossParallelism(t *testing.T) {
	encode := func(parallel int) (jsonB, csvB, textB []byte) {
		t.Helper()
		rep, err := (&sweep.Runner{Parallel: parallel}).Run(context.Background(), smallFig10().Grid(2))
		if err != nil {
			t.Fatal(err)
		}
		var j, c, x bytes.Buffer
		if err := sweep.WriteJSON(&j, rep); err != nil {
			t.Fatal(err)
		}
		if err := sweep.WriteCSV(&c, rep); err != nil {
			t.Fatal(err)
		}
		if err := sweep.WriteText(&x, rep); err != nil {
			t.Fatal(err)
		}
		return j.Bytes(), c.Bytes(), x.Bytes()
	}
	j1, c1, x1 := encode(1)
	j8, c8, x8 := encode(8)
	if !bytes.Equal(j1, j8) {
		t.Error("trainer JSON reports differ between -parallel 1 and -parallel 8")
	}
	if !bytes.Equal(c1, c8) {
		t.Error("trainer CSV reports differ between -parallel 1 and -parallel 8")
	}
	if !bytes.Equal(x1, x8) {
		t.Error("trainer text reports differ between -parallel 1 and -parallel 8")
	}
}

// TestMultiGridFig13 runs the batch-size sweep as one engine grid and
// checks rows, columns, and payload recovery.
func TestMultiGridFig13(t *testing.T) {
	exps := Fig13BatchSweep(0.05)
	grid, err := MultiGrid("fig13", exps, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(grid.Scenarios) != 4 || len(grid.Policies) != 3 {
		t.Fatalf("fig13 grid is %d×%d, want 4×3", len(grid.Scenarios), len(grid.Policies))
	}
	rep, err := (&sweep.Runner{}).Run(context.Background(), grid)
	if err != nil {
		t.Fatal(err)
	}
	points, err := PointsFromReport(rep)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 12 {
		t.Fatalf("%d points, want 12", len(points))
	}
	for _, p := range points {
		if p.GPUs != 128 {
			t.Errorf("point at %d GPUs, want 128", p.GPUs)
		}
	}

	// Mixed loader sets must be rejected.
	bad := []Experiment{exps[0], smallFig10()}
	if _, err := MultiGrid("bad", bad, 1); err == nil {
		t.Error("MultiGrid accepted mixed loader sets")
	}
}

// TestFig16GridShape checks the end-to-end grid carries curves in payloads
// and totals in metrics.
func TestFig16GridShape(t *testing.T) {
	rep, err := (&sweep.Runner{}).Run(context.Background(), Fig16GridFrom(Fig16Experiment(0.05), 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 3 {
		t.Fatalf("%d cells, want 3 loaders", len(rep.Cells))
	}
	for _, c := range rep.Cells {
		res, ok := c.Outcome.Payload.(EndToEndResult)
		if !ok {
			t.Fatalf("cell %s carries no EndToEndResult", c.Policy)
		}
		if c.Outcome.Failed {
			continue
		}
		if len(res.Curve) != 90 {
			t.Errorf("%s: %d-epoch curve, want 90", c.Policy, len(res.Curve))
		}
		if got := c.Outcome.Values[MetricTotalS]; got != res.TotalSeconds {
			t.Errorf("%s: total_s metric %.3f != payload %.3f", c.Policy, got, res.TotalSeconds)
		}
	}
}
