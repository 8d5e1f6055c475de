package trainer

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/sweep"
)

// smallFig10 trims the Piz Daint preset to a fast 2×4 grid.
func smallFig10() Experiment {
	exp := Fig10PizDaint(0.05)
	exp.GPUCounts = []int{32, 64}
	return exp
}

// TestGridMatchesSerialCells pins the engine path to the cell primitive: the
// grid-run experiment must reproduce a hand-rolled serial loop exactly, in
// the same (GPU count, loader) order.
func TestGridMatchesSerialCells(t *testing.T) {
	exp := smallFig10()
	got, err := exp.RunParallel(context.Background(), 4)
	if err != nil {
		t.Fatal(err)
	}
	var want []ScalePoint
	for _, gpus := range exp.GPUCounts {
		for _, loader := range exp.Loaders {
			p, err := exp.Cell(gpus, loader, exp.Seed)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, p)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("engine produced %d points, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Loader != w.Loader || g.GPUs != w.GPUs {
			t.Errorf("point %d is %s@%d, want %s@%d", i, g.Loader, g.GPUs, w.Loader, w.GPUs)
		}
		if g.MedianEpoch != w.MedianEpoch || g.StallSeconds != w.StallSeconds {
			t.Errorf("%s@%d: engine %.6f/%.6f != serial %.6f/%.6f",
				w.Loader, w.GPUs, g.MedianEpoch, g.StallSeconds, w.MedianEpoch, w.StallSeconds)
		}
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
