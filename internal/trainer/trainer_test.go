package trainer

import (
	"context"
	"math"
	"testing"

	"repro/internal/perfmodel"
	"repro/internal/sweep"
)

// Test scales: large enough that 64-rank runs still have full batches.
const (
	// ImageNet-1k at 0.1 => F=128,116: large enough that 256 ranks still
	// run several batches per epoch (meaningful per-batch statistics),
	// small enough for fast tests.
	scalePD = 0.1
	scaleLA = 0.1
)

func pointsByLoader(points []ScalePoint, gpus int) map[string]ScalePoint {
	out := map[string]ScalePoint{}
	for _, p := range points {
		if p.GPUs == gpus {
			out[p.Loader] = p
		}
	}
	return out
}

func TestLoaderStringsAndPolicies(t *testing.T) {
	for _, l := range []Loader{LoaderPyTorch, LoaderDALI, LoaderLBANN, LoaderNoPFS, LoaderNoIO} {
		if l.String() == "" {
			t.Errorf("loader %d has empty label", int(l))
		}
		if _, err := l.Policy(); err != nil {
			t.Errorf("loader %s: %v", l, err)
		}
	}
	if _, err := Loader(99).Policy(); err == nil {
		t.Error("unknown loader accepted")
	}
}

func TestDALIBoostsPreprocessing(t *testing.T) {
	base := Fig10PizDaint(1).Workload(32)
	dali := LoaderDALI.AdjustWorkload(base)
	if dali.PreprocMBps != 5*base.PreprocMBps {
		t.Errorf("DALI preprocessing = %v, want 5x %v", dali.PreprocMBps, base.PreprocMBps)
	}
	if got := LoaderPyTorch.AdjustWorkload(base); got.PreprocMBps != base.PreprocMBps {
		t.Error("PyTorch adjusted the workload")
	}
}

func TestFig10PizDaintShape(t *testing.T) {
	exp := Fig10PizDaint(scalePD)
	exp.GPUCounts = []int{32, 256}
	points, err := exp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	at256 := pointsByLoader(points, 256)
	noIO := at256[LoaderNoIO.String()]
	nopfs := at256[LoaderNoPFS.String()]
	pytorch := at256[LoaderPyTorch.String()]
	dali := at256[LoaderDALI.String()]

	// Paper: NoPFS 2.2x faster than PyTorch and 1.9x faster than DALI at
	// 256 GPUs on Piz Daint; NoPFS near the no-I/O bound.
	if r := pytorch.MedianEpoch / nopfs.MedianEpoch; r < 1.6 || r > 3.5 {
		t.Errorf("PyTorch/NoPFS epoch ratio at 256 GPUs = %.2f, want ~2.2 (1.6-3.5)", r)
	}
	if r := dali.MedianEpoch / nopfs.MedianEpoch; r < 1.4 {
		t.Errorf("DALI/NoPFS ratio = %.2f, want >= 1.4 (paper: 1.9)", r)
	}
	if dali.MedianEpoch > pytorch.MedianEpoch*1.01 {
		t.Errorf("DALI (%.2f) slower than PyTorch (%.2f); should be a small improvement",
			dali.MedianEpoch, pytorch.MedianEpoch)
	}
	if r := nopfs.MedianEpoch / noIO.MedianEpoch; r > 1.35 {
		t.Errorf("NoPFS/No-I/O = %.2f at 256 GPUs, want close to 1", r)
	}

	// At 32 GPUs the PFS is uncontended: the gap must be small.
	at32 := pointsByLoader(points, 32)
	r32 := at32[LoaderPyTorch.String()].MedianEpoch / at32[LoaderNoPFS.String()].MedianEpoch
	r256 := pytorch.MedianEpoch / nopfs.MedianEpoch
	if r32 > r256 {
		t.Errorf("PyTorch/NoPFS gap shrank with scale: %.2f at 32 vs %.2f at 256", r32, r256)
	}
	if r32 > 1.5 {
		t.Errorf("PyTorch/NoPFS = %.2f at 32 GPUs, want small gap at small scale", r32)
	}
}

func TestFig10LassenShape(t *testing.T) {
	exp := Fig10Lassen(scaleLA)
	exp.GPUCounts = []int{32, 256}
	points, err := exp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	at256 := pointsByLoader(points, 256)
	pytorch := at256[LoaderPyTorch.String()]
	lbann := at256[LoaderLBANN.String()]
	nopfs := at256[LoaderNoPFS.String()]
	if pytorch.Failed || lbann.Failed || nopfs.Failed {
		t.Fatalf("unexpected failure: %+v %+v %+v", pytorch.Reason, lbann.Reason, nopfs.Reason)
	}
	// NoPFS fastest; LBANN between NoPFS and PyTorch (paper Fig. 10 right).
	if !(nopfs.MedianEpoch <= lbann.MedianEpoch*1.001 && lbann.MedianEpoch <= pytorch.MedianEpoch*1.001) {
		t.Errorf("expected NoPFS (%.2f) <= LBANN (%.2f) <= PyTorch (%.2f)",
			nopfs.MedianEpoch, lbann.MedianEpoch, pytorch.MedianEpoch)
	}
	if r := pytorch.MedianEpoch / nopfs.MedianEpoch; r < 1.5 {
		t.Errorf("PyTorch/NoPFS at 256 Lassen GPUs = %.2f, want substantial gap", r)
	}
}

func TestBatchTailVariance(t *testing.T) {
	// Paper: after epoch 0, PyTorch exhibits batch-time tail events an
	// order of magnitude above NoPFS's; NoPFS batches are consistently
	// fast.
	// 128 GPUs: the PFS per-client share sits right at ResNet-50's compute
	// rate, so jitter spikes surface directly as slow batches, and the
	// scaled dataset still yields many batches per epoch.
	exp := Fig10PizDaint(scalePD)
	exp.GPUCounts = []int{128}
	points, err := exp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	m := pointsByLoader(points, 128)
	pytorch, nopfs := m[LoaderPyTorch.String()], m[LoaderNoPFS.String()]
	relTail := func(p ScalePoint) float64 { return p.Batch.Max / p.Batch.Median }
	if relTail(pytorch) < 2*relTail(nopfs) {
		t.Errorf("PyTorch tail (%.1fx median) should far exceed NoPFS tail (%.1fx)",
			relTail(pytorch), relTail(nopfs))
	}
	if nopfs.Batch.P99 > 3*nopfs.Batch.Median {
		t.Errorf("NoPFS p99 batch (%.4f) too far above median (%.4f)", nopfs.Batch.P99, nopfs.Batch.Median)
	}
}

func TestEpoch0HighVarianceForAll(t *testing.T) {
	// Fig. 11: in epoch 0 everyone reads cold data from the PFS, so even
	// NoPFS shows elevated batch times there.
	exp := Fig10PizDaint(scalePD)
	exp.GPUCounts = []int{128}
	points, err := exp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	m := pointsByLoader(points, 128)
	nopfs := m[LoaderNoPFS.String()]
	if nopfs.Batch0.Mean < nopfs.Batch.Mean {
		t.Errorf("NoPFS epoch-0 mean batch (%.4f) below steady-state (%.4f); cold epoch should cost more",
			nopfs.Batch0.Mean, nopfs.Batch.Mean)
	}
}

func TestFig12FetchMixShiftsWithScale(t *testing.T) {
	// Paper Fig. 12, on the grid `nopfs train -fig 12` runs: as GPU count
	// grows, NoPFS shifts fetches from the PFS toward remote workers;
	// local+remote dominates everywhere after epoch 0.
	exp := Fig10PizDaint(scalePD)
	exp.GPUCounts = []int{32, 256}
	points, err := exp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var cache []ScalePoint
	for _, p := range points {
		if p.Loader == LoaderNoPFS.String() && !p.Failed {
			cache = append(cache, p)
		}
	}
	if len(cache) != 2 {
		t.Fatalf("expected 2 NoPFS points, got %d", len(cache))
	}
	frac := func(p ScalePoint, loc perfmodel.Location) float64 { return p.LocFraction[loc] }
	small, large := cache[0], cache[1]
	if small.GPUs > large.GPUs {
		small, large = large, small
	}
	if frac(large, perfmodel.LocRemote) <= frac(small, perfmodel.LocRemote) {
		t.Errorf("remote fraction did not grow with scale: %.2f @%d vs %.2f @%d",
			frac(small, perfmodel.LocRemote), small.GPUs, frac(large, perfmodel.LocRemote), large.GPUs)
	}
	for _, p := range cache {
		if cached := frac(p, perfmodel.LocLocal) + frac(p, perfmodel.LocRemote); cached < 0.5 {
			t.Errorf("@%d GPUs only %.2f of fetches from caches", p.GPUs, cached)
		}
	}
}

func TestFig13BatchSizeSweep(t *testing.T) {
	var nopfsMedians, pytorchMedians []float64
	for _, exp := range Fig13BatchSweep(scaleLA) {
		points, err := exp.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		m := pointsByLoader(points, 128)
		pytorch, nopfs := m[LoaderPyTorch.String()], m[LoaderNoPFS.String()]
		// NoPFS faster at every batch size.
		if nopfs.Batch.Median > pytorch.Batch.Median*1.001 {
			t.Errorf("%s: NoPFS median batch (%.4f) above PyTorch (%.4f)",
				exp.Name, nopfs.Batch.Median, pytorch.Batch.Median)
		}
		nopfsMedians = append(nopfsMedians, nopfs.Batch.Median)
		pytorchMedians = append(pytorchMedians, pytorch.Batch.Median)
	}
	// Per-batch time grows with batch size for both loaders.
	for i := 1; i < len(nopfsMedians); i++ {
		if nopfsMedians[i] <= nopfsMedians[i-1] {
			t.Errorf("NoPFS batch time did not grow with batch size: %v", nopfsMedians)
		}
		if pytorchMedians[i] <= pytorchMedians[i-1] {
			t.Errorf("PyTorch batch time did not grow with batch size: %v", pytorchMedians)
		}
	}
}

func TestFig14And15NoPFSWins(t *testing.T) {
	for _, mk := range []func(float64) Experiment{Fig14Lassen, Fig15Lassen} {
		exp := mk(scaleLA)
		exp.GPUCounts = []int{64}
		points, err := exp.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		m := pointsByLoader(points, 64)
		pytorch, nopfs := m[LoaderPyTorch.String()], m[LoaderNoPFS.String()]
		if nopfs.MedianEpoch > pytorch.MedianEpoch*1.001 {
			t.Errorf("%s: NoPFS (%.2f) slower than PyTorch (%.2f)", exp.Name, nopfs.MedianEpoch, pytorch.MedianEpoch)
		}
	}
}

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

func TestFig16EndToEnd(t *testing.T) {
	// The grid `nopfs train -fig 16` runs, read the way its text mode does.
	rep, err := (&sweep.Runner{}).Run(context.Background(), Fig16GridFrom(Fig16Experiment(scaleLA), 1))
	if err != nil {
		t.Fatal(err)
	}
	byLoader := map[string]EndToEndResult{}
	for i, c := range rep.Cells {
		r, ok := c.Outcome.Payload.(EndToEndResult)
		if !ok {
			t.Fatalf("fig16 cell %d carries no end-to-end result", i)
		}
		byLoader[r.Loader] = r
	}
	pytorch := byLoader[LoaderPyTorch.String()]
	nopfs := byLoader[LoaderNoPFS.String()]
	if len(pytorch.Curve) != 90 || len(nopfs.Curve) != 90 {
		t.Fatalf("expected 90-epoch curves, got %d and %d", len(pytorch.Curve), len(nopfs.Curve))
	}
	// Same accuracy trajectory per epoch (randomization preserved).
	for e := range nopfs.Curve {
		if nopfs.Curve[e].Top1Percent != pytorch.Curve[e].Top1Percent {
			t.Fatalf("accuracy-vs-epoch differs between loaders at epoch %d", e)
		}
	}
	if math.Abs(nopfs.FinalTop1-76.5) > 0.2 {
		t.Errorf("final top-1 = %.2f, want 76.5", nopfs.FinalTop1)
	}
	// NoPFS reaches the same accuracy faster (paper: 1.42x at 256 GPUs).
	speedup := pytorch.TotalSeconds / nopfs.TotalSeconds
	if speedup < 1.1 {
		t.Errorf("end-to-end speedup = %.2f, want > 1.1 (paper: 1.42)", speedup)
	}
	// Time axis strictly increasing.
	for e := 1; e < len(nopfs.Curve); e++ {
		if nopfs.Curve[e].Seconds <= nopfs.Curve[e-1].Seconds {
			t.Errorf("curve time not increasing at epoch %d", e)
		}
	}
}

func BenchmarkFig10LassenOnePoint(b *testing.B) {
	exp := Fig10Lassen(scaleLA)
	exp.GPUCounts = []int{64}
	exp.Loaders = []Loader{LoaderNoPFS}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Run(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}
