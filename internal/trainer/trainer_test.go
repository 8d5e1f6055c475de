package trainer

import (
	"context"
	"math"
	"testing"
)

// scaleLA is the Lassen benchmark's dataset scale: ImageNet-1k at 0.1 is
// F=128,116, enough for 64 ranks to run full batches.
const scaleLA = 0.1

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
