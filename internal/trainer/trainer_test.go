package trainer

import (
	"context"
	"math"
	"testing"

	"repro/internal/sweep"
)

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
	exp := Fig10Lassen(scaleLA)
	exp.GPUCounts = []int{64}
	exp.Loaders = []sweep.PolicySpec{NoPFS}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := (&sweep.Runner{}).Run(context.Background(), oneGrid(b, exp, 1)); err != nil {
			b.Fatal(err)
		}
	}
}
