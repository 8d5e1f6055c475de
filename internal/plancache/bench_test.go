package plancache

import (
	"testing"

	"repro/internal/access"
	"repro/internal/hwspec"
)

// benchPlan is an ImageNet-1k-shaped plan at the benchmark scale used by
// the Fig. 8 panels (F = 1.28M × 0.005, N = 4, E = 5).
var benchPlan = access.Plan{Seed: 42, F: 6405, N: 4, E: 5, BatchPerWorker: 32, DropLast: true}

// BenchmarkPlanArtifactsCold measures one full artifact build — parallel
// epoch shuffles, stream extraction — with no reuse (a fresh cache per
// iteration).
func BenchmarkPlanArtifactsCold(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := New(0, 0)
		art := c.Artifacts(benchPlan)
		if len(art.Streams) != benchPlan.N {
			b.Fatal("bad artifacts")
		}
	}
}

// BenchmarkPlanArtifactsWarm measures the memo hit path — what every grid
// cell after the first pays.
func BenchmarkPlanArtifactsWarm(b *testing.B) {
	c := New(0, 0)
	c.Artifacts(benchPlan)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c.Artifacts(benchPlan) == nil {
			b.Fatal("miss")
		}
	}
}

// BenchmarkBuildNoPFSEnvSweep measures the Fig. 9 shape at the placement
// layer: one plan (BenchmarkBuildNoPFS's), 25 storage hierarchies placed
// through the cache. The plan is ranked once; each node spec pays a fill.
// Artifacts are built outside the timer.
func BenchmarkBuildNoPFSEnvSweep(b *testing.B) {
	plan := access.Plan{Seed: 1, F: 100000, N: 8, E: 10, BatchPerWorker: 16}
	ds := testDataset(b, plan.F) // ~4 KB samples: 390 MB in all
	var nodes []hwspec.Node
	for _, ramMB := range []float64{8, 16, 32, 64, 128} {
		for _, ssdMB := range []float64{0, 32, 64, 128, 256} {
			nodes = append(nodes, testNode(ramMB, ssdMB))
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		art := New(0, 0).Artifacts(plan)
		b.StartTimer()
		for _, node := range nodes {
			if art.Placement(FamilyNoPFS, ds, node, true) == nil {
				b.Fatal("no placement")
			}
		}
	}
}
