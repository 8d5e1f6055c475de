package repro_test

import (
	"testing"

	isim "repro/internal/sim"
)

// BenchmarkTable1Characteristics exercises the framework-comparison
// registry: every policy of Table 1 instantiated and round-tripped by name.
func BenchmarkTable1Characteristics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, p := range isim.AllPolicies() {
			if _, err := isim.PolicyByName(p.Name()); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSimulate10kWorkers stresses the struct-of-arrays hot state at a
// worker count two-and-a-half orders beyond the paper's Sec. 6 configuration
// (N=4): one ImageNet-22k epoch with 10⁴ workers, exercising the packed
// availability words and lean worker-0 assignment rows that keep the
// placement state O(F) instead of O(F × N). Beyond the paper's simulated
// envelope (see EXPERIMENTS.md); skipped under -short.
func BenchmarkSimulate10kWorkers(b *testing.B) {
	if testing.Short() {
		b.Skip("10k-worker simulation is a scale stress; skipped under -short")
	}
	s, err := isim.ScenarioByID("fig8d")
	if err != nil {
		b.Fatal(err)
	}
	cfg, err := s.Config(0.02, 42)
	if err != nil {
		b.Fatal(err)
	}
	cfg.Work.Workers = 10000
	cfg.Work.Epochs = 1
	// Keep the global batch (workers × batch) within the scaled dataset.
	cfg.Work.BatchPerWorker = 4
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := isim.Run(cfg, isim.NewNoPFS())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.ExecSeconds, "sim-exec-s")
	}
}
