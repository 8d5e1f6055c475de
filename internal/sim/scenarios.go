package sim

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/hwspec"
)

// Scenario is one of the paper's Fig. 8 simulation setups: a dataset regime
// relative to the storage hierarchy (S < d₁ … ND < S) on the Sec. 6.1 small
// cluster.
type Scenario struct {
	// ID is the figure panel ("fig8a" … "fig8f").
	ID string
	// Label is the paper's caption for the panel.
	Label string
	// Spec is the dataset preset.
	Spec dataset.Spec
	// System is the simulated cluster.
	System hwspec.System
	// Workload holds c, β, batch size, epochs, and worker count. Epochs
	// are calibrated so the panel's lower bound lands near the paper's
	// (the paper does not state its simulated epoch counts; see
	// EXPERIMENTS.md).
	Workload hwspec.Workload
	// Jitter is the per-batch PFS jitter (Config.PFSJitter) of the Sec. 7
	// real-system runs; the Fig. 8 panels have none.
	Jitter float64
}

// Fig8Scenarios returns the six panels of Fig. 8.
func Fig8Scenarios() []Scenario {
	small := hwspec.SmallCluster()
	w := func(epochs, batch, workers int) hwspec.Workload {
		return hwspec.Workload{
			Name:        "sec6.1",
			ComputeMBps: 64, PreprocMBps: 200,
			BatchPerWorker: batch, Epochs: epochs, Workers: workers,
		}
	}
	return []Scenario{
		{ID: "fig8a", Label: "S < d1, MNIST", Spec: dataset.MNISTSpec(), System: small, Workload: w(5, 32, 4)},
		{ID: "fig8b", Label: "d1 < S < D, ImageNet-1k", Spec: dataset.ImageNet1kSpec(), System: small, Workload: w(5, 32, 4)},
		{ID: "fig8c", Label: "d1 < S < ND, OpenImages", Spec: dataset.OpenImagesSpec(), System: small, Workload: w(5, 32, 4)},
		{ID: "fig8d", Label: "D < S < ND, ImageNet-22k", Spec: dataset.ImageNet22kSpec(), System: small, Workload: w(5, 32, 4)},
		{ID: "fig8e", Label: "ND < S, CosmoFlow", Spec: dataset.CosmoFlowSpec(), System: small, Workload: w(3, 16, 4)},
		{ID: "fig8f", Label: "ND < S, N=8, CosmoFlow 512^3", Spec: dataset.CosmoFlow512Spec(), System: small, Workload: w(1, 1, 8)},
	}
}

// ScenarioByID finds a Fig. 8 scenario by panel id or dataset name.
func ScenarioByID(id string) (Scenario, error) {
	for _, s := range Fig8Scenarios() {
		if s.ID == id || s.Spec.Name == id {
			return s, nil
		}
	}
	return Scenario{}, fmt.Errorf("sim: unknown scenario %q", id)
}

// ScaleSystem multiplies every cache capacity by factor, leaving throughputs
// and the staging buffer untouched. Shrinking the dataset and the cache
// capacities by the same factor preserves the scenario's regime (S vs d₁ vs
// D vs ND) and its relative results while making runs fast enough for tests
// and benchmarks. The staging buffer is a lookahead window, not a cache:
// scaling it below a few samples would serialise the pipeline in a way the
// paper-scale configuration never does (sample sizes do not shrink).
func ScaleSystem(sys hwspec.System, factor float64) hwspec.System {
	classes := make([]hwspec.StorageClass, len(sys.Node.Classes))
	copy(classes, sys.Node.Classes)
	for i := range classes {
		classes[i].CapacityMB *= factor
	}
	sys.Node.Classes = classes
	return sys
}

// Config materialises the scenario at the given dataset scale (1 = paper
// size). Scales below 1 shrink both the dataset and every storage capacity.
// Its errors name neither the scenario nor the scale: the grid row that
// materialises it does.
func (s Scenario) Config(scale float64, seed uint64) (Config, error) {
	spec := s.Spec
	sys := s.System
	if scale != 1 {
		spec = spec.Scale(scale)
		sys = ScaleSystem(sys, scale)
	}
	ds, err := dataset.Cached(spec)
	if err != nil {
		return Config{}, err
	}
	cfg := Config{Sys: sys, Work: s.Workload, DS: ds, Seed: seed, PFSJitter: s.Jitter, DropLast: true}
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// Fig9Config builds the Fig. 9 environment-study configuration: NoPFS on
// ImageNet-22k with the given storage configuration (sizes in GB at paper
// scale) and 5× compute. Grid orchestration lives in internal/sweep; this
// is the per-point config factory it consumes.
func Fig9Config(scale float64, seed uint64, stagingGB, ramGB, ssdGB int) (Config, error) {
	base := hwspec.SmallCluster()
	sys := base
	sys.Name = fmt.Sprintf("fig9-ram%d-ssd%d", ramGB, ssdGB)
	classes := []hwspec.StorageClass{}
	if ramGB > 0 {
		ram := base.Node.Classes[0]
		ram.CapacityMB = float64(ramGB) * 1000
		classes = append(classes, ram)
	}
	if ssdGB > 0 {
		ssd := base.Node.Classes[1]
		ssd.CapacityMB = float64(ssdGB) * 1000
		classes = append(classes, ssd)
	}
	sys.Node.Classes = classes
	// The staging buffer is deliberately NOT scaled down with the dataset
	// (Config scales cache capacities only): the paper's preliminary sweep
	// shows 1-5 GB staging buffers perform identically (lookahead is never
	// the limiting factor at these sizes), and scaling it would reintroduce
	// a lookahead limit the paper's configuration does not have.
	sys.Node.Staging.CapacityMB = float64(stagingGB) * 1000
	work := hwspec.Workload{
		Name:        "fig9-5x",
		ComputeMBps: 5 * 64, PreprocMBps: 5 * 200,
		BatchPerWorker: 32, Epochs: 5, Workers: 4,
	}
	return Scenario{Spec: dataset.ImageNet22kSpec(), System: sys, Workload: work}.Config(scale, seed)
}
