// Package trainer reproduces the paper's real-system evaluation (Sec. 7,
// Figs. 10-16) on top of the performance simulator.
//
// The paper measures PyTorch's DataLoader, DALI, the LBANN data store, and
// NoPFS on the Piz Daint and Lassen supercomputers. Neither machine nor the
// frameworks are available here, so each loader is a simulator policy
// column, the I/O policy it implements:
//
//   - PyTorch DataLoader  → sim.StagingBuffer (double-buffered PFS reads)
//   - DALI                → sim.NewDALI: StagingBuffer with preprocessing
//     offloaded to GPU (5x the baseline preprocessing rate)
//   - LBANN data store    → sim.LBANN dynamic (first-touch RAM cache)
//   - NoPFS               → sim.NoPFS
//   - "No I/O"            → sim.LowerBound (synthetic-data baseline)
//
// Every figure is a sweep grid on the simulator's own cell binding, so epoch
// times, per-batch distributions, stall breakdowns, and cache statistics all
// come from *sim.Result under the paper's machine presets.
package trainer

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/hwspec"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// The loaders of the paper's Sec. 7 comparison, as grid columns labelled
// as in its plots.
var (
	PyTorch = sweep.PolicySpec{Name: "PyTorch", New: sim.NewStagingBuffer}
	DALI    = sweep.PolicySpec{Name: "PyTorch+DALI", New: sim.NewDALI}
	LBANN   = sweep.PolicySpec{Name: "LBANN", New: func() sim.Policy { return sim.NewLBANN(false) }}
	NoPFS   = sweep.PolicySpec{Name: "NoPFS", New: sim.NewNoPFS}
	NoIO    = sweep.PolicySpec{Name: "No I/O", New: sim.NewLowerBound}
)

// Experiment is a scaling study: one dataset and machine, several loaders,
// several GPU counts.
type Experiment struct {
	Name string
	Sys  hwspec.System
	Spec dataset.Spec
	// Workload returns the workload for a given worker count (compute
	// rate, preprocessing rate, batch size, epochs).
	Workload func(workers int) hwspec.Workload
	// GPUCounts are the x-axis points (one rank per GPU, as on Lassen).
	GPUCounts []int
	// Loaders are the grid's columns.
	Loaders []sweep.PolicySpec
	// Scale shrinks the dataset and cache capacities together (1 = paper
	// scale).
	Scale  float64
	Seed   uint64
	Jitter float64
}

// row is the experiment's sweep row at one GPU count. Its Config scales the
// dataset and system, builds the workload for gpus ranks, and validates the
// configuration; a loader's own workload change (DALI's preprocessing
// offload) is its policy's, applied by sim.Run.
func (e Experiment) row(gpus int, label string) sweep.ScenarioSpec {
	return sweep.ScenarioSpec{
		ID:    fmt.Sprintf("%s-g%d", e.Name, gpus),
		Label: label,
		Config: func(seed uint64) (sim.Config, error) {
			spec, sys := e.Spec, e.Sys
			if e.Scale != 1 {
				spec, sys = spec.Scale(e.Scale), sim.ScaleSystem(sys, e.Scale)
			}
			ds, err := dataset.Cached(spec)
			if err != nil {
				return sim.Config{}, err
			}
			cfg := sim.Config{
				Sys: sys, Work: e.Workload(gpus), DS: ds,
				Seed: seed, PFSJitter: e.Jitter, DropLast: true,
			}
			if err := cfg.Validate(); err != nil {
				return sim.Config{}, fmt.Errorf("%s @%d GPUs: %w", e.Name, gpus, err)
			}
			return cfg, nil
		},
	}
}
