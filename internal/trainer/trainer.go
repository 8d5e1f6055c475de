// Package trainer reproduces the paper's real-system evaluation (Sec. 7,
// Figs. 10-16) on top of the performance simulator.
//
// The paper measures PyTorch's DataLoader, DALI, the LBANN data store, and
// NoPFS on the Piz Daint and Lassen supercomputers. Neither machine nor the
// frameworks are available here, so each loader is modelled as the I/O
// policy it implements:
//
//   - PyTorch DataLoader  → sim.StagingBuffer (double-buffered PFS reads)
//   - DALI                → StagingBuffer with preprocessing offloaded to
//     GPU (5x the baseline preprocessing rate)
//   - LBANN data store    → sim.LBANN dynamic (first-touch RAM cache)
//   - NoPFS               → sim.NoPFS
//   - "No I/O"            → sim.LowerBound (synthetic-data baseline)
//
// Epoch times, per-batch distributions, stall breakdowns, and cache
// statistics all come from the simulator under the paper's machine presets.
package trainer

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/hwspec"
	"repro/internal/perfmodel"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/sweep"
)

// Loader identifies one of the compared data-loading frameworks.
type Loader int

// The frameworks of the paper's Sec. 7 comparison.
const (
	LoaderPyTorch Loader = iota
	LoaderDALI
	LoaderLBANN
	LoaderNoPFS
	LoaderNoIO
)

// String returns the plot label.
func (l Loader) String() string {
	switch l {
	case LoaderPyTorch:
		return "PyTorch"
	case LoaderDALI:
		return "PyTorch+DALI"
	case LoaderLBANN:
		return "LBANN"
	case LoaderNoPFS:
		return "NoPFS"
	case LoaderNoIO:
		return "No I/O"
	default:
		return fmt.Sprintf("loader(%d)", int(l))
	}
}

// Policy returns the simulator policy implementing the loader.
func (l Loader) Policy() (sim.Policy, error) {
	switch l {
	case LoaderPyTorch, LoaderDALI:
		return sim.NewStagingBuffer(), nil
	case LoaderLBANN:
		return sim.NewLBANN(false), nil
	case LoaderNoPFS:
		return sim.NewNoPFS(), nil
	case LoaderNoIO:
		return sim.NewLowerBound(), nil
	}
	return sim.Policy{}, fmt.Errorf("trainer: unknown loader %d", int(l))
}

// AdjustWorkload applies loader-specific workload changes: DALI offloads
// decoding and augmentation to the GPU, which we model as a 5x faster
// preprocessing stage.
func (l Loader) AdjustWorkload(w hwspec.Workload) hwspec.Workload {
	if l == LoaderDALI {
		w.PreprocMBps *= 5
	}
	return w
}

// ScalePoint is one (loader, GPU count) measurement of a scaling experiment.
type ScalePoint struct {
	Loader string
	GPUs   int
	Failed bool
	Reason string

	// Median per-epoch time excluding epoch 0, with a 95% CI — the
	// paper's headline metric (Figs. 10, 14, 15).
	MedianEpoch   float64
	EpochCILow    float64
	EpochCIHigh   float64
	Epoch0Seconds float64

	// Batch summarises per-batch times excluding epoch 0 (the violin
	// plots); Batch0 covers epoch 0 only (Fig. 11).
	Batch  stats.Summary
	Batch0 stats.Summary

	// StallSeconds and the fetch-location mix reproduce Fig. 12.
	StallSeconds float64
	LocFraction  map[perfmodel.Location]float64

	ExecSeconds float64
}

// pointFromResult converts a simulator result into a ScalePoint.
func pointFromResult(loader string, gpus, batchesPerEpoch int, r *sim.Result) ScalePoint {
	p := ScalePoint{Loader: loader, GPUs: gpus, ExecSeconds: r.ExecSeconds}
	if r.Failed {
		p.Failed = true
		p.Reason = r.FailReason
		return p
	}
	if len(r.EpochSeconds) > 0 {
		p.Epoch0Seconds = r.EpochSeconds[0]
	}
	if len(r.EpochSeconds) > 1 {
		rest := append([]float64(nil), r.EpochSeconds[1:]...)
		s := stats.Summarize(rest)
		p.MedianEpoch, p.EpochCILow, p.EpochCIHigh = s.Median, s.CILow, s.CIHigh
	} else if len(r.EpochSeconds) == 1 {
		p.MedianEpoch = r.EpochSeconds[0]
	}
	if batchesPerEpoch > 0 && len(r.BatchSeconds) > batchesPerEpoch {
		p.Batch0 = stats.Summarize(r.BatchSeconds[:batchesPerEpoch])
		p.Batch = stats.Summarize(r.BatchSeconds[batchesPerEpoch:])
	} else {
		p.Batch = stats.Summarize(r.BatchSeconds)
		p.Batch0 = p.Batch
	}
	p.StallSeconds = r.StallSeconds
	var total int64
	for _, c := range r.LocCount {
		total += c
	}
	p.LocFraction = map[perfmodel.Location]float64{}
	if total > 0 {
		for loc, c := range r.LocCount {
			p.LocFraction[loc] = float64(c) / float64(total)
		}
	}
	return p
}

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
	Loaders   []Loader
	// Scale shrinks the dataset and cache capacities together (1 = paper
	// scale).
	Scale  float64
	Seed   uint64
	Jitter float64
}

// row is the experiment's sweep row at one GPU count. Its Config scales the
// dataset and system, builds the workload for gpus ranks, and validates the
// loader-free configuration; loaderGrid adjusts the workload per column.
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
