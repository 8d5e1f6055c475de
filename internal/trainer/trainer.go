// Package trainer reproduces the paper's real-system evaluation (Sec. 7,
// Figs. 10-16) on top of the performance simulator.
//
// The paper measures PyTorch's DataLoader, DALI, the LBANN data store, and
// NoPFS on the Piz Daint and Lassen supercomputers. Neither machine nor the
// frameworks are available here, so each loader is modelled as the I/O
// policy it implements (see DESIGN.md's substitution table):
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
	"context"
	"fmt"

	"repro/internal/chaos"
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
func pointFromResult(loader string, gpus, epochs, batchesPerEpoch int, r *sim.Result) ScalePoint {
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
	// Chaos injects a fault/degradation scenario into every cell (zero =
	// fault-free, identical to the paper's healthy clusters).
	Chaos chaos.Profile
	// Access is the workload access-pattern spec stamped onto every cell
	// ("" = the classic uniform shuffle; see access.ParseAccessSpec).
	Access string
}

// scaled returns the experiment's dataset spec and system at its Scale.
func (e Experiment) scaled() (dataset.Spec, hwspec.System) {
	spec := e.Spec
	sys := e.Sys
	if e.Scale != 1 {
		spec = spec.Scale(e.Scale)
		sys = sim.ScaleSystem(sys, e.Scale)
	}
	return spec, sys
}

// Cell simulates one (GPU count, loader) point of the experiment with the
// given shuffle seed. It is a pure function of its arguments — no shared
// mutable state — so the sweep engine may execute cells concurrently.
func (e Experiment) Cell(gpus int, loader Loader, seed uint64) (ScalePoint, error) {
	spec, sys := e.scaled()
	ds, err := dataset.Cached(spec)
	if err != nil {
		return ScalePoint{}, err
	}
	return e.cell(ds, sys, gpus, loader, seed)
}

// Config builds (and validates) the simulator configuration for one
// (GPU count, loader) cell without running it — the dry-run explain path's
// view of the experiment.
func (e Experiment) Config(gpus int, loader Loader, seed uint64) (sim.Config, error) {
	spec, sys := e.scaled()
	ds, err := dataset.Cached(spec)
	if err != nil {
		return sim.Config{}, err
	}
	return e.config(ds, sys, gpus, loader, seed)
}

// config assembles the cell's sim.Config against a pre-built dataset.
func (e Experiment) config(ds *dataset.Synthetic, sys hwspec.System, gpus int, loader Loader, seed uint64) (sim.Config, error) {
	work := loader.AdjustWorkload(e.Workload(gpus))
	cfg := sim.Config{
		Sys: sys, Work: work, DS: ds,
		Seed: seed, PFSJitter: e.Jitter, DropLast: true,
		Chaos: e.Chaos, Access: e.Access,
	}
	if err := cfg.Validate(); err != nil {
		return sim.Config{}, fmt.Errorf("%s @%d GPUs (%s): %w", e.Name, gpus, loader, err)
	}
	return cfg, nil
}

// cell is Cell against a pre-built dataset: grid closures build the O(F)
// dataset once per experiment and share it across cells (datasets are
// read-only after construction and safe for concurrent readers).
func (e Experiment) cell(ds *dataset.Synthetic, sys hwspec.System, gpus int, loader Loader, seed uint64) (ScalePoint, error) {
	cfg, err := e.config(ds, sys, gpus, loader, seed)
	if err != nil {
		return ScalePoint{}, err
	}
	work := cfg.Work
	pol, err := loader.Policy()
	if err != nil {
		return ScalePoint{}, err
	}
	r, err := sim.Run(cfg, pol)
	if err != nil {
		return ScalePoint{}, fmt.Errorf("%s @%d GPUs (%s): %w", e.Name, gpus, loader, err)
	}
	plan := cfg.Plan()
	batchesPerEpoch := plan.SamplesPerEpoch(0) / work.BatchPerWorker
	return pointFromResult(loader.String(), gpus, work.Epochs, batchesPerEpoch, r), nil
}

// Run executes the experiment — every loader at every GPU count — through
// the sweep engine on a GOMAXPROCS-wide pool. Results are in (GPU count,
// loader) order, exactly as the former serial loop produced them, and are
// bit-identical at any pool width.
func (e Experiment) Run(ctx context.Context) ([]ScalePoint, error) {
	return e.RunParallel(ctx, 0)
}

// RunParallel is Run with an explicit engine pool width (0 = GOMAXPROCS,
// 1 = serial).
func (e Experiment) RunParallel(ctx context.Context, parallel int) ([]ScalePoint, error) {
	rep, err := (&sweep.Runner{Parallel: parallel}).Run(ctx, e.Grid(1))
	if err != nil {
		return nil, err
	}
	return PointsFromReport(rep)
}
