package trainer

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/perfmodel"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// This file plans the real-system experiment grids — (machine × loader ×
// GPU count × replica seed) — as sweep-engine grids, so the trainer's
// scaling studies run through the same concurrent orchestration layer as
// the simulator's Fig. 8/9 grids: rows are GPU counts (or experiments),
// columns are loaders, and each cell simulates one measurement.

// Trainer metric names (the trainer grids' Outcome.Values keys).
const (
	MetricMedianEpoch = "median_epoch_s"
	MetricEpoch0      = "epoch0_s"
	MetricBatchMedian = "batch_median_s"
	MetricBatchP95    = "batch_p95_s"
	MetricBatchMax    = "batch_max_s"
	MetricBatch0Med   = "batch0_median_s"
	MetricBatch0P95   = "batch0_p95_s"
	MetricBatch0Max   = "batch0_max_s"
	MetricStallS      = "stall_s"
	MetricExecS       = "exec_s"
	MetricPFSFrac     = "pfs_frac"
	MetricRemoteFrac  = "remote_frac"
	MetricLocalFrac   = "local_frac"
)

// GridMetrics is the trainer grids' result schema: the paper's headline
// per-epoch and per-batch statistics plus the Fig. 12 stall/fetch-mix data
// (hidden from text tables, present in JSON/CSV).
func GridMetrics() []sweep.Metric {
	return []sweep.Metric{
		{Name: MetricMedianEpoch, Label: "med-epoch", Unit: "s"},
		{Name: MetricEpoch0, Label: "epoch0", Unit: "s"},
		{Name: MetricBatchP95, Label: "batch-p95", Unit: "s"},
		{Name: MetricBatchMax, Label: "batch-max", Unit: "s"},
		{Name: MetricBatchMedian, Unit: "s", Hide: true},
		{Name: MetricBatch0Med, Unit: "s", Hide: true},
		{Name: MetricBatch0P95, Unit: "s", Hide: true},
		{Name: MetricBatch0Max, Unit: "s", Hide: true},
		{Name: MetricStallS, Unit: "s", Hide: true},
		{Name: MetricExecS, Unit: "s", Hide: true},
		{Name: MetricPFSFrac, Hide: true},
		{Name: MetricRemoteFrac, Hide: true},
		{Name: MetricLocalFrac, Hide: true},
	}
}

// PointOutcome converts one scaling measurement into an engine cell
// outcome, keeping the full ScalePoint as the payload.
func PointOutcome(p ScalePoint) *sweep.Outcome {
	o := &sweep.Outcome{Payload: p}
	if p.Failed {
		o.Failed = true
		o.FailReason = p.Reason
		return o
	}
	o.Values = map[string]float64{
		MetricMedianEpoch: p.MedianEpoch,
		MetricEpoch0:      p.Epoch0Seconds,
		MetricBatchMedian: p.Batch.Median,
		MetricBatchP95:    p.Batch.P95,
		MetricBatchMax:    p.Batch.Max,
		MetricBatch0Med:   p.Batch0.Median,
		MetricBatch0P95:   p.Batch0.P95,
		MetricBatch0Max:   p.Batch0.Max,
		MetricStallS:      p.StallSeconds,
		MetricExecS:       p.ExecSeconds,
		MetricPFSFrac:     p.LocFraction[perfmodel.LocPFS],
		MetricRemoteFrac:  p.LocFraction[perfmodel.LocRemote],
		MetricLocalFrac:   p.LocFraction[perfmodel.LocLocal],
	}
	return o
}

// scaleOutcome is the scaling grids' projection of one simulated cell: its
// ScalePoint, with epoch 0's batches split off from the steady state.
func scaleOutcome(cfg sim.Config, loader Loader, r *sim.Result) *sweep.Outcome {
	batchesPerEpoch := cfg.Plan().SamplesPerEpoch(0) / cfg.Work.BatchPerWorker
	return PointOutcome(pointFromResult(loader.String(), cfg.Work.Workers, batchesPerEpoch, r))
}

// loaderGrid is every trainer grid's binding: one column per loader of exp,
// and a cell that materialises its row's configuration with the cell's fault
// profile and access pattern (sweep.Grid.Config), applies the loader's
// workload change, simulates the loader's policy, and projects the result
// through outcome. The binding is custom because a loader is a policy plus a
// workload change (DALI's preprocessing offload) and each grid projects its
// own outcome.
func loaderGrid(name string, rows []sweep.ScenarioSpec, exp Experiment, replicas int,
	metrics []sweep.Metric, outcome func(sim.Config, Loader, *sim.Result) *sweep.Outcome) *sweep.Grid {
	cols := make([]sweep.PolicySpec, len(exp.Loaders))
	for i, l := range exp.Loaders {
		cols[i] = sweep.PolicySpec{Name: l.String()}
	}
	grid := &sweep.Grid{
		Name: name, Scenarios: rows, Policies: cols,
		Replicas: replicas, BaseSeed: exp.Seed,
		Metrics: metrics,
	}
	// The binding reads the grid's axes when a cell runs, so Profiles and
	// Patterns assigned by the caller (nopfs train -chaos / -access) apply.
	grid.Cell = func(si, pi, fi, ai int) sweep.CellFunc {
		loader := exp.Loaders[pi]
		return func(ctx context.Context, seed uint64) (*sweep.Outcome, error) {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			cfg, err := grid.Config(si, fi, ai, seed)
			if err != nil {
				return nil, err
			}
			cfg.Work = loader.AdjustWorkload(cfg.Work)
			pol, err := loader.Policy()
			if err != nil {
				return nil, err
			}
			r, err := sim.Run(cfg, pol)
			if err != nil {
				return nil, err
			}
			return outcome(cfg, loader, r), nil
		}
	}
	return grid
}

// Grid plans the experiment as a sweep grid: one row per GPU count, one
// column per loader, BaseSeed = the experiment's seed.
func (e Experiment) Grid(replicas int) *sweep.Grid {
	grid, _ := MultiGrid(e.Name, []Experiment{e}, replicas) // one experiment mixes nothing
	return grid
}

// MultiGrid plans several experiments as one grid — one row per
// (experiment, GPU count), shared loader columns — so studies like the
// Fig. 13 batch-size sweep emit a single report. Every experiment must use
// the same loaders and base seed (the presets do).
func MultiGrid(name string, exps []Experiment, replicas int) (*sweep.Grid, error) {
	if len(exps) == 0 {
		return nil, fmt.Errorf("trainer: grid %q has no experiments", name)
	}
	var rows []sweep.ScenarioSpec
	for _, e := range exps {
		if !slices.Equal(e.Loaders, exps[0].Loaders) {
			return nil, fmt.Errorf("trainer: grid %q mixes loader sets (%s)", name, e.Name)
		}
		if e.Seed != exps[0].Seed {
			return nil, fmt.Errorf("trainer: grid %q mixes base seeds (%s)", name, e.Name)
		}
		for _, gpus := range e.GPUCounts {
			rows = append(rows, e.row(gpus, fmt.Sprintf("%s, %d GPUs", e.Name, gpus)))
		}
	}
	return loaderGrid(name, rows, exps[0], replicas, GridMetrics(), scaleOutcome), nil
}

// PointsFromReport recovers the per-cell ScalePoints of a trainer grid
// report, in deterministic cell order.
func PointsFromReport(rep *sweep.Report) ([]ScalePoint, error) {
	points := make([]ScalePoint, len(rep.Cells))
	for i, c := range rep.Cells {
		p, ok := c.Outcome.Payload.(ScalePoint)
		if !ok {
			return nil, fmt.Errorf("trainer: report %q cell %d carries no scale point", rep.Grid, i)
		}
		points[i] = p
	}
	return points, nil
}
