package trainer

import (
	"fmt"
	"slices"

	"repro/internal/perfmodel"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/sweep"
)

// This file plans the real-system experiment grids — (machine × loader ×
// GPU count × replica seed) — as sweep-engine grids on the simulator's own
// cell binding, like the Fig. 8/9 grids: rows are GPU counts (or
// experiments), columns are loaders (policies), and each cell simulates one
// measurement.

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

// scaleOutcome projects one simulated cell onto GridMetrics: the median
// epoch after epoch 0 (the paper's headline metric, Figs. 10, 14, 15), the
// per-batch statistics with epoch 0's batches split off from the steady
// state (the violin plots; Fig. 11 reads epoch 0's), and the Fig. 12 stall
// time and fetch-location mix.
func scaleOutcome(cfg sim.Config, r *sim.Result) *sweep.Outcome {
	if r.Failed {
		return sweep.SimOutcome(r)
	}
	var epoch0, medianEpoch float64
	if n := len(r.EpochSeconds); n > 0 {
		epoch0, medianEpoch = r.EpochSeconds[0], stats.Median(r.EpochSeconds[min(1, n-1):])
	}
	var batch0, batch stats.Summary
	if n := cfg.Plan().SamplesPerEpoch(0) / cfg.Work.BatchPerWorker; n > 0 && len(r.BatchSeconds) > n {
		batch0, batch = stats.Summarize(r.BatchSeconds[:n]), stats.Summarize(r.BatchSeconds[n:])
	} else {
		batch = stats.Summarize(r.BatchSeconds)
		batch0 = batch
	}
	var total int64
	for _, c := range r.LocCount {
		total += c
	}
	frac := func(loc perfmodel.Location) float64 {
		if total == 0 {
			return 0
		}
		return float64(r.LocCount[loc]) / float64(total)
	}
	return &sweep.Outcome{Payload: r, Values: map[string]float64{
		MetricMedianEpoch: medianEpoch,
		MetricEpoch0:      epoch0,
		MetricBatchMedian: batch.Median,
		MetricBatchP95:    batch.P95,
		MetricBatchMax:    batch.Max,
		MetricBatch0Med:   batch0.Median,
		MetricBatch0P95:   batch0.P95,
		MetricBatch0Max:   batch0.Max,
		MetricStallS:      r.StallSeconds,
		MetricExecS:       r.ExecSeconds,
		MetricPFSFrac:     frac(perfmodel.LocPFS),
		MetricRemoteFrac:  frac(perfmodel.LocRemote),
		MetricLocalFrac:   frac(perfmodel.LocLocal),
	}}
}

// MultiGrid plans experiments as one sweep grid on the simulator's cell
// binding: one row per (experiment, GPU count), one column per shared
// loader, BaseSeed = the experiments' seed, so studies like the Fig. 13
// batch-size sweep emit a single report. Every experiment must use the same
// loaders and base seed (the presets do). Grid.Config stamps the cell's
// fault profile and access pattern on, so Profiles and Patterns assigned by
// the caller (nopfs train -chaos / -access) apply.
func MultiGrid(name string, exps []Experiment, replicas int) (*sweep.Grid, error) {
	if len(exps) == 0 {
		return nil, fmt.Errorf("trainer: grid %q has no experiments", name)
	}
	var rows []sweep.ScenarioSpec
	sameName := func(a, b sweep.PolicySpec) bool { return a.Name == b.Name }
	for _, e := range exps {
		if !slices.EqualFunc(e.Loaders, exps[0].Loaders, sameName) {
			return nil, fmt.Errorf("trainer: grid %q mixes loader sets (%s)", name, e.Name)
		}
		if e.Seed != exps[0].Seed {
			return nil, fmt.Errorf("trainer: grid %q mixes base seeds (%s)", name, e.Name)
		}
		for _, gpus := range e.GPUCounts {
			rows = append(rows, e.row(gpus, fmt.Sprintf("%s, %d GPUs", e.Name, gpus)))
		}
	}
	return &sweep.Grid{
		Name: name, Scenarios: rows, Policies: exps[0].Loaders,
		Replicas: replicas, BaseSeed: exps[0].Seed,
		Metrics: GridMetrics(), Outcome: scaleOutcome,
	}, nil
}
