package trainer

import (
	"context"
	"fmt"

	"repro/internal/dataset"
	"repro/internal/hwspec"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// Figure presets. At scale = 1 these match the paper's configurations;
// tests and benchmarks pass smaller scales (and may trim GPUCounts, since a
// scaled dataset cannot feed 1024 ranks a full global batch).

// Fig10PizDaint: ResNet-50 / ImageNet-1k on Piz Daint, 32-256 GPUs,
// PyTorch vs PyTorch+DALI vs NoPFS vs No-I/O. 10 measured epochs.
func Fig10PizDaint(scale float64) Experiment {
	return Experiment{
		Name: "fig10-pizdaint",
		Sys:  hwspec.PizDaint(),
		Spec: dataset.ImageNet1kSpec(),
		Workload: func(workers int) hwspec.Workload {
			return hwspec.ResNet50PizDaint(workers, 10, 64)
		},
		GPUCounts: []int{32, 64, 128, 256},
		Loaders:   []Loader{LoaderPyTorch, LoaderDALI, LoaderNoPFS, LoaderNoIO},
		Scale:     scale, Seed: 0xF10, Jitter: 0.6,
	}
}

// Fig10Lassen: ResNet-50 / ImageNet-1k on Lassen, 32-1024 GPUs,
// PyTorch vs LBANN vs NoPFS vs No-I/O. Per-GPU batch 120.
func Fig10Lassen(scale float64) Experiment {
	return Experiment{
		Name: "fig10-lassen",
		Sys:  hwspec.Lassen(),
		Spec: dataset.ImageNet1kSpec(),
		Workload: func(workers int) hwspec.Workload {
			return hwspec.ResNet50Lassen(workers, 10, 120)
		},
		GPUCounts: []int{32, 64, 128, 256, 512, 1024},
		Loaders:   []Loader{LoaderPyTorch, LoaderLBANN, LoaderNoPFS, LoaderNoIO},
		Scale:     scale, Seed: 0xF10, Jitter: 0.6,
	}
}

// Fig13BatchSweep: ResNet-50 / ImageNet-1k on 128 Lassen GPUs with per-GPU
// batch sizes 32-120, PyTorch vs NoPFS vs No-I/O.
func Fig13BatchSweep(scale float64) []Experiment {
	var out []Experiment
	for _, batch := range []int{32, 64, 96, 120} {
		b := batch
		out = append(out, Experiment{
			Name: fmt.Sprintf("fig13-b%d", b),
			Sys:  hwspec.Lassen(),
			Spec: dataset.ImageNet1kSpec(),
			Workload: func(workers int) hwspec.Workload {
				return hwspec.ResNet50Lassen(workers, 10, b)
			},
			GPUCounts: []int{128},
			Loaders:   []Loader{LoaderPyTorch, LoaderNoPFS, LoaderNoIO},
			Scale:     scale, Seed: 0xF13, Jitter: 0.6,
		})
	}
	return out
}

// Fig14Lassen: ResNet-50 / ImageNet-22k on Lassen, 32-1024 GPUs, 3 epochs.
func Fig14Lassen(scale float64) Experiment {
	return Experiment{
		Name: "fig14-imagenet22k",
		Sys:  hwspec.Lassen(),
		Spec: dataset.ImageNet22kSpec(),
		Workload: func(workers int) hwspec.Workload {
			return hwspec.ResNet50Lassen(workers, 3, 120)
		},
		GPUCounts: []int{32, 64, 128, 256, 512, 1024},
		Loaders:   []Loader{LoaderPyTorch, LoaderNoPFS, LoaderNoIO},
		Scale:     scale, Seed: 0xF14, Jitter: 0.6,
	}
}

// Fig15Lassen: CosmoFlow on Lassen, 32-1024 GPUs, per-GPU batch 16.
func Fig15Lassen(scale float64) Experiment {
	return Experiment{
		Name: "fig15-cosmoflow",
		Sys:  hwspec.Lassen(),
		Spec: dataset.CosmoFlowSpec(),
		Workload: func(workers int) hwspec.Workload {
			return hwspec.CosmoFlowLassen(workers, 10, 16)
		},
		GPUCounts: []int{32, 64, 128, 256, 512, 1024},
		Loaders:   []Loader{LoaderPyTorch, LoaderNoPFS, LoaderNoIO},
		Scale:     scale, Seed: 0xF15, Jitter: 0.6,
	}
}

// EndToEndPoint is one sample of the Fig. 16 accuracy-vs-time curves.
type EndToEndPoint struct {
	Epoch       int
	Seconds     float64
	Top1Percent float64
}

// EndToEndResult holds one loader's simulated 90-epoch training run.
type EndToEndResult struct {
	Loader       string
	Curve        []EndToEndPoint
	TotalSeconds float64
	FinalTop1    float64
}

// Fig16 metric names and schema: the end-to-end grid reports total training
// time and the final top-1 accuracy; the full curve rides in the payload.
const (
	MetricTotalS    = "total_s"
	MetricFinalTop1 = "final_top1"
)

// Fig16Metrics is the end-to-end grid's result schema.
func Fig16Metrics() []sweep.Metric {
	return []sweep.Metric{
		{Name: MetricTotalS, Label: "total", Unit: "s"},
		{Name: MetricFinalTop1, Label: "top1%"},
	}
}

// Fig16Experiment is the Fig. 16 configuration: ResNet-50 on ImageNet-1k,
// 256 Lassen GPUs, per-GPU batch 32 (global 8192), 90 epochs.
func Fig16Experiment(scale float64) Experiment {
	const epochs = 90
	return Experiment{
		Name: "fig16",
		Sys:  hwspec.Lassen(),
		Spec: dataset.ImageNet1kSpec(),
		Workload: func(workers int) hwspec.Workload {
			return hwspec.ResNet50Lassen(workers, epochs, 32)
		},
		GPUCounts: []int{256},
		Loaders:   []Loader{LoaderPyTorch, LoaderNoPFS, LoaderNoIO},
		Scale:     scale, Seed: 0xF16, Jitter: 0.4,
	}
}

// fig16Cell simulates one loader's 90-epoch run and folds the per-epoch
// times into the accuracy-vs-time curve (the Goyal et al. schedule).
func fig16Cell(exp Experiment, ds *dataset.Synthetic, sys hwspec.System, loader Loader, seed uint64) (EndToEndResult, error) {
	work := loader.AdjustWorkload(exp.Workload(exp.GPUCounts[0]))
	cfg := sim.Config{Sys: sys, Work: work, DS: ds, Seed: seed, PFSJitter: exp.Jitter, DropLast: true, Chaos: exp.Chaos, Access: exp.Access}
	pol, err := loader.Policy()
	if err != nil {
		return EndToEndResult{}, err
	}
	r, err := sim.Run(cfg, pol)
	if err != nil {
		return EndToEndResult{}, err
	}
	res := EndToEndResult{Loader: loader.String()}
	if r.Failed {
		return res, nil
	}
	elapsed := 0.0
	for e, d := range r.EpochSeconds {
		elapsed += d
		res.Curve = append(res.Curve, EndToEndPoint{
			Epoch:       e + 1,
			Seconds:     elapsed,
			Top1Percent: ResNet50Top1(float64(e + 1)),
		})
	}
	res.TotalSeconds = elapsed
	if n := len(res.Curve); n > 0 {
		res.FinalTop1 = res.Curve[n-1].Top1Percent
	}
	return res, nil
}

// Fig16GridFrom plans the end-to-end comparison as a sweep grid over a
// caller-prepared Fig16Experiment (seed overrides, trimmed axes, chaos
// profiles): one row (256 GPUs), one column per loader, cells carrying
// EndToEndResult payloads. NoPFS preserves full-dataset randomization, so
// accuracy-vs-epoch is loader-independent; the loaders differ only in how
// fast epochs complete — exactly the paper's framing.
func Fig16GridFrom(exp Experiment, replicas int) *sweep.Grid {
	cols := make([]sweep.PolicySpec, len(exp.Loaders))
	for i, l := range exp.Loaders {
		cols[i] = sweep.PolicySpec{Name: l.String()}
	}
	loaders := exp.Loaders
	env := sharedEnv(exp)
	grid := &sweep.Grid{
		Name: exp.Name,
		Scenarios: []sweep.ScenarioSpec{{
			ID:    fmt.Sprintf("%s-g%d", exp.Name, exp.GPUCounts[0]),
			Label: "ResNet-50/ImageNet-1k, 256 Lassen GPUs, 90 epochs",
		}},
		Policies: cols,
		Replicas: replicas, BaseSeed: exp.Seed,
		Metrics: Fig16Metrics(),
	}
	grid.Cell = func(si, pi, fi, ai int) sweep.CellFunc {
		l := loaders[pi]
		cell := exp
		cell.Chaos = effectiveChaos(exp, grid, fi)
		cell.Access = effectiveAccess(exp, grid, ai)
		return func(ctx context.Context, seed uint64) (*sweep.Outcome, error) {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			ds, sys, err := env()
			if err != nil {
				return nil, err
			}
			res, err := fig16Cell(cell, ds, sys, l, seed)
			if err != nil {
				return nil, err
			}
			o := &sweep.Outcome{Payload: res}
			if len(res.Curve) == 0 {
				o.Failed = true
				o.FailReason = fmt.Sprintf("%s cannot run fig16", res.Loader)
				return o, nil
			}
			o.Values = map[string]float64{
				MetricTotalS:    res.TotalSeconds,
				MetricFinalTop1: res.FinalTop1,
			}
			return o, nil
		}
	}
	return grid
}
