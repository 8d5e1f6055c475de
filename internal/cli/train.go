package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/sweep"
	"repro/internal/trainer"
)

// trainOptions holds the train command's parsed flags.
type trainOptions struct {
	Fig  int
	GPUs string
	ScaleFlags
	EngineFlags
	CommonFlags
}

// trainFlags builds the train command's flag set; -scale and -seed keep their
// figure-preset defaults.
func trainFlags(prog string) (*flag.FlagSet, *trainOptions) {
	fs := flag.NewFlagSet(prog, flag.ContinueOnError)
	o := &trainOptions{}
	fs.IntVar(&o.Fig, "fig", 10, "figure to reproduce: 10, 11, 12, 13, 14, 15, or 16")
	fs.StringVar(&o.GPUs, "gpus", "", "comma-separated GPU counts to keep (default: the figure's full axis)")
	o.ScaleFlags.Register(fs, 0.1, 0, seedHelpPre)
	o.EngineFlags.Register(fs)
	o.CommonFlags.Register(fs, true)
	return fs, o
}

// RunTrain is the `nopfs train` command: the paper's real-system evaluation
// (Sec. 7) on the simulated Piz Daint and Lassen machines — scaling studies
// (Figs. 10, 14, 15), epoch-0 behaviour (Fig. 11), NoPFS cache statistics
// (Fig. 12), the batch-size sweep (Fig. 13), and the end-to-end 90-epoch run
// (Fig. 16). Every figure's (machine × loader × GPU count × replica seed)
// grid executes through the concurrent sweep engine, so output is
// bit-identical at any -parallel width.
func RunTrain(prog string, args []string, stdout, stderr io.Writer) int {
	fs, o := trainFlags(prog)
	return execute(prog, fs, args, stderr, &o.Config, func(ctx context.Context) error {
		if err := o.CheckFormat(); err != nil {
			return err
		}
		keep, err := parseGPUs(o.GPUs)
		if err != nil {
			return err
		}
		profiles, err := o.ChaosProfiles()
		if err != nil {
			return err
		}
		patterns, err := o.AccessPatterns()
		if err != nil {
			return err
		}
		c := trainRun{
			ctx:      ctx,
			out:      stdout,
			engine:   &o.EngineFlags,
			seed:     o.Seed,
			keepGPUs: keep,
			profiles: profiles,
			patterns: patterns,
			dryRun:   o.DryRun,
		}
		if o.DryRun {
			return c.emitFig(o.Fig, o.Scale)
		}
		// Profile collectors run for the whole invocation; error paths leave
		// truncated profiles — fine for a diagnostics flag.
		stopProf, err := o.Prof.Start()
		if err != nil {
			return err
		}
		if err := c.emitFig(o.Fig, o.Scale); err != nil {
			return err
		}
		return stopProf()
	})
}

// trainRun carries the engine and presentation settings shared by every
// figure path.
type trainRun struct {
	ctx      context.Context
	out      io.Writer
	engine   *EngineFlags
	seed     uint64
	keepGPUs []int
	// profiles is the -chaos fault-profile axis (clean + faulted), empty
	// without the flag; patterns is the -access uniform-vs-pattern axis.
	profiles []sweep.ProfileSpec
	patterns []sweep.AccessSpec
	dryRun   bool
}

// emitFig dispatches one figure. An unknown figure is a usage error (exit 2).
func (c trainRun) emitFig(fig int, scale float64) error {
	switch fig {
	case 10:
		if err := c.emitExperiment("Fig. 10 (left): ResNet-50/ImageNet-1k on Piz Daint", trainer.Fig10PizDaint(scale)); err != nil {
			return err
		}
		return c.emitExperiment("Fig. 10 (right): ResNet-50/ImageNet-1k on Lassen", trainer.Fig10Lassen(scale))
	case 11:
		return c.emitFig11(trainer.Fig10PizDaint(scale))
	case 12:
		return c.emitFig12(trainer.Fig10PizDaint(scale))
	case 13:
		return c.emitFig13(scale)
	case 14:
		return c.emitExperiment("Fig. 14: ResNet-50/ImageNet-22k on Lassen", trainer.Fig14Lassen(scale))
	case 15:
		return c.emitExperiment("Fig. 15: CosmoFlow on Lassen", trainer.Fig15Lassen(scale))
	case 16:
		return c.emitFig16(scale)
	default:
		return usagef("unknown -fig %d: want 10, 11, 12, 13, 14, 15, or 16", fig)
	}
}

// parseGPUs parses the -gpus comma list.
func parseGPUs(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, usagef("bad -gpus entry %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

// prep applies the seed override and GPU-count filter to one experiment. A
// filter that matches nothing on the experiment's axis is an error, not a
// silent full-axis run.
func (c trainRun) prep(exp trainer.Experiment) (trainer.Experiment, error) {
	if c.seed != 0 {
		exp.Seed = c.seed
	}
	if len(c.keepGPUs) > 0 {
		var counts []int
		for _, g := range exp.GPUCounts {
			for _, k := range c.keepGPUs {
				if g == k {
					counts = append(counts, g)
					break
				}
			}
		}
		if len(counts) == 0 {
			return exp, usagef("-gpus %v matches none of %s's GPU counts %v",
				c.keepGPUs, exp.Name, exp.GPUCounts)
		}
		exp.GPUCounts = counts
	}
	return exp, nil
}

// trim applies prep to a list of experiments.
func (c trainRun) trim(exps []trainer.Experiment) ([]trainer.Experiment, error) {
	out := make([]trainer.Experiment, len(exps))
	for i, e := range exps {
		var err error
		if out[i], err = c.prep(e); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// emit attaches the -chaos clean-vs-faulted profile axis and the -access
// uniform-vs-pattern axis (no-ops without the flags) and runs the grid
// through the engine to stdout; text is the figure's bespoke text table, nil
// for the generic one.
func (c trainRun) emit(grid *sweep.Grid, text func(*sweep.Report)) error {
	grid.Profiles = c.profiles
	grid.Patterns = c.patterns
	return c.engine.Emit(c.ctx, c.out, grid, text)
}

// explain is the --dry-run path: print the grid's shape and the plan
// analysis of every (experiment, GPU count) scenario under the NoPFS loader
// (the placement-bearing policy — the other loaders share the same access
// plan).
func (c trainRun) explain(grid *sweep.Grid, exps []trainer.Experiment) error {
	grid.Profiles = c.profiles
	grid.Patterns = c.patterns
	explainGridShape(c.out, grid)
	for _, exp := range exps {
		for _, gpus := range exp.GPUCounts {
			cfg, err := exp.Config(gpus, trainer.LoaderNoPFS, exp.Seed)
			if err != nil {
				return err
			}
			id := fmt.Sprintf("%s-g%d", exp.Name, gpus)
			label := fmt.Sprintf("%s, %d GPUs", exp.Name, gpus)
			if err := explainConfig(c.out, id, label, cfg); err != nil {
				return err
			}
		}
	}
	return nil
}

// rowLabel is sweep's shared profile-qualified labelling rule, aliased for
// the bespoke figure tables below.
var rowLabel = sweep.RowLabel

// emitExperiment runs one experiment's grid and writes it in the requested
// format (generic text table under its title, JSON, or CSV).
func (c trainRun) emitExperiment(title string, exp trainer.Experiment) error {
	exp, err := c.prep(exp)
	if err != nil {
		return err
	}
	if c.dryRun {
		return c.explain(exp.Grid(c.engine.Replicas), []trainer.Experiment{exp})
	}
	if c.engine.Format == "text" {
		fmt.Fprintln(c.out, title)
	}
	return c.emit(exp.Grid(c.engine.Replicas), nil)
}

// emitFig11 renders the epoch-0 batch-time table (cold caches) from the
// Fig. 10 Piz Daint grid's batch0 metrics.
func (c trainRun) emitFig11(exp trainer.Experiment) error {
	exp, err := c.prep(exp)
	if err != nil {
		return err
	}
	if c.dryRun {
		return c.explain(exp.Grid(c.engine.Replicas), []trainer.Experiment{exp})
	}
	return c.emit(exp.Grid(c.engine.Replicas), func(rep *sweep.Report) {
		fmt.Fprintln(c.out, "Fig. 11: epoch-0 batch times on Piz Daint")
		fmt.Fprintf(c.out, "%-24s %-14s %12s %12s %12s\n", "scenario", "loader", "median", "p95", "max")
		for _, s := range rep.Aggregate() {
			if s.Failed {
				continue
			}
			fmt.Fprintf(c.out, "%-24s %-14s %11.3fs %11.3fs %11.3fs\n",
				s.Scenario, rowLabel(s.Policy, s.Profile, s.Pattern),
				s.Metric(trainer.MetricBatch0Med).Mean,
				s.Metric(trainer.MetricBatch0P95).Mean,
				s.Metric(trainer.MetricBatch0Max).Mean)
		}
	})
}

// emitFig12 renders NoPFS's stall time and fetch-location mix per scale
// from the Fig. 10 Piz Daint grid.
func (c trainRun) emitFig12(exp trainer.Experiment) error {
	exp, err := c.prep(exp)
	if err != nil {
		return err
	}
	if c.dryRun {
		return c.explain(exp.Grid(c.engine.Replicas), []trainer.Experiment{exp})
	}
	return c.emit(exp.Grid(c.engine.Replicas), func(rep *sweep.Report) {
		fmt.Fprintln(c.out, "Fig. 12: NoPFS cache stats on Piz Daint (ImageNet-1k)")
		fmt.Fprintf(c.out, "%-24s %12s %8s %8s %8s\n", "scenario", "stall", "pfs%", "remote%", "local%")
		for _, s := range rep.Aggregate() {
			if s.Policy != "NoPFS" || s.Failed {
				continue
			}
			fmt.Fprintf(c.out, "%-24s %11.2fs %7.1f%% %7.1f%% %7.1f%%\n",
				rowLabel(s.Scenario, s.Profile, s.Pattern),
				s.Metric(trainer.MetricStallS).Mean,
				100*s.Metric(trainer.MetricPFSFrac).Mean,
				100*s.Metric(trainer.MetricRemoteFrac).Mean,
				100*s.Metric(trainer.MetricLocalFrac).Mean)
		}
	})
}

// emitFig13 renders the batch-size sweep. Text mode prints the figure's
// primary statistic — steady-state per-batch times (median/p95/max) per
// batch size; structured modes emit the full grid report.
func (c trainRun) emitFig13(scale float64) error {
	exps, err := c.trim(trainer.Fig13BatchSweep(scale))
	if err != nil {
		return err
	}
	grid, err := trainer.MultiGrid("fig13", exps, c.engine.Replicas)
	if err != nil {
		return err
	}
	if c.dryRun {
		return c.explain(grid, exps)
	}
	return c.emit(grid, func(rep *sweep.Report) {
		fmt.Fprintln(c.out, "Fig. 13: batch-size sweep, ImageNet-1k, 128 Lassen GPUs")
		fmt.Fprintf(c.out, "%-20s %-14s %12s %12s %12s\n", "scenario", "loader", "median", "p95", "max")
		for _, s := range rep.Aggregate() {
			if s.Failed {
				continue
			}
			fmt.Fprintf(c.out, "%-20s %-14s %11.3fs %11.3fs %11.3fs\n",
				s.Scenario, rowLabel(s.Policy, s.Profile, s.Pattern),
				s.Metric(trainer.MetricBatchMedian).Mean,
				s.Metric(trainer.MetricBatchP95).Mean,
				s.Metric(trainer.MetricBatchMax).Mean)
		}
	})
}

// emitFig16 renders the end-to-end accuracy-vs-time comparison. Text mode
// prints replica-0 curves from the cell payloads; structured modes emit the
// grid report.
func (c trainRun) emitFig16(scale float64) error {
	// Fig. 16 is a single-point figure; honour -gpus the same way every
	// other figure does (prep errors on a non-matching filter) rather than
	// silently ignoring it, and carry the seed override and chaos profile
	// into the grid like every other figure.
	exp, err := c.prep(trainer.Fig16Experiment(scale))
	if err != nil {
		return err
	}
	grid := trainer.Fig16GridFrom(exp, c.engine.Replicas)
	if c.dryRun {
		return c.explain(grid, []trainer.Experiment{exp})
	}
	return c.emit(grid, func(rep *sweep.Report) {
		fmt.Fprintln(c.out, "Fig. 16: end-to-end ResNet-50/ImageNet-1k, 256 Lassen GPUs, 90 epochs")
		for _, cell := range rep.Cells {
			if cell.Replica != 0 {
				continue
			}
			r, ok := cell.Outcome.Payload.(trainer.EndToEndResult)
			if !ok || len(r.Curve) == 0 {
				fmt.Fprintf(c.out, "%-14s failed\n", rowLabel(cell.Policy, cell.Profile, cell.Pattern))
				continue
			}
			fmt.Fprintf(c.out, "%-14s total %.1f min, final top-1 %.1f%%\n",
				rowLabel(r.Loader, cell.Profile, cell.Pattern), r.TotalSeconds/60, r.FinalTop1)
			for _, pt := range r.Curve {
				if pt.Epoch%10 == 0 {
					fmt.Fprintf(c.out, "    epoch %2d  t=%8.1fs  top1=%.1f%%\n", pt.Epoch, pt.Seconds, pt.Top1Percent)
				}
			}
		}
	})
}
