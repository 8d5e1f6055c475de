package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"slices"

	"repro/internal/sweep"
)

// This file is the table of the paper's evaluation artifacts — Table 1,
// Figs. 8-9 and the ablation from the simulator (Sec. 6), Figs. 10-16 from
// the real systems (Sec. 7) — and the one body that prints them for both
// `nopfs sim` and `nopfs train`.

// panel is one printed unit of an artifact: a grid, and the text table it
// prints under -format text (nil means the generic report, under title when
// title is set). A panel without a grid is a static table: text prints it,
// also under -dry-run, and only -format text takes it.
type panel struct {
	title string
	grid  *sweep.Grid
	text  func(io.Writer, *sweep.Report)
}

// artifact is one row of the table. It is spelled `sim -<flag>` (help is the
// flag's usage) or, without a flag, `train -fig <fig>`.
type artifact struct {
	id, flag, help string
	fig            int
	panels         func(q *query) []panel
}

// artifacts is the table. When several sim selectors are set, the first row
// wins.
var artifacts = []artifact{
	{id: "table1", flag: "table1", help: "print the Table 1 framework comparison",
		panels: func(*query) []panel { return []panel{{text: printTable1}} }},
	{id: "fig9", flag: "sweep", help: "run the Fig. 9 environment sweep",
		panels: func(q *query) []panel {
			return []panel{{grid: sweep.Fig9FullGrid(q.scale, q.seed, q.replicas), text: printFig9}}
		}},
	{id: "ablation", flag: "ablation", help: "run the NoPFS design ablation",
		panels: func(q *query) []panel { return []panel{{grid: sweep.AblationGrid(q.scale, q.seed, q.replicas)}} }},
	{id: "fig8", flag: "all", help: "run every Fig. 8 panel",
		panels: func(q *query) []panel { return []panel{{grid: sweep.Fig8Grid(q.scale, q.seed, q.replicas)}} }},
	{id: "fig10", fig: 10, panels: func(q *query) []panel {
		return []panel{
			{title: "Fig. 10 (left): ResNet-50/ImageNet-1k on Piz Daint", grid: q.grid(sweep.Fig10PizDaint())},
			{title: "Fig. 10 (right): ResNet-50/ImageNet-1k on Lassen", grid: q.grid(sweep.Fig10Lassen())},
		}
	}},
	{id: "fig11", fig: 11, panels: func(q *query) []panel {
		return []panel{{grid: q.grid(sweep.Fig10PizDaint()), text: batchTable("Fig. 11: epoch-0 batch times on Piz Daint",
			24, sweep.MetricBatch0Med, sweep.MetricBatch0P95, sweep.MetricBatch0Max)}}
	}},
	{id: "fig12", fig: 12, panels: func(q *query) []panel {
		return []panel{{grid: q.grid(sweep.Fig10PizDaint()), text: printFig12}}
	}},
	{id: "fig13", fig: 13, panels: func(q *query) []panel {
		return []panel{{grid: q.grid(sweep.Fig13BatchSweep()), text: batchTable("Fig. 13: batch-size sweep, ImageNet-1k, 128 Lassen GPUs",
			20, sweep.MetricBatchMedian, sweep.MetricBatchP95, sweep.MetricBatchMax)}}
	}},
	{id: "fig14", fig: 14, panels: func(q *query) []panel {
		return []panel{{title: "Fig. 14: ResNet-50/ImageNet-22k on Lassen", grid: q.grid(sweep.Fig14Lassen())}}
	}},
	{id: "fig15", fig: 15, panels: func(q *query) []panel {
		return []panel{{title: "Fig. 15: CosmoFlow on Lassen", grid: q.grid(sweep.Fig15Lassen())}}
	}},
	{id: "fig16", fig: 16, panels: func(q *query) []panel {
		return []panel{{grid: q.grid(sweep.Fig16EndToEnd()), text: printFig16}}
	}},
}

// query is what a row plans its panels from: the command's scale, seed and
// replica count, and train's -gpus filter. err keeps the first planning
// error, so a row builds all its grids without checking each one.
type query struct {
	scale    float64
	seed     uint64
	replicas int
	gpus     []int
	err      error
}

// grid plans study as one grid at the command's scale, after train's -seed
// preset override and -gpus filter. A filter that matches none of the
// study's GPU counts is a usage error, not a silent full-axis run; the study
// keeps its axis, so the row still plans.
func (q *query) grid(s sweep.Study) *sweep.Grid {
	if q.seed != 0 {
		s.Seed = q.seed
	}
	if len(q.gpus) > 0 {
		counts := slices.DeleteFunc(slices.Clone(s.GPUCounts), func(g int) bool { return !slices.Contains(q.gpus, g) })
		if len(counts) == 0 {
			q.fail(usagef("-gpus %v matches none of %s's GPU counts %v", q.gpus, s.Name, s.GPUCounts))
		} else {
			s.GPUCounts = counts
		}
	}
	return s.Grid(q.scale, q.replicas)
}

// fail records err unless an earlier error is recorded.
func (q *query) fail(err error) {
	if q.err == nil {
		q.err = err
	}
}

// paperFlags is the flag set sim and train share.
type paperFlags struct {
	ScaleFlags
	EngineFlags
	CommonFlags
}

// register adds the groups with the command's -scale and -seed defaults.
func (f *paperFlags) register(fs *flag.FlagSet, scale float64, seed uint64, seedUsage string) {
	f.ScaleFlags.Register(fs, scale, seed, seedUsage)
	f.EngineFlags.Register(fs)
	f.CommonFlags.Register(fs, true)
}

// emitPanels is the body of sim and train. It validates -format, -gpus,
// -chaos and -access in that order, lets choose look the panels up, rejects
// the flags a static panel would ignore (a non-text -format, a -chaos or
// -access axis, -replicas other than 1), and prints the panels: the plan
// analysis under -dry-run, otherwise each grid run through the engine in
// -format, with the fault-profile and access-pattern axes attached.
func emitPanels(ctx context.Context, w io.Writer, f *paperFlags, gpus string,
	choose func(q *query) ([]panel, error)) error {
	if f.Format != "text" && f.Format != "json" && f.Format != "csv" {
		return usagef("unknown -format %q (want text, json, or csv)", f.Format)
	}
	keep, err := parseGPUs(gpus)
	if err != nil {
		return err
	}
	// A malformed -chaos or -access spec is a usage error; without the flag
	// its axis is nil.
	profiles, err := sweep.ChaosAxis(f.Chaos)
	if err != nil {
		return usageError{err: err}
	}
	patterns, err := sweep.AccessAxis(f.Access)
	if err != nil {
		return usageError{err: err}
	}
	q := &query{scale: f.Scale, seed: f.Seed, replicas: f.Replicas, gpus: keep}
	panels, err := choose(q)
	q.fail(err)
	if q.err != nil {
		return q.err
	}
	for _, p := range panels {
		switch {
		case p.grid != nil: // a grid takes every engine flag
		case f.Format != "text":
			return usagef("-format %s: a static table prints text only", f.Format)
		case len(profiles) > 0 || len(patterns) > 0 || f.Replicas != 1:
			return usagef("-chaos, -access and -replicas apply to grids, not to a static table")
		}
	}
	// Profile collectors run for the whole invocation; error paths leave
	// truncated profiles — fine for a diagnostics flag.
	stopProf := func() error { return nil }
	if !f.DryRun {
		if stopProf, err = f.Prof.Start(); err != nil {
			return err
		}
	}
	for _, p := range panels {
		if p.grid == nil {
			p.text(w, nil)
			continue
		}
		p.grid.Profiles, p.grid.Patterns = profiles, patterns
		if f.DryRun {
			err = explainGrid(w, p.grid)
		} else {
			if p.title != "" && f.Format == "text" {
				fmt.Fprintln(w, p.title)
			}
			err = f.Emit(ctx, w, p.grid, p.text)
		}
		if err != nil {
			return err
		}
	}
	return stopProf()
}

// Emit runs the grid on a -parallel wide pool and writes it to w in -format.
// The generic report of every format streams through the format's encoder as
// cells finish, so only a bounded window of results is ever resident and a
// grid that fails mid-run leaves a truncated report behind its error. A
// figure with a bespoke text table passes it as text: under -format text the
// grid is collected first and handed to text instead.
func (f *EngineFlags) Emit(ctx context.Context, w io.Writer, grid *sweep.Grid, text func(io.Writer, *sweep.Report)) error {
	runner := &sweep.Runner{Parallel: f.Parallel}
	switch {
	case f.Format == "json":
		return runner.RunStream(ctx, grid, sweep.NewJSONAggregator(w))
	case f.Format == "csv":
		return runner.RunStream(ctx, grid, sweep.NewCSVAggregator(w))
	case text == nil:
		return runner.RunStream(ctx, grid, sweep.NewTextAggregator(w))
	}
	rep, err := runner.Run(ctx, grid)
	if err != nil {
		return err
	}
	text(w, rep)
	return nil
}
