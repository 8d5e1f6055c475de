package cli

import (
	"context"
	"flag"
	"fmt"
	"io"

	isim "repro/internal/sim"
	"repro/internal/sweep"
)

// simOptions holds the sim command's parsed flags.
type simOptions struct {
	Scenario string
	// selected holds the selector flags (-all, -sweep, ...) by artifact id.
	selected map[string]*bool
	paperFlags
}

// simFlags builds the sim command's flag set.
func simFlags(prog string) (*flag.FlagSet, *simOptions) {
	fs := flag.NewFlagSet(prog, flag.ContinueOnError)
	o := &simOptions{selected: map[string]*bool{}}
	fs.StringVar(&o.Scenario, "scenario", "", "Fig. 8 panel id (fig8a..fig8f) or dataset name")
	for _, a := range artifacts {
		if a.flag != "" {
			o.selected[a.id] = fs.Bool(a.flag, false, a.help)
		}
	}
	o.register(fs, 0.02, 42, seedHelp)
	return fs, o
}

// RunSim is the `nopfs sim` command: the Fig. 8 policy comparison across
// dataset/storage regimes, the Fig. 9 environment sweep, the NoPFS design
// ablation, and the Table 1 framework summary. All simulation modes execute
// through the concurrent sweep engine.
func RunSim(prog string, args []string, stdout, stderr io.Writer) int {
	fs, o := simFlags(prog)
	return execute(prog, fs, args, stderr, &o.Config, func(ctx context.Context) error {
		return emitPanels(ctx, stdout, &o.paperFlags, "", o.panels)
	})
}

// panels looks up the artifact of the first selector set, or else the
// -scenario panel.
func (o *simOptions) panels(q *query) ([]panel, error) {
	for _, a := range artifacts {
		if a.flag != "" && *o.selected[a.id] {
			return a.panels(q), nil
		}
	}
	if o.Scenario == "" {
		return nil, usagef("no mode selected: use -scenario, -all, -sweep, -ablation, or -table1")
	}
	s, err := isim.ScenarioByID(o.Scenario)
	if err != nil {
		return nil, usageError{err: err}
	}
	return []panel{{grid: sweep.ScenarioGrid(s, q.scale, q.seed, q.replicas)}}, nil
}

// printFig9 renders the Fig. 9 study — environment grid plus staging
// preliminary, one engine run — as the RAM × SSD matrix, with means when the
// grid ran multiple seeds per cell. With a fault-profile or access-pattern
// axis it is the generic table: the matrix has one cell per scenario.
func printFig9(w io.Writer, rep *sweep.Report) {
	if len(rep.Profiles) > 0 || len(rep.Patterns) > 0 {
		_ = sweep.WriteText(w, rep) // a failed stdout write is not the run's error, as for every table's Fprintf
		return
	}
	title := "Fig. 9: ImageNet-22k, NoPFS, 5x compute, 5 GB staging buffer"
	if rep.Replicas > 1 {
		title += fmt.Sprintf(" (mean of %d seeds)", rep.Replicas)
	}
	fmt.Fprintln(w, title)
	sweep.PrintFig9Matrix(w, rep)
	byID := map[string]sweep.Summary{}
	for _, s := range rep.Aggregate() {
		byID[s.Scenario] = s
	}
	fmt.Fprintln(w, "\nstaging-buffer preliminary (runtime vs staging GB, RAM=32, no SSD):")
	for _, gb := range sweep.Fig9StagingSizes() {
		fmt.Fprintf(w, "  %d GB: %.1fs\n", gb, byID[sweep.Fig9StagingID(gb)].Metric(sweep.MetricExec).Mean)
	}
}

// printTable1 reproduces Table 1: the qualitative capabilities of each
// approach.
func printTable1(w io.Writer, _ *sweep.Report) {
	type row struct {
		name                                         string
		sysScale, dataScale, fullRand, hwIndep, easy bool
	}
	rows := []row{
		{"Double-buffering (PyTorch)", false, true, true, false, true},
		{"tf.data", false, true, false, false, true},
		{"Data sharding", true, false, false, false, true},
		{"DeepIO", true, false, false, false, true},
		{"LBANN data store", true, false, true, false, false},
		{"Locality-aware loading", true, true, true, false, false},
		{"NoPFS (this work)", true, true, true, true, true},
	}
	mark := func(b bool) string {
		if b {
			return "yes"
		}
		return "no"
	}
	fmt.Fprintf(w, "%-28s %10s %10s %10s %10s %8s\n",
		"approach", "sys-scale", "data-scale", "full-rand", "hw-indep", "easy")
	for _, r := range rows {
		fmt.Fprintf(w, "%-28s %10s %10s %10s %10s %8s\n",
			r.name, mark(r.sysScale), mark(r.dataScale), mark(r.fullRand), mark(r.hwIndep), mark(r.easy))
	}
}
