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
	All      bool
	Sweep    bool
	Ablation bool
	Table1   bool
	ScaleFlags
	EngineFlags
	CommonFlags
}

// simFlags builds the sim command's flag set.
func simFlags(prog string) (*flag.FlagSet, *simOptions) {
	fs := flag.NewFlagSet(prog, flag.ContinueOnError)
	o := &simOptions{}
	fs.StringVar(&o.Scenario, "scenario", "", "Fig. 8 panel id (fig8a..fig8f) or dataset name")
	fs.BoolVar(&o.All, "all", false, "run every Fig. 8 panel")
	fs.BoolVar(&o.Sweep, "sweep", false, "run the Fig. 9 environment sweep")
	fs.BoolVar(&o.Ablation, "ablation", false, "run the NoPFS design ablation")
	fs.BoolVar(&o.Table1, "table1", false, "print the Table 1 framework comparison")
	o.ScaleFlags.Register(fs, 0.02, 42, seedHelp)
	o.EngineFlags.Register(fs)
	o.CommonFlags.Register(fs, true)
	return fs, o
}

// RunSim is the `nopfs sim` command: the Fig. 8 policy comparison across
// dataset/storage regimes, the Fig. 9 environment sweep, the NoPFS design
// ablation, and the Table 1 framework summary. All simulation modes execute
// through the concurrent sweep engine.
func RunSim(prog string, args []string, stdout, stderr io.Writer) int {
	fs, o := simFlags(prog)
	return execute(prog, fs, args, stderr, &o.Config, func(ctx context.Context) error {
		if err := o.CheckFormat(); err != nil {
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
		grid, err := simGrid(o, profiles, patterns)
		if err != nil {
			return err
		}
		if o.Table1 && !o.DryRun {
			printTable1(stdout)
			return nil
		}
		if o.DryRun {
			if grid == nil { // -table1: nothing to simulate, print the table
				printTable1(stdout)
				return nil
			}
			return explainGrid(stdout, grid)
		}
		// Profile collectors run for the whole invocation; error paths leave
		// truncated profiles — fine for a diagnostics flag.
		stopProf, err := o.Prof.Start()
		if err != nil {
			return err
		}
		// The Fig. 9 study's text mode is the RAM × SSD matrix; with a
		// fault-profile or access-pattern axis it is the generic table (the
		// matrix has one cell per scenario).
		var text func(*sweep.Report)
		if o.Sweep && len(profiles) == 0 && len(patterns) == 0 {
			text = func(rep *sweep.Report) { printFig9(stdout, rep) }
		}
		if err := o.Emit(ctx, stdout, grid, text); err != nil {
			return err
		}
		return stopProf()
	})
}

// simGrid selects the mode's grid (nil for -table1). Unknown scenarios and a
// missing mode are usage errors — exit 2 with usage.
func simGrid(o *simOptions, profiles []sweep.ProfileSpec, patterns []sweep.AccessSpec) (*sweep.Grid, error) {
	var grid *sweep.Grid
	switch {
	case o.Table1:
		return nil, nil
	case o.Sweep:
		grid = sweep.Fig9FullGrid(o.Scale, o.Seed, o.Replicas)
	case o.Ablation:
		grid = sweep.AblationGrid(o.Scale, o.Seed, o.Replicas)
	case o.All:
		grid = sweep.Fig8Grid(o.Scale, o.Seed, o.Replicas)
	case o.Scenario != "":
		s, err := isim.ScenarioByID(o.Scenario)
		if err != nil {
			return nil, usageError{err: err}
		}
		grid = sweep.ScenarioGrid(s, o.Scale, o.Seed, o.Replicas)
	default:
		return nil, usagef("no mode selected: use -scenario, -all, -sweep, -ablation, or -table1")
	}
	grid.Profiles = profiles
	grid.Patterns = patterns
	return grid, nil
}

// printFig9 renders the Fig. 9 study — environment grid plus staging
// preliminary, one engine run — as the RAM × SSD matrix, with means when the
// grid ran multiple seeds per cell.
func printFig9(w io.Writer, rep *sweep.Report) {
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
func printTable1(w io.Writer) {
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
