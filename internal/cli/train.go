package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"strconv"
	"strings"

	isim "repro/internal/sim"
	"repro/internal/sweep"
)

// trainOptions holds the train command's parsed flags.
type trainOptions struct {
	Fig  int
	GPUs string
	paperFlags
}

// trainFlags builds the train command's flag set; -scale and -seed keep their
// figure-preset defaults.
func trainFlags(prog string) (*flag.FlagSet, *trainOptions) {
	fs := flag.NewFlagSet(prog, flag.ContinueOnError)
	o := &trainOptions{}
	fs.IntVar(&o.Fig, "fig", 10, "figure to reproduce: 10, 11, 12, 13, 14, 15, or 16")
	fs.StringVar(&o.GPUs, "gpus", "", "comma-separated GPU counts to keep (default: the figure's full axis)")
	o.register(fs, 0.1, 0, seedHelpPre)
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
		return emitPanels(ctx, stdout, &o.paperFlags, o.GPUs, o.panels)
	})
}

// panels looks up the artifact of -fig.
func (o *trainOptions) panels(q *query) ([]panel, error) {
	for _, a := range artifacts {
		if a.flag == "" && a.fig == o.Fig {
			return a.panels(q), nil
		}
	}
	return nil, usagef("unknown -fig %d: want 10, 11, 12, 13, 14, 15, or 16", o.Fig)
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

// batchTable is the Fig. 11 and Fig. 13 text table: per row and loader, the
// median, p95 and max batch time, read from the metrics named med, p95 and
// hi; width is the scenario column's.
func batchTable(title string, width int, med, p95, hi string) func(io.Writer, *sweep.Report) {
	return func(w io.Writer, rep *sweep.Report) {
		fmt.Fprintln(w, title)
		fmt.Fprintf(w, "%-*s %-14s %12s %12s %12s\n", width, "scenario", "loader", "median", "p95", "max")
		for _, s := range rep.Aggregate() {
			if s.Failed {
				continue
			}
			fmt.Fprintf(w, "%-*s %-14s %11.3fs %11.3fs %11.3fs\n", width,
				s.Scenario, sweep.RowLabel(s.Policy, s.Profile, s.Pattern),
				s.Metric(med).Mean, s.Metric(p95).Mean, s.Metric(hi).Mean)
		}
	}
}

// printFig12 renders NoPFS's stall time and fetch-location mix per scale
// from the Fig. 10 Piz Daint grid.
func printFig12(w io.Writer, rep *sweep.Report) {
	fmt.Fprintln(w, "Fig. 12: NoPFS cache stats on Piz Daint (ImageNet-1k)")
	fmt.Fprintf(w, "%-24s %12s %8s %8s %8s\n", "scenario", "stall", "pfs%", "remote%", "local%")
	for _, s := range rep.Aggregate() {
		if s.Policy != "NoPFS" || s.Failed {
			continue
		}
		fmt.Fprintf(w, "%-24s %11.2fs %7.1f%% %7.1f%% %7.1f%%\n",
			sweep.RowLabel(s.Scenario, s.Profile, s.Pattern),
			s.Metric(sweep.MetricStall).Mean,
			100*s.Metric(sweep.MetricPFSFrac).Mean,
			100*s.Metric(sweep.MetricRemoteFrac).Mean,
			100*s.Metric(sweep.MetricLocalFrac).Mean)
	}
}

// printFig16 renders the end-to-end accuracy-vs-time comparison: replica-0
// curves, rebuilt from the cells' simulator results.
func printFig16(w io.Writer, rep *sweep.Report) {
	fmt.Fprintln(w, "Fig. 16: end-to-end ResNet-50/ImageNet-1k, 256 Lassen GPUs, 90 epochs")
	for _, cell := range rep.Cells {
		if cell.Replica != 0 {
			continue
		}
		var r sweep.EndToEndResult
		if res, ok := cell.Outcome.Payload.(*isim.Result); ok {
			r = sweep.EndToEnd(cell.Policy, res)
		}
		if len(r.Curve) == 0 {
			fmt.Fprintf(w, "%-14s failed\n", sweep.RowLabel(cell.Policy, cell.Profile, cell.Pattern))
			continue
		}
		fmt.Fprintf(w, "%-14s total %.1f min, final top-1 %.1f%%\n",
			sweep.RowLabel(r.Loader, cell.Profile, cell.Pattern), r.TotalSeconds/60, r.FinalTop1)
		for _, pt := range r.Curve {
			if pt.Epoch%10 == 0 {
				fmt.Fprintf(w, "    epoch %2d  t=%8.1fs  top1=%.1f%%\n", pt.Epoch, pt.Seconds, pt.Top1Percent)
			}
		}
	}
}
