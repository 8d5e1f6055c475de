// Package repro_test checks the reproduction against "Clairvoyant
// Prefetching for Distributed Machine Learning I/O" (SC 2021) as a whole:
// the paper-claims ledger (TestPaperClaims), smoke runs of every command
// and example, and the scale-stress benchmarks.
package repro_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/access"
	"repro/internal/perfmodel"
	isim "repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/sweep"
)

// The paper-claims ledger. Every ratio this reproduction asserts about the
// paper is one row of claims: an expression over one run of each experiment, a bound, and a
// status. TestPaperClaims checks every row and renders the table into
// EXPERIMENTS.md ("Paper claims").
//
// A row's bound is either a paper number the repository quotes or a bound
// an earlier shape test asserted; a ratio nobody can source is *unsourced*
// and asserts only the direction the paper states.

// Status says where a row's bound comes from.
type status string

const (
	// reproduced: the paper states the number or direction, and no knob
	// was tuned to hit it.
	reproduced status = "reproduced"
	// calibrated: the paper states it, and a knob listed under
	// EXPERIMENTS.md "Calibrated parameters" was set so the model meets it.
	calibrated status = "calibrated"
	// modelOnly: a property of this model the paper does not state.
	modelOnly status = "model-output-only"
	// unsourced: nobody can source a bound; only the direction is asserted.
	unsourced status = "unsourced"
)

// bound is the interval a row's value must fall in.
type bound struct {
	op     string // ">=", "<=", ">", "<", "=", "in"
	lo, hi float64
}

func atLeast(x float64) bound     { return bound{op: ">=", lo: x} }
func atMost(x float64) bound      { return bound{op: "<=", hi: x} }
func above(x float64) bound       { return bound{op: ">", lo: x} }
func below(x float64) bound       { return bound{op: "<", hi: x} }
func equal(x float64) bound       { return bound{op: "=", lo: x, hi: x} }
func within(lo, hi float64) bound { return bound{op: "in", lo: lo, hi: hi} }

// holds reports whether v is inside the bound; NaN (a failed or missing
// run) is inside none.
func (b bound) holds(v float64) bool {
	switch b.op {
	case ">=":
		return v >= b.lo
	case "<=":
		return v <= b.hi
	case ">":
		return v > b.lo
	case "<":
		return v < b.hi
	case "=":
		return v == b.lo
	default:
		return v >= b.lo && v <= b.hi
	}
}

func (b bound) String() string {
	switch b.op {
	case ">=":
		return fmt.Sprintf("≥ %g", b.lo)
	case "<=":
		return fmt.Sprintf("≤ %g", b.hi)
	case ">":
		return fmt.Sprintf("> %g", b.lo)
	case "<":
		return fmt.Sprintf("< %g", b.hi)
	case "=":
		return fmt.Sprintf("= %g", b.lo)
	default:
		return fmt.Sprintf("[%g, %g]", b.lo, b.hi)
	}
}

// claim is one row of the ledger.
type claim struct {
	id     string
	figure string // paper section or figure
	value  func(o *outcomes) float64
	bound  bound
	status status
}

// check evaluates the row against o and returns "" when it holds, else a
// one-line report.
func (c claim) check(o *outcomes) string {
	if v := c.value(o); !c.bound.holds(v) {
		return fmt.Sprintf("%s (%s): value %.4g outside %s [%s]", c.id, c.figure, v, c.bound, c.status)
	}
	return ""
}

// cellKey names one sweep cell: grid row ID and policy (or loader) column.
// Row IDs are unique across every grid the ledger runs.
type cellKey struct{ row, col string }

// outcomes is what the rows read: one run of each experiment.
type outcomes struct {
	cells map[cellKey]*sweep.Outcome
	// regime is each Fig. 8 panel's dataset-vs-storage regime (see
	// regime), NaN when paper scale and simScale disagree.
	regime map[string]float64
	fig3   access.HeavyHitterReport
	lemma1 int // Lemma 1 violations over lemma1Seeds × lemma1Deltas
}

// Scales and seeds of the experiments, as the figures' former shape tests
// ran them: simulator panels at 0.005, the Fig. 9 study at 0.002, the
// Sec. 7 figures at 0.1.
const (
	simScale  = 0.005
	fig9Scale = 0.002
	sec7Scale = 0.1
)

var (
	lemma1Seeds  = []uint64{1, 2, 3, 99}
	lemma1Deltas = []float64{0.25, 0.5, 1.0}
)

// paperRuns runs every experiment once per test binary.
var paperRuns = sync.OnceValues(runPaperExperiments)

func runPaperExperiments() (*outcomes, error) {
	// Columns no row reads are left out; a cell's seed depends only on its
	// grid's base seed, so the rest are the figures' own cells.
	pytorchNoPFS := []sweep.PolicySpec{sweep.PyTorch, sweep.NoPFS}
	pd, la := sweep.Fig10PizDaint(), sweep.Fig10Lassen()
	pd.GPUCounts = []int{32, 128, 256}
	la.GPUCounts = pd.GPUCounts
	la.Loaders = []sweep.PolicySpec{sweep.PyTorch, sweep.LBANN, sweep.NoPFS}
	f14, f15 := sweep.Fig14Lassen(), sweep.Fig15Lassen()
	f14.GPUCounts, f14.Loaders = []int{64, 256}, pytorchNoPFS
	f15.GPUCounts, f15.Loaders = f14.GPUCounts, pytorchNoPFS
	f13, f16 := sweep.Fig13BatchSweep(), sweep.Fig16EndToEnd()
	f13.Loaders, f16.Loaders = pytorchNoPFS, pytorchNoPFS
	grids := []*sweep.Grid{
		sweep.Fig8Grid(simScale, 42, 1),
		sweep.Fig9FullGrid(fig9Scale, 11, 1),
		sweep.AblationGrid(simScale, 42, 1),
	}
	for _, s := range []sweep.Study{f13, f16, pd, la, f14, f15} {
		grids = append(grids, s.Grid(sec7Scale, 1))
	}
	// The grids run side by side, so one grid's serial stretches (a shared
	// dataset table, a last long cell) overlap another's cells.
	reps := make([]*sweep.Report, len(grids))
	errs := make([]error, len(grids))
	var wg sync.WaitGroup
	for i, g := range grids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reps[i], errs[i] = new(sweep.Runner).Run(context.Background(), g)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	o := &outcomes{cells: map[cellKey]*sweep.Outcome{}, regime: map[string]float64{}}
	for _, rep := range reps {
		for _, c := range rep.Cells {
			o.cells[cellKey{c.Scenario, c.Policy}] = c.Outcome
		}
	}
	for _, s := range isim.Fig8Scenarios() {
		r := regime(s, 1)
		if r != regime(s, simScale) {
			r = math.NaN()
		}
		o.regime[s.ID] = r
	}
	// Fig. 3, scaled down: N=16, E=90 and the paper's δ = 0.8.
	fig3 := &access.Plan{Seed: 1234, F: 100000, N: 16, E: 90, BatchPerWorker: 4, DropLast: true}
	o.fig3 = access.HeavyHitters(fig3, fig3.WorkerFrequencies(0), 0.8)
	for _, seed := range lemma1Seeds {
		p := &access.Plan{Seed: seed, F: 512, N: 4, E: 16, BatchPerWorker: 4}
		freqs := p.Frequencies()
		for _, delta := range lemma1Deltas {
			o.lemma1 += access.Lemma1Violations(freqs, p.E, delta)
		}
	}
	return o, nil
}

// regime numbers a scenario's dataset-vs-storage regime: 0 for S < d₁,
// 1 for d₁ < S < D, 2 for D < S < ND, 3 for ND < S; NaN on a boundary.
func regime(s isim.Scenario, scale float64) float64 {
	spec, sys := s.Spec, s.System
	if scale != 1 {
		spec, sys = spec.Scale(scale), isim.ScaleSystem(sys, scale)
	}
	S := float64(spec.TotalSizeEstimate()) / (1 << 20)
	D := sys.Node.TotalLocalMB()
	n := 0
	for _, edge := range []float64{sys.Node.Classes[0].CapacityMB, D, float64(s.Workload.Workers) * D} {
		switch {
		case S == edge:
			return math.NaN()
		case S > edge:
			n++
		}
	}
	return float64(n)
}

// sim is a simulator cell's result (Fig. 8, Fig. 9, ablation); a zero
// Result marked Failed when the cell is missing.
func (o *outcomes) sim(row, pol string) *isim.Result {
	if c := o.cells[cellKey{row, pol}]; c != nil {
		if r, ok := c.Payload.(*isim.Result); ok {
			return r
		}
	}
	return &isim.Result{Failed: true}
}

// exec is a simulator cell's execution seconds, NaN if it failed.
func (o *outcomes) exec(row, pol string) float64 {
	if r := o.sim(row, pol); !r.Failed {
		return r.ExecSeconds
	}
	return math.NaN()
}

// metric is one of a Sec. 7 cell's metrics (sweep.Metric*); NaN (so
// every ratio over it is NaN) when the cell failed or is missing.
func (o *outcomes) metric(row, loader, name string) float64 {
	if c := o.cells[cellKey{row, loader}]; c != nil && !c.Failed {
		return c.Values[name]
	}
	return math.NaN()
}

// batches summarises a Sec. 7 cell's batch times: epoch 0's and the steady
// state's. Every epoch of the ledger's uniform drop-last plans runs the same
// number of batches. Both are zero (so every ratio over them is NaN) when
// the cell failed or is missing.
func (o *outcomes) batches(row, loader string) (epoch0, steady stats.Summary) {
	r := o.sim(row, loader)
	if r.Failed || len(r.EpochSeconds) == 0 {
		return
	}
	n := len(r.BatchSeconds) / len(r.EpochSeconds)
	return stats.Summarize(r.BatchSeconds[:n]), stats.Summarize(r.BatchSeconds[n:])
}

// e2e is one loader's Fig. 16 run.
func (o *outcomes) e2e(loader string) sweep.EndToEndResult {
	return sweep.EndToEnd(loader, o.sim("fig16-g256", loader))
}

// ran lists the simulator policies that ran on a grid row, except those
// named.
func (o *outcomes) ran(row string, except ...string) []string {
	var out []string
	for k := range o.cells {
		if k.row == row && !slices.Contains(except, k.col) && !o.sim(row, k.col).Failed {
			out = append(out, k.col)
		}
	}
	return out
}

// ratio is a/b over positive quantities; NaN otherwise, so a failed or
// missing run fails its row whichever way the bound points.
func ratio(a, b float64) float64 {
	if !(a > 0 && b > 0) || math.IsInf(a, 0) || math.IsInf(b, 0) {
		return math.NaN()
	}
	return a / b
}

// extreme folds f over xs with pick (math.Min or math.Max); NaN if xs is
// empty or any value is NaN.
func extreme[T any](xs []T, pick func(a, b float64) float64, f func(T) float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	v := f(xs[0])
	for _, x := range xs[1:] {
		v = pick(v, f(x))
	}
	return v
}

// Loader names, as the Sec. 7 grids label their columns.
var (
	pytorch = sweep.PyTorch.Name
	dali    = sweep.DALI.Name
	lbann   = sweep.LBANN.Name
	nopfsL  = sweep.NoPFS.Name
	noIO    = sweep.NoIO.Name
)

// fig8Rows are the rows every panel has: its regime, NoPFS against the
// lower bound, and the worst other policy that runs against NoPFS.
func fig8Rows(panel string, reg float64, nopfsLB bound, nopfsLBStatus status, worstNoPFS bound) []claim {
	fig := "Fig. " + strings.TrimPrefix(panel, "fig")
	return []claim{
		{panel + "-regime", fig, func(o *outcomes) float64 { return o.regime[panel] }, equal(reg), reproduced},
		{panel + "-nopfs-lb", fig, lbRatio(panel, isim.NameNoPFS), nopfsLB, nopfsLBStatus},
		{panel + "-worst-nopfs", fig, func(o *outcomes) float64 {
			others := o.ran(panel, isim.NameNoPFS, isim.NameLowerBound)
			worst := extreme(others, math.Max, func(p string) float64 { return o.exec(panel, p) })
			return ratio(worst, o.exec(panel, isim.NameNoPFS))
		}, worstNoPFS, unsourced},
	}
}

// lbRatio is one policy's execution time over the panel's lower bound.
func lbRatio(panel, pol string) func(*outcomes) float64 {
	return func(o *outcomes) float64 { return ratio(o.exec(panel, pol), o.exec(panel, isim.NameLowerBound)) }
}

// coverage is one policy's dataset coverage on a panel.
func coverage(panel, pol string) func(*outcomes) float64 {
	return func(o *outcomes) float64 {
		if r := o.sim(panel, pol); !r.Failed {
			return r.Coverage
		}
		return math.NaN()
	}
}

// nopfsLead is the fastest of pols over NoPFS on a panel.
func nopfsLead(panel string, pols ...string) func(*outcomes) float64 {
	return func(o *outcomes) float64 {
		nopfs := o.exec(panel, isim.NameNoPFS)
		return extreme(pols, math.Min, func(p string) float64 { return ratio(o.exec(panel, p), nopfs) })
	}
}

// failures counts how many of pols cannot run a panel.
func failures(panel string, pols ...string) func(*outcomes) float64 {
	return func(o *outcomes) float64 {
		n := 0
		for _, p := range pols {
			if o.sim(panel, p).Failed {
				n++
			}
		}
		return float64(n)
	}
}

// epochRatio is loader a's median epoch over loader b's on one Sec. 7 row.
func epochRatio(row, a, b string) func(*outcomes) float64 {
	return func(o *outcomes) float64 {
		return ratio(o.metric(row, a, sweep.MetricMedianEpoch), o.metric(row, b, sweep.MetricMedianEpoch))
	}
}

// relTail is a Sec. 7 cell's slowest batch over its median batch (after
// epoch 0).
func relTail(o *outcomes, row, loader string) float64 {
	return ratio(o.metric(row, loader, sweep.MetricBatchMax), o.metric(row, loader, sweep.MetricBatchMedian))
}

// share is the fraction of NoPFS's fetches on one Sec. 7 row served from
// the locations whose fraction metrics (sweep.Metric*Frac) are named.
func share(o *outcomes, row string, fracs ...string) float64 {
	var f float64
	for _, m := range fracs {
		f += o.metric(row, nopfsL, m)
	}
	return f
}

// fig9Exec is one Fig. 9 configuration's execution seconds.
func fig9Exec(o *outcomes, ram, ssd int) float64 {
	return o.exec(sweep.Fig9CellID(ram, ssd), isim.NameNoPFS)
}

// fig9Steepest is the largest exec(next)/exec(prev) one step along one
// Fig. 9 axis: > 1 means growing that resource slowed a run.
func fig9Steepest(alongRAM bool) func(*outcomes) float64 {
	return func(o *outcomes) float64 {
		rams, ssds := sweep.Fig9Axes()
		worst := math.Inf(-1)
		for i, ram := range rams {
			for j, ssd := range ssds {
				prevRAM, prevSSD := ram, ssd
				switch {
				case alongRAM && i > 0:
					prevRAM = rams[i-1]
				case !alongRAM && j > 0:
					prevSSD = ssds[j-1]
				default:
					continue
				}
				worst = math.Max(worst, ratio(fig9Exec(o, ram, ssd), fig9Exec(o, prevRAM, prevSSD)))
			}
		}
		return worst
	}
}

// fig13Medians is one loader's median batch time across the Fig. 13 batch
// sizes, in sweep order.
func fig13Medians(o *outcomes, loader string) []float64 {
	var out []float64
	for _, sc := range sweep.Fig13BatchSweep().Scenarios {
		out = append(out, o.metric(sc.ID+"-g128", loader, sweep.MetricBatchMedian))
	}
	return out
}

// ablation is one NoPFS variant's execution time over full NoPFS's on the
// ablation grid.
func ablation(variant isim.NoPFSVariant) func(*outcomes) float64 {
	return func(o *outcomes) float64 {
		return ratio(o.exec("fig8d-5x", variant.Name()), o.exec("fig8d-5x", isim.NoPFSVariant{}.Name()))
	}
}

// claims is the ledger, in paper order.
var claims = func() []claim {
	var rows []claim
	add := func(cs ...claim) { rows = append(rows, cs...) }

	add(claim{"fig3-threshold", "Fig. 3", func(o *outcomes) float64 { return float64(o.fig3.Threshold) }, equal(10), reproduced},
		claim{"fig3-measured-analytic", "Fig. 3", func(o *outcomes) float64 {
			return ratio(float64(o.fig3.Measured), o.fig3.Analytic)
		}, within(0.85, 1.15), reproduced},
		claim{"lemma1-violations", "Lemma 1", func(o *outcomes) float64 { return float64(o.lemma1) }, equal(0), reproduced})

	// Fig. 8: the six simulator panels. The policy gaps rest on the
	// calibrated PFS random-read derating.
	add(fig8Rows("fig8a", 0, atMost(1.35), calibrated, atLeast(1))...)
	add(claim{"fig8a-others-lb", "Fig. 8a", func(o *outcomes) float64 {
		return extreme(o.ran("fig8a", isim.NameNaive), math.Max, func(p string) float64 { return lbRatio("fig8a", p)(o) })
	}, atMost(1.35), calibrated},
		claim{"fig8a-naive-lb", "Fig. 8a", lbRatio("fig8a", isim.NameNaive), atLeast(1.3), calibrated})

	add(fig8Rows("fig8b", 1, atMost(1.10), calibrated, atLeast(1))...)
	add(claim{"fig8b-naive-lb", "Fig. 8b", lbRatio("fig8b", isim.NameNaive), atLeast(1.4), calibrated},
		claim{"fig8b-staging-lb", "Fig. 8b", lbRatio("fig8b", isim.NameStagingBuffer), atLeast(1.1), calibrated},
		claim{"fig8b-nopfs-best", "Fig. 8b", func(o *outcomes) float64 {
			return nopfsLead("fig8b", o.ran("fig8b", isim.NameLowerBound, isim.NameNoPFS)...)(o)
		}, atLeast(1), calibrated},
		claim{"fig8b-min-coverage", "Fig. 8b", func(o *outcomes) float64 {
			return extreme(o.ran("fig8b"), math.Min, func(p string) float64 { return coverage("fig8b", p)(o) })
		}, atLeast(0.999), reproduced},
		claim{"fig8b-naive-extra-stall-s", "Fig. 8b", func(o *outcomes) float64 {
			return o.sim("fig8b", isim.NameNaive).StallSeconds - o.sim("fig8b", isim.NameNoPFS).StallSeconds
		}, above(0), reproduced},
		claim{"fig8b-naive-pfs-share", "Fig. 8b", func(o *outcomes) float64 {
			n := o.sim("fig8b", isim.NameNaive).LocCount
			return ratio(float64(n[perfmodel.LocPFS]), float64(n[perfmodel.LocPFS]+n[perfmodel.LocRemote]+n[perfmodel.LocLocal]))
		}, equal(1), modelOnly})

	add(fig8Rows("fig8c", 1, atLeast(1), unsourced, atLeast(1))...)

	add(fig8Rows("fig8d", 2, atMost(1.15), calibrated, atLeast(1))...)
	add(claim{"fig8d-lbann-failures", "Fig. 8d", failures("fig8d", isim.NameLBANNDynamic, isim.NameLBANNPreload), equal(2), reproduced},
		claim{"fig8d-deepio-opp-coverage", "Fig. 8d", coverage("fig8d", isim.NameDeepIOOpp), atMost(0.9), reproduced},
		claim{"fig8d-nopfs-coverage", "Fig. 8d", coverage("fig8d", isim.NameNoPFS), atLeast(0.999), reproduced},
		claim{"fig8d-nopfs-best", "Fig. 8d", nopfsLead("fig8d", isim.NameNaive, isim.NameStagingBuffer, isim.NameDeepIOOrdered, isim.NameLocalityAware), atLeast(1), calibrated})

	add(fig8Rows("fig8e", 3, atLeast(1), unsourced, atLeast(1))...)
	add(claim{"fig8e-parallelstaging-coverage", "Fig. 8e", coverage("fig8e", isim.NameParallelStaging), atMost(0.99), reproduced},
		claim{"fig8e-deepio-opp-coverage", "Fig. 8e", coverage("fig8e", isim.NameDeepIOOpp), atMost(0.5), reproduced},
		claim{"fig8e-nopfs-coverage", "Fig. 8e", coverage("fig8e", isim.NameNoPFS), atLeast(0.999), reproduced},
		claim{"fig8e-lbann-failures", "Fig. 8e", failures("fig8e", isim.NameLBANNDynamic), equal(1), reproduced},
		claim{"fig8e-nopfs-best", "Fig. 8e", nopfsLead("fig8e", isim.NameNaive, isim.NameStagingBuffer, isim.NameDeepIOOrdered), atLeast(1), calibrated})

	// One epoch leaves nothing to reuse: NoPFS only adds prefetch
	// contention, and every policy that runs beats it. The paper's
	// direction fails here, so it is printed, not asserted (EXPERIMENTS.md
	// "Paper claims").
	add(fig8Rows("fig8f", 3, atLeast(1), unsourced, above(0))...)

	// Fig. 9: NoPFS across RAM × SSD, ImageNet-22k under 5× compute.
	add(claim{"fig9-ram-steepest", "Fig. 9", fig9Steepest(true), atMost(1.001), reproduced},
		claim{"fig9-ssd-steepest", "Fig. 9", fig9Steepest(false), atMost(1.001), reproduced},
		claim{"fig9-ssd-at-32gb-ram", "Fig. 9", func(o *outcomes) float64 {
			return ratio(fig9Exec(o, 32, 1024), fig9Exec(o, 32, 0))
		}, below(1), reproduced},
		claim{"fig9-staging-spread", "Fig. 9", func(o *outcomes) float64 {
			base := o.exec(sweep.Fig9StagingID(1), isim.NameNoPFS)
			return extreme(sweep.Fig9StagingSizes(), math.Max, func(gb int) float64 {
				return math.Abs(ratio(o.exec(sweep.Fig9StagingID(gb), isim.NameNoPFS), base) - 1)
			})
		}, atMost(0.02), reproduced},
		claim{"fig9-worst-best", "Fig. 9", func(o *outcomes) float64 {
			rams, ssds := sweep.Fig9Axes()
			var exec []float64
			for _, ram := range rams {
				for _, ssd := range ssds {
					exec = append(exec, fig9Exec(o, ram, ssd))
				}
			}
			id := func(v float64) float64 { return v }
			return ratio(extreme(exec, math.Max, id), extreme(exec, math.Min, id))
		}, atLeast(1), unsourced})

	// Figs. 10-12: ResNet-50 / ImageNet-1k scaling on Piz Daint and Lassen.
	const pd32, pd128, pd256 = "fig10-pizdaint-g32", "fig10-pizdaint-g128", "fig10-pizdaint-g256"
	const la256 = "fig10-lassen-g256"
	add(claim{"fig10-pizdaint-pytorch-nopfs-256", "Fig. 10", epochRatio(pd256, pytorch, nopfsL), within(1.6, 3.5), reproduced},
		claim{"fig10-pizdaint-dali-nopfs-256", "Fig. 10", epochRatio(pd256, dali, nopfsL), atLeast(1.4), reproduced},
		claim{"fig10-pizdaint-dali-pytorch-256", "Fig. 10", epochRatio(pd256, dali, pytorch), atMost(1.01), reproduced},
		claim{"fig10-pizdaint-nopfs-noio-256", "Fig. 10", epochRatio(pd256, nopfsL, noIO), atMost(1.35), reproduced},
		claim{"fig10-pizdaint-pytorch-nopfs-32", "Fig. 10", epochRatio(pd32, pytorch, nopfsL), atMost(1.5), reproduced},
		claim{"fig10-pizdaint-gap-32-over-256", "Fig. 10", func(o *outcomes) float64 {
			return ratio(epochRatio(pd32, pytorch, nopfsL)(o), epochRatio(pd256, pytorch, nopfsL)(o))
		}, atMost(1), reproduced},
		claim{"fig10-lassen-pytorch-nopfs-256", "Fig. 10", epochRatio(la256, pytorch, nopfsL), atLeast(1.5), reproduced},
		claim{"fig10-lassen-nopfs-lbann-256", "Fig. 10", epochRatio(la256, nopfsL, lbann), atMost(1.001), reproduced},
		claim{"fig10-lassen-lbann-pytorch-256", "Fig. 10", epochRatio(la256, lbann, pytorch), atMost(1.001), reproduced},
		claim{"fig11-tail-pytorch-over-nopfs-128", "Fig. 11", func(o *outcomes) float64 {
			return ratio(relTail(o, pd128, pytorch), relTail(o, pd128, nopfsL))
		}, atLeast(2), reproduced},
		claim{"fig11-nopfs-p99-median-128", "Fig. 11", func(o *outcomes) float64 {
			_, steady := o.batches(pd128, nopfsL)
			return ratio(steady.P99, steady.Median)
		}, atMost(3), reproduced},
		claim{"fig11-nopfs-epoch0-steady-128", "Fig. 11", func(o *outcomes) float64 {
			epoch0, steady := o.batches(pd128, nopfsL)
			return ratio(epoch0.Mean, steady.Mean)
		}, atLeast(1), reproduced},
		claim{"fig12-pizdaint-remote-growth", "Fig. 12", func(o *outcomes) float64 {
			return share(o, pd256, sweep.MetricRemoteFrac) - share(o, pd32, sweep.MetricRemoteFrac)
		}, above(0), reproduced},
		claim{"fig12-pizdaint-min-cached", "Fig. 12", func(o *outcomes) float64 {
			cached := []string{sweep.MetricLocalFrac, sweep.MetricRemoteFrac}
			return math.Min(share(o, pd32, cached...), share(o, pd256, cached...))
		}, atLeast(0.5), reproduced},
		claim{"fig12-lassen-local-256", "Fig. 12", func(o *outcomes) float64 { return share(o, la256, sweep.MetricLocalFrac) }, above(0), unsourced},
		claim{"fig12-lassen-remote-256", "Fig. 12", func(o *outcomes) float64 { return share(o, la256, sweep.MetricRemoteFrac) }, above(0), unsourced},
		claim{"fig12-lassen-pfs-256", "Fig. 12", func(o *outcomes) float64 { return share(o, la256, sweep.MetricPFSFrac) }, below(1), unsourced})

	// Fig. 13: per-GPU batch sizes 32-120 on 128 Lassen GPUs.
	add(claim{"fig13-nopfs-over-pytorch-max", "Fig. 13", func(o *outcomes) float64 {
		n, p := fig13Medians(o, nopfsL), fig13Medians(o, pytorch)
		worst := math.Inf(-1)
		for i := range n {
			worst = math.Max(worst, ratio(n[i], p[i]))
		}
		return worst
	}, atMost(1.001), reproduced},
		claim{"fig13-batch-time-growth-min", "Fig. 13", func(o *outcomes) float64 {
			least := math.Inf(1)
			for _, l := range []string{nopfsL, pytorch} {
				m := fig13Medians(o, l)
				for i := 1; i < len(m); i++ {
					least = math.Min(least, ratio(m[i], m[i-1]))
				}
			}
			return least
		}, above(1), modelOnly},
		claim{"fig13-pytorch-nopfs-batch-mean", "Fig. 13", func(o *outcomes) float64 {
			n, p := fig13Medians(o, nopfsL), fig13Medians(o, pytorch)
			r := make([]float64, len(n))
			for i := range n {
				r[i] = ratio(p[i], n[i])
			}
			return stats.Mean(r)
		}, atLeast(1), unsourced})

	// Figs. 14-15: ImageNet-22k and CosmoFlow on Lassen.
	add(claim{"fig14-nopfs-pytorch-64", "Fig. 14", epochRatio("fig14-imagenet22k-g64", nopfsL, pytorch), atMost(1.001), reproduced},
		claim{"fig14-pytorch-nopfs-256", "Fig. 14", epochRatio("fig14-imagenet22k-g256", pytorch, nopfsL), atLeast(1), unsourced},
		claim{"fig15-nopfs-pytorch-64", "Fig. 15", epochRatio("fig15-cosmoflow-g64", nopfsL, pytorch), atMost(1.001), reproduced},
		claim{"fig15-pytorch-nopfs-256", "Fig. 15", epochRatio("fig15-cosmoflow-g256", pytorch, nopfsL), atLeast(1), unsourced})

	// Fig. 16: 90 epochs to equal accuracy on 256 Lassen GPUs.
	add(claim{"fig16-end-to-end-speedup", "Fig. 16", func(o *outcomes) float64 {
		return ratio(o.e2e(pytorch).TotalSeconds, o.e2e(nopfsL).TotalSeconds)
	}, atLeast(1.1), reproduced},
		claim{"fig16-final-top1", "Fig. 16", func(o *outcomes) float64 { return o.e2e(nopfsL).FinalTop1 }, within(76.3, 76.7), calibrated},
		claim{"fig16-curve-epochs", "Fig. 16", func(o *outcomes) float64 {
			return float64(min(len(o.e2e(nopfsL).Curve), len(o.e2e(pytorch).Curve)))
		}, equal(90), modelOnly},
		claim{"fig16-accuracy-mismatches", "Fig. 16", func(o *outcomes) float64 {
			n, p := o.e2e(nopfsL).Curve, o.e2e(pytorch).Curve
			if len(n) != len(p) {
				return math.NaN()
			}
			bad := 0
			for e := range n {
				if n[e].Top1Percent != p[e].Top1Percent {
					bad++
				}
			}
			return float64(bad)
		}, equal(0), modelOnly},
		claim{"fig16-min-epoch-s", "Fig. 16", func(o *outcomes) float64 {
			c := o.e2e(nopfsL).Curve
			least := math.NaN()
			for e := 1; e < len(c); e++ {
				if d := c[e].Seconds - c[e-1].Seconds; !(d >= least) {
					least = d
				}
			}
			return least
		}, above(0), modelOnly})

	// Ablation: each NoPFS design choice switched off on the Fig. 8d regime
	// under 5× compute.
	for _, v := range []isim.NoPFSVariant{{RandomPlacement: true}, {NoRemote: true}, {TinyStaging: true}} {
		add(claim{"ablation-" + strings.TrimPrefix(v.Name(), "NoPFS-"), "ablation", ablation(v), atLeast(1), unsourced})
	}
	return rows
}()

// ledgerBegin and ledgerEnd delimit the generated table in EXPERIMENTS.md.
const (
	ledgerBegin = "<!-- paper claims: generated by TestPaperClaims, do not edit -->\n"
	ledgerEnd   = "<!-- end of paper claims -->\n"
)

// renderLedger is the EXPERIMENTS.md table of every row's value.
func renderLedger(o *outcomes) string {
	var b strings.Builder
	b.WriteString(ledgerBegin)
	b.WriteString("| id | figure | value | bound | status |\n|---|---|---|---|---|\n")
	for _, c := range claims {
		fmt.Fprintf(&b, "| `%s` | %s | %.3g | %s | %s |\n", c.id, c.figure, c.value(o), c.bound, c.status)
	}
	b.WriteString(ledgerEnd)
	return b.String()
}

func TestPaperClaims(t *testing.T) {
	t.Parallel()
	o, err := paperRuns()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range claims {
		t.Run(c.id, func(t *testing.T) {
			if msg := c.check(o); msg != "" {
				t.Error(msg)
			}
		})
	}
	doc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	want := renderLedger(o)
	if !strings.Contains(string(doc), want) {
		t.Errorf("EXPERIMENTS.md \"Paper claims\" section is stale; replace the block between its markers with:\n%s", want)
	}
}

// TestPaperClaimsReportViolations feeds the row checker a synthetic outcome
// that breaks one sourced bound (Fig. 16's 1.1× floor) and one unsourced
// direction (an ablation that speeds NoPFS up): both must be reported.
func TestPaperClaimsReportViolations(t *testing.T) {
	full, noRemote := isim.NoPFSVariant{}.Name(), isim.NoPFSVariant{NoRemote: true}.Name()
	o := &outcomes{cells: map[cellKey]*sweep.Outcome{
		{"fig16-g256", pytorch}: {Payload: &isim.Result{EpochSeconds: []float64{105}}},
		{"fig16-g256", nopfsL}:  {Payload: &isim.Result{EpochSeconds: []float64{100}}},
		{"fig8d-5x", full}:      {Payload: &isim.Result{ExecSeconds: 10}},
		{"fig8d-5x", noRemote}:  {Payload: &isim.Result{ExecSeconds: 9}},
	}}
	byID := map[string]claim{}
	for _, c := range claims {
		byID[c.id] = c
	}
	for _, id := range []string{"fig16-end-to-end-speedup", "ablation-noremote"} {
		c, ok := byID[id]
		if !ok {
			t.Fatalf("no row %q", id)
		}
		if msg := c.check(o); msg == "" {
			t.Errorf("row %s passed a synthetic violation", id)
		}
	}
}
