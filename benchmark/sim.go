package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"repro/internal/perfmodel"
	isim "repro/internal/sim"
	"repro/internal/sweep"
)

// gridRun is what one execution of a grid produced: its wall time, a digest
// of the JSON report, and one signature per cell so two runs can be compared
// cell by cell.
type gridRun struct {
	wall   time.Duration
	digest [sha256.Size]byte
	cells  []uint64
	// failedCells counts cells whose policy cannot run the scenario (a
	// legitimate simulated outcome, e.g. LBANN beyond aggregate RAM).
	failedCells int
	// fetches is the number of simulated sample fetches over all cells;
	// nopfsFetches and nopfsPFS restrict it to NoPFS cells.
	fetches, nopfsFetches, nopfsPFS int64
	// nopfsOverLB is the geometric mean over scenarios of NoPFS exec time
	// over LowerBound exec time (0 when the grid has no LowerBound column);
	// nopfsExec is the mean NoPFS exec time over its cells.
	nopfsOverLB, nopfsExec float64
}

// pfsFrac is the simulated share of NoPFS sample fetches served by the
// shared filesystem.
func (r gridRun) pfsFrac() float64 { return ratio(float64(r.nopfsPFS), float64(r.nopfsFetches)) }

// cellCollector is the aggregator that keeps what the harness checks and
// reports from each cell, and nothing else.
type cellCollector struct {
	metrics []sweep.Metric
	run     *gridRun
	nopfs   map[string]float64 // scenario -> NoPFS exec seconds
	lb      map[string]float64 // scenario -> LowerBound exec seconds
}

func (c *cellCollector) Begin(m sweep.Meta) error {
	c.metrics = m.Metrics
	c.nopfs, c.lb = map[string]float64{}, map[string]float64{}
	c.run.cells = make([]uint64, 0, m.Size)
	return nil
}

func (c *cellCollector) Cell(cr sweep.CellResult) error {
	// FNV-1a over the cell's identity and every scalar it reports.
	sig := uint64(1469598103934665603)
	mix := func(v uint64) {
		sig ^= v
		sig *= 1099511628211
	}
	mix(uint64(cr.Index))
	mix(cr.Seed)
	if cr.Outcome.Failed {
		mix(1)
		c.run.failedCells++
	}
	for _, m := range c.metrics {
		mix(math.Float64bits(cr.Outcome.Values[m.Name]))
	}
	c.run.cells = append(c.run.cells, sig)

	res, ok := cr.Outcome.Payload.(*isim.Result)
	if !ok || cr.Outcome.Failed {
		return nil
	}
	var n int64
	for _, cnt := range res.LocCount {
		n += cnt
	}
	c.run.fetches += n
	switch cr.Policy {
	case isim.NameNoPFS:
		c.run.nopfsFetches += n
		c.run.nopfsPFS += res.LocCount[perfmodel.LocPFS]
		c.nopfs[cr.Scenario] = res.ExecSeconds
	case isim.NameLowerBound:
		c.lb[cr.Scenario] = res.ExecSeconds
	}
	return nil
}

func (c *cellCollector) End() error {
	var logSum, execSum float64
	var pairs int
	for _, scenario := range sortedKeys(c.nopfs) {
		execSum += c.nopfs[scenario]
		if lb := c.lb[scenario]; lb > 0 {
			logSum += math.Log(c.nopfs[scenario] / lb)
			pairs++
		}
	}
	if pairs > 0 {
		c.run.nopfsOverLB = math.Exp(logSum / float64(pairs))
	}
	c.run.nopfsExec = ratio(execSum, float64(len(c.nopfs)))
	return nil
}

// runGrid executes the grid once through sweep.Runner.RunStream into the
// streaming JSON encoder. parallel 0 is the production default
// (GOMAXPROCS workers); wrap, when non-nil, decorates the encoder.
func runGrid(ctx context.Context, g *sweep.Grid, parallel int, wrap func(sweep.Aggregator) sweep.Aggregator) (gridRun, error) {
	var run gridRun
	out := sha256.New() // the report is digested, not kept
	enc := sweep.NewJSONAggregator(out)
	if wrap != nil {
		enc = wrap(enc)
	}
	start := time.Now()
	err := (&sweep.Runner{Parallel: parallel}).RunStream(ctx, g, enc, &cellCollector{run: &run})
	run.wall = time.Since(start)
	if err != nil {
		return run, err
	}
	copy(run.digest[:], out.Sum(nil))
	return run, nil
}

// differingCells counts the cells whose outcome differs between two runs of
// one grid. Equal digests mean equal reports; a digest mismatch that no
// cell signature explains still counts as one failure.
func differingCells(ref, got gridRun) int {
	if ref.digest == got.digest {
		return 0
	}
	n := 0
	for i := range ref.cells {
		if i >= len(got.cells) || ref.cells[i] != got.cells[i] {
			n++
		}
	}
	if len(got.cells) > len(ref.cells) {
		n += len(got.cells) - len(ref.cells)
	}
	if n == 0 {
		n = 1
	}
	return n
}

// checker accumulates a trial's operation counts and the first few
// correctness violations.
type checker struct {
	attempted, failed int64
	problems          []string
}

func (c *checker) fail(ops int64, format string, args ...any) {
	c.failed += ops
	if len(c.problems) < 8 {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

// verifyGrid is the sim correctness pass: the grid's JSON bytes from a
// serial run, the default-parallel run and a repeat of the same seed must
// be identical. first, when non-nil, is a run already made — the timed cold
// repetition — and stands in for the default-parallel run; the repeat is then
// the next trial's cold run, which the parent compares by digest.
func verifyGrid(ctx context.Context, g *sweep.Grid, first *gridRun, ck *checker) (gridRun, error) {
	serial, err := runGrid(ctx, g, 1, nil)
	if err != nil {
		return serial, fmt.Errorf("serial run: %w", err)
	}
	if first != nil {
		if n := differingCells(serial, *first); n > 0 {
			ck.fail(int64(n), "%s: %d cells differ between the serial and the cold parallel run", g.Name, n)
		}
		return serial, nil
	}
	for _, what := range []string{"the parallel run", "a repeat of the same seed"} {
		run, err := runGrid(ctx, g, 0, nil)
		if err != nil {
			return serial, fmt.Errorf("%s: %w", what, err)
		}
		if n := differingCells(serial, run); n > 0 {
			ck.fail(int64(n), "%s: %d cells differ between the serial run and %s", g.Name, n, what)
		}
	}
	return serial, nil
}

// simTrial is one child process's share of an untraced sim run. A cold
// trial times the very first grid of the process and verifies afterwards; a
// warm trial verifies first (which is also the warm-up) and then repeats
// the grid until the budget is spent.
func simTrial(ctx context.Context, w workload, seed uint64, quick bool, budget time.Duration) (trialReport, error) {
	var rep trialReport
	var ck checker
	g := w.grid(seed, quick)
	cells := int64(g.Size())

	record := func(run gridRun, ref *gridRun) {
		ck.attempted += cells
		if ref != nil {
			if n := differingCells(*ref, run); n > 0 {
				ck.fail(int64(n), "%s: %d cells differ from the reference in a timed repetition", g.Name, n)
			}
		}
		rep.RepWallS = append(rep.RepWallS, run.wall.Seconds())
		rep.RepOps = append(rep.RepOps, cells)
		rep.PFSFrac = append(rep.PFSFrac, run.pfsFrac())
	}

	if w.kind == simCold {
		cold, err := runGrid(ctx, g, 0, nil)
		if err != nil {
			return rep, err
		}
		record(cold, nil)
		rep.Digest = hex.EncodeToString(cold.digest[:])
		if _, err := verifyGrid(ctx, g, &cold, &ck); err != nil {
			return rep, err
		}
	} else {
		ref, err := verifyGrid(ctx, g, nil, &ck)
		if err != nil {
			return rep, err
		}
		for elapsed := time.Duration(0); len(rep.RepWallS) == 0 || elapsed < budget; {
			runtime.GC()
			run, err := runGrid(ctx, g, 0, nil)
			if err != nil {
				return rep, err
			}
			record(run, &ref)
			elapsed += run.wall
		}
	}
	rep.Attempted, rep.Failed, rep.Problems = ck.attempted, ck.failed, ck.problems
	return rep, nil
}

// sortedKeys returns m's keys in ascending order, so sums over a map repeat
// bit for bit.
func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
