package sweep

import (
	"context"
	"fmt"
	"sync"
)

// Meta describes a grid execution to aggregators before any cell arrives:
// the report header fields plus the total cell count, so encoders can emit
// prologues and size progress without seeing the whole result set.
type Meta struct {
	Grid     string
	Replicas int
	BaseSeed uint64
	// Profiles names the fault-profile axis in column order; empty for
	// grids without one.
	Profiles []string
	// Patterns names the access-pattern axis in column order; empty for
	// grids without one.
	Patterns []string
	// Metrics is the grid's result schema, in column order.
	Metrics []Metric
	// Labels maps scenario IDs to their human captions.
	Labels map[string]string
	// Size is the total number of cells the run will deliver.
	Size int
}

// Aggregator consumes a grid execution incrementally. Begin is called once
// before any cell; Cell is called exactly once per grid cell, in the grid's
// deterministic enumeration order regardless of execution parallelism; End
// is called once after the last cell. None of the methods are called
// concurrently. When the run aborts (context cancellation or a cell error),
// End is not called: what an encoder has already written stays written, a
// truncated document behind the run's error.
//
// Aggregators exist so giant grids never need every Result in memory at
// once: the engine retains only the bounded in-flight window, and each
// aggregator decides what to keep (the encoders keep O(replicas) for the
// open summary group; the in-memory Report keeps everything).
type Aggregator interface {
	Begin(meta Meta) error
	Cell(c CellResult) error
	End() error
}

// meta builds the stream metadata for the grid.
func (g *Grid) meta() Meta {
	labels := map[string]string{}
	for _, s := range g.Scenarios {
		if s.Label != "" {
			labels[s.ID] = s.Label
		}
	}
	var profiles []string
	for _, p := range g.Profiles {
		profiles = append(profiles, p.Name)
	}
	var patterns []string
	for _, p := range g.Patterns {
		patterns = append(patterns, p.Name)
	}
	return Meta{
		Grid: g.Name, Replicas: g.replicas(), BaseSeed: g.BaseSeed,
		Profiles: profiles, Patterns: patterns, Metrics: g.metrics(),
		Labels: labels,
		Size:   g.Size(),
	}
}

// streamWindow bounds the number of admitted, undelivered cells — queued,
// running, or finished and waiting behind an earlier one: in-order delivery
// makes finished cells wait, and the window caps that buffering (and so
// resident Result memory) at a constant multiple of the pool width,
// independent of grid size. It is also how far past the delivery point
// cost-ordered dispatch can see, and that sets the multiple: on the cold
// Fig. 8 grid (60 cells, rows of 10, 2 workers) the one long cell is the 9th
// of the 4th row. At 4×workers = 8 it is admitted when its row's first cell
// is delivered and the grid takes 505–545 ms (in-order dispatch: 535–574);
// at 16×workers = 32, once the first row is delivered: 456–478 ms; with the
// whole grid admitted, 452–489 (docs/perf/pr24-cost-ordered-dispatch.md).
func streamWindow(workers int) int { return 16 * workers }

// queued is one admitted cell waiting for a worker.
type queued struct {
	i    int
	cost int64
}

// takeCostliest removes the cell a free worker runs next from the queue: the
// costliest, the lowest index among equals — so a grid of equal costs is
// dispatched in enumeration order. A scan, not a heap: the queue never holds
// more than the window.
func takeCostliest(q *[]queued) int {
	h, best := *q, 0
	for j := range h {
		if h[j].cost > h[best].cost || h[j].cost == h[best].cost && h[j].i < h[best].i {
			best = j
		}
	}
	i := h[best].i
	h[best] = h[len(h)-1]
	*q = h[:len(h)-1]
	return i
}

// RunStream executes every cell of the grid and feeds each aggregator the
// results in deterministic enumeration order. Cells are admitted into a
// bounded window in enumeration order; a free worker takes the admitted cell
// with the highest estimated cost (Grid.cellCost), so a long cell starts as
// soon as the window reaches it instead of last; completed cells are
// re-sequenced before delivery, so aggregators observe the same order at any
// parallelism and under any cost estimate, while the engine holds at most
// O(window) outcomes.
//
// The first error — a canceled context, a failing cell (lowest index wins,
// since delivery is ordered), or an aggregator error — stops the run.
// Aggregators' End is invoked only on full success.
func (r *Runner) RunStream(ctx context.Context, g *Grid, aggs ...Aggregator) error {
	if err := g.Validate(); err != nil {
		return err
	}
	cells := g.Cells()
	meta := g.meta()
	for _, a := range aggs {
		if err := a.Begin(meta); err != nil {
			return err
		}
	}

	// Derived context: the delivery loop cancels it on the first delivered
	// error so workers stop chewing through doomed cells.
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()

	w := r.workers(len(cells))
	window := streamWindow(w)

	type done struct {
		i   int
		out *Outcome
		err error
	}
	var (
		mu    sync.Mutex
		queue []queued
		// ready carries one token per queued cell and results one entry per
		// admitted, undelivered cell; both are sized to the window, so neither
		// admission nor a worker's send ever blocks.
		ready   = make(chan struct{}, window)
		results = make(chan done, window)
	)
	// Admission happens on this goroutine only: the first window of cells
	// before any worker starts, then one cell per delivery, so queued plus
	// running plus undelivered cells never exceed the window. A stopped run
	// admits nothing further.
	admitted := 0
	admit := func() {
		if admitted == len(cells) || cctx.Err() != nil {
			return
		}
		c := queued{i: admitted, cost: g.cellCost(cells[admitted])}
		admitted++
		mu.Lock()
		queue = append(queue, c)
		mu.Unlock()
		ready <- struct{}{}
	}
	for n := 0; n < window; n++ {
		admit()
	}

	var wg sync.WaitGroup
	defer wg.Wait()
	defer close(ready)
	for n := 0; n < w; n++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range ready {
				mu.Lock()
				i := takeCostliest(&queue)
				mu.Unlock()
				if err := cctx.Err(); err != nil {
					results <- done{i: i, err: err}
					continue
				}
				out, err := runCell(cctx, g, cells[i])
				results <- done{i: i, out: out, err: err}
			}
		}()
	}

	// In-order delivery: buffer out-of-order completions, release the
	// window slot only when the cell is handed to the aggregators. Every
	// admitted cell reports exactly once, run or not.
	pending := make(map[int]done, window)
	next := 0
	var firstErr error
	for next < admitted {
		d := <-results
		pending[d.i] = d
		for {
			d, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			next++
			if firstErr != nil {
				continue // draining after failure
			}
			if d.err != nil {
				firstErr = cellError(g, cells[d.i], d.err)
				cancel()
				continue
			}
			for _, a := range aggs {
				if err := a.Cell(CellResult{Cell: cells[d.i], Outcome: d.out}); err != nil {
					firstErr = err
					cancel()
					break
				}
			}
			admit()
		}
	}

	// Cancellation trumps per-cell failures: a torn-down grid reports the
	// context error, not whichever cell the teardown interrupted.
	if err := ctx.Err(); err != nil {
		return err
	}
	if firstErr != nil {
		return firstErr
	}
	for _, a := range aggs {
		if err := a.End(); err != nil {
			return err
		}
	}
	return nil
}

// cellError decorates a cell failure with its grid coordinates.
func cellError(g *Grid, c Cell, err error) error {
	label := c.Scenario + "/" + c.Policy
	if c.Profile != "" {
		label += "/" + c.Profile
	}
	if c.Pattern != "" {
		label += "/" + c.Pattern
	}
	return fmt.Errorf("sweep: grid %q cell %s replica %d: %w", g.Name, label, c.Replica, err)
}

// reportCollector is the in-memory Aggregator behind Run: it retains every
// cell as a Report.
type reportCollector struct {
	parallel int
	rep      *Report
}

func (c *reportCollector) Begin(m Meta) error {
	c.rep = &Report{
		Grid: m.Grid, Parallel: c.parallel, Replicas: m.Replicas,
		BaseSeed: m.BaseSeed, Profiles: m.Profiles, Patterns: m.Patterns,
		Metrics: m.Metrics,
		Labels:  m.Labels, Cells: make([]CellResult, 0, m.Size),
	}
	return nil
}

func (c *reportCollector) Cell(cr CellResult) error {
	c.rep.Cells = append(c.rep.Cells, cr)
	return nil
}

func (c *reportCollector) End() error { return nil }

// summaryStream folds an ordered cell stream into per-group summaries. The
// grid enumerates replicas innermost and Grid.Validate rejects duplicate axis
// labels, so each (scenario, policy, profile, pattern) group is one contiguous
// run: the streamer buffers only the open group — O(replicas) cells — and
// emits its Summary the moment the group closes.
type summaryStream struct {
	metrics                            []Metric
	scenario, policy, profile, pattern string
	open                               bool
	cells                              []CellResult
	emit                               func(Summary) error
}

func newSummaryStream(metrics []Metric, emit func(Summary) error) *summaryStream {
	return &summaryStream{metrics: metrics, emit: emit}
}

// add feeds the next cell, flushing the previous group if the key changed.
func (s *summaryStream) add(c CellResult) error {
	if s.open && (c.Scenario != s.scenario || c.Policy != s.policy ||
		c.Profile != s.profile || c.Pattern != s.pattern) {
		if err := s.flush(); err != nil {
			return err
		}
	}
	if !s.open {
		s.open = true
		s.scenario, s.policy, s.profile, s.pattern = c.Scenario, c.Policy, c.Profile, c.Pattern
	}
	s.cells = append(s.cells, c)
	return nil
}

// flush closes the open group, if any.
func (s *summaryStream) flush() error {
	if !s.open {
		return nil
	}
	sum := summarizeGroup(s.metrics, s.scenario, s.policy, s.profile, s.pattern, s.cells)
	s.open = false
	s.cells = s.cells[:0]
	return s.emit(sum)
}
