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

// streamWindow bounds the number of undelivered cells the engine may hold:
// in-order delivery means a slow early cell makes later finished cells wait,
// and the window caps that buffering (and therefore resident Result memory)
// at a small multiple of the pool width, independent of grid size.
func streamWindow(workers int) int { return 4 * workers }

// RunStream executes every cell of the grid and feeds each aggregator the
// results in deterministic enumeration order. Cells run on the bounded
// worker pool exactly as Run; completed cells are re-sequenced through a
// bounded window before delivery, so aggregators observe the same order at
// any parallelism while the engine holds at most O(window) outcomes.
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
	if window > len(cells) {
		window = len(cells)
	}

	type done struct {
		i   int
		out *Outcome
		err error
	}
	sem := make(chan struct{}, window)
	results := make(chan done, window)
	jobs := make(chan int)

	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if err := cctx.Err(); err != nil {
					results <- done{i: i, err: err}
					continue
				}
				out, err := runCell(cctx, g, cells[i])
				results <- done{i: i, out: out, err: err}
			}
		}()
	}
	go func() {
	dispatch:
		for i := range cells {
			// Admission into the window precedes dispatch, so in-flight
			// plus undelivered cells never exceed the window.
			select {
			case sem <- struct{}{}:
			case <-cctx.Done():
				break dispatch
			}
			select {
			case jobs <- i:
			case <-cctx.Done():
				<-sem
				break dispatch
			}
		}
		close(jobs)
		wg.Wait()
		close(results)
	}()

	// In-order delivery: buffer out-of-order completions, release the
	// window slot only when the cell is handed to the aggregators.
	pending := make(map[int]done, window)
	next := 0
	var firstErr error
	for d := range results {
		pending[d.i] = d
		for {
			d, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			<-sem
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
