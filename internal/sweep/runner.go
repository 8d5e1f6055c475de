package sweep

import (
	"context"
	"fmt"
	"runtime"
)

// Runner executes a Grid's cells on a bounded goroutine pool. The zero value
// runs with GOMAXPROCS workers; Parallel=1 is fully serial.
type Runner struct {
	// Parallel is the worker count; values below 1 mean GOMAXPROCS.
	Parallel int
}

// workers returns the effective pool width for a grid of n cells.
func (r *Runner) workers(n int) int {
	w := r.Parallel
	if w < 1 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// CellResult pairs a cell with its outcome. Outcome.Failed marks
// configurations that cannot run (a legitimate experimental result); an
// error from the cell func marks configuration or engine errors that abort
// the whole run.
type CellResult struct {
	Cell
	Outcome *Outcome `json:"outcome"`
}

// Report is the raw outcome of one grid execution, cells in enumeration
// order regardless of scheduling.
type Report struct {
	Grid string `json:"grid"`
	// Parallel records the pool width that produced the report. It is
	// excluded from encodings: serialised reports are a pure function of
	// the grid, bit-identical at any parallelism.
	Parallel int    `json:"-"`
	Replicas int    `json:"replicas"`
	BaseSeed uint64 `json:"baseSeed"`
	// Profiles names the grid's fault-profile axis, in column order; empty
	// (and omitted from encodings) for grids without one.
	Profiles []string `json:"profiles,omitempty"`
	// Patterns names the grid's access-pattern axis, in column order; empty
	// (and omitted from encodings) for grids without one.
	Patterns []string `json:"patterns,omitempty"`
	// Metrics is the grid's result schema, in column order.
	Metrics []Metric `json:"metrics"`
	// Labels maps scenario IDs to their human captions for text reports.
	Labels map[string]string `json:"labels,omitempty"`
	Cells  []CellResult      `json:"cells"`
}

// Run executes every cell of the grid and returns the Report. The report is
// a pure function of the grid (for deterministic cells): identical at any
// Parallel setting. Canceling ctx stops dispatching cells, propagates into
// running cells, and returns ctx's error.
//
// Run is the in-memory special case of RunStream: a collecting aggregator
// retains every cell, for presenters that need payloads or random access.
// Grids too large to hold their results should use RunStream with the
// encoders instead.
func (r *Runner) Run(ctx context.Context, g *Grid) (*Report, error) {
	col := &reportCollector{parallel: r.Parallel}
	if err := r.RunStream(ctx, g, col); err != nil {
		return nil, err
	}
	return col.rep, nil
}

// runCell resolves and executes one cell.
func runCell(ctx context.Context, g *Grid, c Cell) (*Outcome, error) {
	fn, err := g.cellFunc(c.ScenarioIdx, c.PolicyIdx, c.ProfileIdx, c.PatternIdx)
	if err != nil {
		return nil, err
	}
	out, err := fn(ctx, c.Seed)
	if err != nil {
		return nil, err
	}
	if out == nil {
		return nil, fmt.Errorf("cell returned neither outcome nor error")
	}
	return out, nil
}
