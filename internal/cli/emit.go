package cli

import (
	"context"
	"io"

	"repro/internal/sweep"
)

// Emit runs the grid on a -parallel wide pool and writes it to w in -format.
// The generic report of every format streams through the format's encoder as
// cells finish, so only a bounded window of results is ever resident and a
// grid that fails mid-run leaves a truncated report behind its error. A
// figure with a bespoke text table passes it as text: under -format text the
// grid is collected first and handed to text instead.
func (f *EngineFlags) Emit(ctx context.Context, w io.Writer, grid *sweep.Grid, text func(*sweep.Report)) error {
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
	text(rep)
	return nil
}
