package cli

import (
	"fmt"
	"io"

	"repro/internal/perfmodel"
	"repro/internal/plancache"
	isim "repro/internal/sim"
	"repro/internal/sweep"
)

// This file is the --dry-run explain path: it prints what a grid run is
// about to do — shape, clairvoyant placement — and, per scenario, the
// simulator's own NoPFS run on worker 0, without running the grid: one
// kernel per scenario and no sweep cell (sim.SimulateCount is the proof in
// the test suite). Each scenario reads a plan cache of its own, so the
// printed placement and the simulated run come from one artifact set.

// explainGridShape prints the grid's axes, cell count, and metric columns,
// as the grid resolves them.
func explainGridShape(w io.Writer, grid *sweep.Grid) {
	m := grid.Meta()
	fmt.Fprintf(w, "dry run: grid %q\n", m.Grid)
	// The patterns term appears only when the axis does, so pattern-less
	// dry runs stay byte-identical to the pre-pattern output.
	patterns := ""
	if len(m.Patterns) > 0 {
		patterns = fmt.Sprintf(" x %d patterns", len(m.Patterns))
	}
	fmt.Fprintf(w, "  axes: %d scenarios x %d policies x %d profiles%s x %d replicas = %d cells\n",
		len(grid.Scenarios), len(grid.Policies), grid.ProfileCount(), patterns, m.Replicas, m.Size)
	fmt.Fprintf(w, "  base seed: %d\n", m.BaseSeed)
	fmt.Fprint(w, "  metrics:")
	for _, metric := range m.Metrics {
		fmt.Fprintf(w, " %s", metric.Name)
	}
	fmt.Fprintln(w)
}

// explainGrid prints the grid's shape and every scenario's plan analysis.
func explainGrid(w io.Writer, grid *sweep.Grid) error {
	explainGridShape(w, grid)
	for _, spec := range grid.Scenarios {
		cfg, err := spec.Config(grid.BaseSeed)
		if err != nil {
			return fmt.Errorf("scenario %s: %w", spec.ID, err)
		}
		if err := explainConfig(w, spec.ID, spec.Label, cfg); err != nil {
			return fmt.Errorf("scenario %s: %w", spec.ID, err)
		}
	}
	return nil
}

// explainConfig prints one configuration's plan analysis: access-plan shape,
// per-tier clairvoyant placement, and the simulated NoPFS run's fetch mix,
// setup, stall and exec time for worker 0's stream — the numbers the NoPFS
// row of the real run prints. Both read the plan from one cache.
func explainConfig(w io.Writer, id, label string, cfg isim.Config) error {
	if label != "" {
		fmt.Fprintf(w, "\n== %s: %s ==\n", id, label)
	} else {
		fmt.Fprintf(w, "\n== %s ==\n", id)
	}
	plan := cfg.Plan()
	if err := plan.Validate(); err != nil {
		return err
	}
	cfg.Plans = plancache.New(0, 0)
	art := cfg.Plans.Artifacts(*plan)
	stream := art.Streams[0]
	perEpoch := plan.SamplesPerEpoch(0)
	totalMB := float64(cfg.DS.TotalSize()) / (1 << 20)
	fmt.Fprintf(w, "plan: F=%d samples, N=%d workers, E=%d epochs, batch/worker=%d, drop-last=%v, seed=%d\n",
		plan.F, plan.N, plan.E, plan.BatchPerWorker, plan.DropLast, plan.Seed)
	fmt.Fprintf(w, "      worker-0 stream: %d accesses (%d per epoch); dataset %.1f MB total, %.3f MB/sample mean\n",
		len(stream), perEpoch, totalMB, totalMB/float64(plan.F))

	// Clairvoyant NoPFS placement, cached here for printing only: the run
	// below builds an identical one and keeps only its tag stream, one more
	// Rank.Fill per scenario (`sim -all -dry-run` at the default scale:
	// ≈ 182 → ≈ 230 ms on a 2-core Xeon).
	node := cfg.Sys.Node
	assign := art.Placement(plancache.FamilyNoPFS, cfg.DS, node, 0, nil)
	fmt.Fprintln(w, "placement (NoPFS policy, worker 0):")
	cachedSamples := 0
	for c, class := range node.Classes {
		fill := assign.FillOrder[0][c]
		var bytes int64
		for _, k := range fill {
			bytes += cfg.DS.Size(int(k))
		}
		cachedSamples += len(fill)
		fillMB := float64(bytes) / (1 << 20)
		pct := 0.0
		if class.CapacityMB > 0 {
			pct = 100 * fillMB / class.CapacityMB
		}
		fmt.Fprintf(w, "      %-8s %8d samples, %10.1f / %.1f MB (%.1f%% full)\n",
			class.Name, len(fill), fillMB, class.CapacityMB, pct)
	}
	fmt.Fprintf(w, "      %-8s %8d samples\n", "uncached", plan.F-cachedSamples)

	// The simulator's NoPFS run of the same config: one kernel over worker
	// 0's stream, on the plan and an identical placement.
	res, err := isim.Run(cfg, isim.NewNoPFS())
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "simulated NoPFS run (worker 0):")
	if res.Failed {
		fmt.Fprintf(w, "      failed: %s\n", res.FailReason)
		return nil
	}
	var fetches int64
	for _, n := range res.LocCount {
		fetches += n
	}
	for _, loc := range []perfmodel.Location{perfmodel.LocPFS, perfmodel.LocRemote, perfmodel.LocLocal} {
		n := res.LocCount[loc]
		fmt.Fprintf(w, "      %-8s %6.1f%%  %8d fetches  %12.3fs\n", loc, 100*float64(n)/float64(fetches), n, res.LocSeconds[loc])
	}
	fmt.Fprintf(w, "      setup %.3fs, stall %.3fs, exec %.3fs\n", res.SetupSeconds, res.StallSeconds, res.ExecSeconds)
	return nil
}
