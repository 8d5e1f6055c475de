package cli

import (
	"fmt"
	"io"
	"math"

	"repro/internal/perfmodel"
	"repro/internal/plancache"
	isim "repro/internal/sim"
	"repro/internal/sweep"
)

// This file is the --dry-run explain path: it prints everything a grid run
// is *about to* do — shape, clairvoyant placement, predicted fetch mix and
// stall from the performance model — without executing a single simulation
// cell (sim.SimulateCount is the proof in the test suite). The plan
// artifacts it consults come from the same shared plancache the real run
// would use, so a dry run also warms the cache for a run that follows.

// explainGridShape prints the grid's axes, cell count, and metric columns.
func explainGridShape(w io.Writer, grid *sweep.Grid) {
	metrics := grid.Metrics
	if len(metrics) == 0 {
		metrics = sweep.SimMetrics()
	}
	fmt.Fprintf(w, "dry run: grid %q\n", grid.Name)
	replicas := grid.Replicas
	if replicas < 1 {
		replicas = 1
	}
	profiles := len(grid.Profiles)
	if profiles == 0 {
		profiles = 1
	}
	// The patterns term appears only when the axis does, so pattern-less
	// dry runs stay byte-identical to the pre-pattern output.
	patterns := ""
	if len(grid.Patterns) > 0 {
		patterns = fmt.Sprintf(" x %d patterns", len(grid.Patterns))
	}
	fmt.Fprintf(w, "  axes: %d scenarios x %d policies x %d profiles%s x %d replicas = %d cells\n",
		len(grid.Scenarios), len(grid.Policies), profiles, patterns, replicas, grid.Size())
	fmt.Fprintf(w, "  base seed: %d\n", grid.BaseSeed)
	fmt.Fprint(w, "  metrics:")
	for _, m := range metrics {
		fmt.Fprintf(w, " %s", m.Name)
	}
	fmt.Fprintln(w)
}

// explainGrid prints the grid's shape and, for every scenario that can
// materialise a simulator config, the per-scenario plan analysis.
func explainGrid(w io.Writer, grid *sweep.Grid) error {
	explainGridShape(w, grid)
	for _, spec := range grid.Scenarios {
		if spec.Config == nil {
			fmt.Fprintf(w, "\n== %s ==\n  (no simulator config; labels a custom cell binding)\n", spec.ID)
			continue
		}
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
// per-tier clairvoyant placement, and the performance model's predicted
// fetch mix and stall for worker 0's stream.
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
	art := plancache.Shared().Artifacts(*plan)
	stream := art.Streams[0]
	perEpoch := plan.SamplesPerEpoch(0)
	totalMB := float64(cfg.DS.TotalSize()) / (1 << 20)
	fmt.Fprintf(w, "plan: F=%d samples, N=%d workers, E=%d epochs, batch/worker=%d, drop-last=%v, seed=%d\n",
		plan.F, plan.N, plan.E, plan.BatchPerWorker, plan.DropLast, plan.Seed)
	fmt.Fprintf(w, "      worker-0 stream: %d accesses (%d per epoch); dataset %.1f MB total, %.3f MB/sample mean\n",
		len(stream), perEpoch, totalMB, totalMB/float64(plan.F))

	// Clairvoyant NoPFS placement, via the shared plan cache (the identical
	// artifacts a real run would consume).
	node := cfg.Sys.Node
	assign := art.Placement(plancache.FamilyNoPFS, cfg.DS, node, true)
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

	// Predicted fetch mix over worker 0's stream: local if this worker
	// caches the sample, else remote if any peer's placement holds it, else
	// the PFS. Two passes: the first counts PFS clients so the shared-PFS
	// curve is evaluated at the contention the mix itself predicts.
	model, err := perfmodel.New(cfg.Sys, cfg.Work)
	if err != nil {
		return err
	}
	srcOf := func(k int32) (source int, class int) {
		if c := assign.Local(0, k); c >= 0 {
			return 2, c // local
		}
		if c, _ := assign.RemoteBest(0, k); c >= 0 {
			return 1, c // remote
		}
		return 0, -1 // pfs
	}
	var nPFS, nRemote, nLocal int
	for _, k := range stream {
		switch src, _ := srcOf(k); src {
		case 0:
			nPFS++
		case 1:
			nRemote++
		case 2:
			nLocal++
		}
	}
	pfsFrac := float64(nPFS) / float64(len(stream))
	clients := int(math.Round(float64(plan.N) * pfsFrac))
	if clients < 1 {
		clients = 1
	}
	var secPFS, secRemote, secLocal float64
	sizesMB := make([]float64, 0, len(stream))
	for _, k := range stream {
		szMB := float64(cfg.DS.Size(int(k))) / (1 << 20)
		sizesMB = append(sizesMB, szMB)
		switch src, class := srcOf(k); src {
		case 0:
			secPFS += model.FetchPFS(szMB, clients)
		case 1:
			secRemote += model.FetchRemote(szMB, class)
		case 2:
			secLocal += model.FetchLocal(szMB, class)
		}
	}
	total := float64(len(stream))
	fmt.Fprintf(w, "predicted fetch mix (worker 0, %d clients on the PFS):\n", clients)
	fmt.Fprintf(w, "      %-8s %6.1f%%  %8d fetches  %10.1fs fetch time\n", "pfs", 100*float64(nPFS)/total, nPFS, secPFS)
	fmt.Fprintf(w, "      %-8s %6.1f%%  %8d fetches  %10.1fs fetch time\n", "remote", 100*float64(nRemote)/total, nRemote, secRemote)
	fmt.Fprintf(w, "      %-8s %6.1f%%  %8d fetches  %10.1fs fetch time\n", "local", 100*float64(nLocal)/total, nLocal, secLocal)

	// Predicted stall: fetch work spread over the p0 staging prefetcher
	// threads, against the compute lower bound. An explanatory estimate —
	// the simulator models per-thread scheduling, availability positions,
	// and jitter exactly; this predicts the same quantities from closed
	// forms without running it.
	compute := model.LowerBound(sizesMB)
	p0 := node.Staging.Threads
	if p0 < 1 {
		p0 = 1
	}
	fetchTotal := secPFS + secRemote + secLocal
	stall := fetchTotal/float64(p0) - compute
	if stall < 0 {
		stall = 0
	}
	fmt.Fprintf(w, "predicted time: compute lower bound %.1fs; fetch %.1fs over p0=%d threads -> stall ~%.1fs, exec >= %.1fs\n",
		compute, fetchTotal, p0, stall, compute+stall)
	return nil
}
