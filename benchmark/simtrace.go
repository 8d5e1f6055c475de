package main

import (
	"context"
	"time"

	"repro/internal/access"
	"repro/internal/cachepolicy"
	"repro/internal/plancache"
	isim "repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/sweep"
)

const mib = 1 << 20

// coldMark, in a span's Occ field, flags a plancache.artifacts span that
// missed or a cachepolicy.build span that really built: the layer's cold cost.
const coldMark = 1

// simTrace is the state of one traced grid.
type simTrace struct {
	tr   *tracer
	grid uint32 // id of the sweep.grid span, the parent of cells and encodes
	// builtBytes and builtSamples describe the placements built during the
	// grid: their size, and the plan entries (samples x epochs) they sorted.
	builtBytes, builtSamples int64
}

// placement returns the plan-cache family and the lean builder the named
// policy's Prepare will ask for, mirroring internal/sim's Env.Assign*
// helpers, or "" for a policy that needs no placement on this config.
func placement(policy string, cfg *isim.Config, plan *access.Plan, art *plancache.Artifacts) (string, func() *cachepolicy.Assignment) {
	ds, node := cfg.DS, cfg.Sys.Node
	firstTouch := func() *cachepolicy.Assignment {
		return cachepolicy.BuildFirstTouchLean(plan, art.EpochOrders[0], ds, node)
	}
	shard := func() *cachepolicy.Assignment { return cachepolicy.BuildShardLean(plan.F, plan.N, ds, node) }
	// LBANN refuses a dataset beyond aggregate RAM before it asks for a
	// placement.
	lbannFits := len(node.Classes) > 0 &&
		ds.TotalSize() <= int64(node.Classes[0].CapacityMB*mib)*int64(plan.N)
	switch policy {
	case isim.NameNoPFS:
		return plancache.FamilyNoPFS, func() *cachepolicy.Assignment {
			return cachepolicy.BuildNoPFSLean(plan, art.Streams, ds, node)
		}
	case isim.NameDeepIOOrdered, isim.NameDeepIOOpp:
		return plancache.FamilyFirstTouch, firstTouch
	case isim.NameParallelStaging, isim.NameLocalityAware:
		return plancache.FamilyShard, shard
	case isim.NameLBANNDynamic:
		if lbannFits {
			return plancache.FamilyFirstTouch, firstTouch
		}
	case isim.NameLBANNPreload:
		if lbannFits {
			return plancache.FamilyPreload, func() *cachepolicy.Assignment {
				return cachepolicy.BuildPreloadLean(plan.F, plan.N, ds, node)
			}
		}
	}
	return "", nil
}

// cell replays the default simulator cell step by step under spans: the
// scenario's config, the plan artifacts, the placement the policy will ask
// for (through the same plan-cache key, so the policy finds it built), then
// the simulation itself with artifacts and placement already warm.
func (st *simTrace) cell(g *sweep.Grid, si, pi int) sweep.CellFunc {
	tr := st.tr
	key := int32(si*len(g.Policies) + pi)
	return func(ctx context.Context, seed uint64) (*sweep.Outcome, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		cid, cstart := tr.begin()
		defer func() { tr.end(0, span{ID: cid, Parent: st.grid, Name: spanCell, Start: cstart, Rank: -1, Key: key}) }()
		child := func(name string, id uint32, start int64, occ int32) {
			tr.end(0, span{ID: id, Parent: cid, Name: name, Start: start, Rank: -1, Key: key, Occ: occ})
		}

		id, start := tr.begin()
		cfg, err := g.Scenarios[si].Config(seed)
		child(spanConfig, id, start, 0)
		if err != nil {
			return nil, err
		}

		plan := cfg.Plan()
		misses := plancache.Shared().Stats().Misses
		id, start = tr.begin()
		art := plancache.Shared().Artifacts(*plan)
		occ := int32(0)
		if plancache.Shared().Stats().Misses > misses {
			occ = coldMark
		}
		child(spanArtifacts, id, start, occ)

		if family, build := placement(g.Policies[pi].Name, &cfg, plan, art); build != nil {
			occ = 0
			id, start = tr.begin()
			a := art.AssignmentLean(family, cfg.DS, cfg.Sys.Node, func() *cachepolicy.Assignment {
				occ = coldMark
				return build()
			})
			child(spanBuild, id, start, occ)
			if occ == coldMark {
				st.builtBytes += a.ApproxBytes()
				st.builtSamples += int64(plan.F) * int64(plan.E)
			}
		}

		pol := g.Policies[pi].New()
		id, start = tr.begin()
		r, err := isim.Run(cfg, pol)
		child(spanSimRun, id, start, 0)
		if err != nil {
			return nil, err
		}
		return sweep.SimOutcome(r), nil
	}
}

// timedAggregator records the time spent inside the encoder.
type timedAggregator struct {
	inner sweep.Aggregator
	st    *simTrace
}

func (a *timedAggregator) timed(key int32, fn func() error) error {
	id, start := a.st.tr.begin()
	err := fn()
	a.st.tr.end(1, span{ID: id, Parent: a.st.grid, Name: spanEncode, Start: start, Rank: -1, Key: key})
	return err
}

func (a *timedAggregator) Begin(m sweep.Meta) error {
	return a.timed(-1, func() error { return a.inner.Begin(m) })
}

func (a *timedAggregator) Cell(c sweep.CellResult) error {
	return a.timed(int32(c.Index), func() error { return a.inner.Cell(c) })
}

func (a *timedAggregator) End() error {
	return a.timed(-1, func() error { return a.inner.End() })
}

// tracedGrid runs the grid once, serially, under spans, and derives the
// simulator-side layer metrics. The grid's JSON bytes must equal an
// untraced run's: the replayed cell is the default cell.
func tracedGrid(ctx context.Context, g *sweep.Grid) (gridRun, tracedRep, error) {
	st := &simTrace{tr: newTracer()}
	tg := *g
	tg.Metrics = sweep.SimMetrics() // a custom cell binding must name its schema; this is the default one
	tg.Cell = func(si, pi, _, _ int) sweep.CellFunc { return st.cell(g, si, pi) }

	pc := plancache.Shared().Stats()
	shuffles := access.ShuffleCount()
	simulated := isim.SimulateCount()

	var start int64
	st.grid, start = st.tr.begin()
	run, err := runGrid(ctx, &tg, 1, func(a sweep.Aggregator) sweep.Aggregator {
		return &timedAggregator{inner: a, st: st}
	})
	st.tr.end(0, span{ID: st.grid, Name: spanGrid, Start: start, Rank: -1, Key: -1})
	if err != nil {
		return run, tracedRep{}, err
	}

	spans := st.tr.all()
	agg := aggregate(spans)
	pcAfter := plancache.Shared().Stats()
	hits, misses := float64(pcAfter.Hits-pc.Hits), float64(pcAfter.Misses-pc.Misses)

	var artCold, buildCold float64
	var artWarm []float64
	var builds int
	for _, s := range spans {
		d := float64(s.dur())
		switch {
		case s.Name == spanArtifacts && s.Occ == coldMark:
			artCold += d / 1e9
		case s.Name == spanArtifacts:
			artWarm = append(artWarm, d)
		case s.Name == spanBuild && s.Occ == coldMark:
			buildCold += d / 1e9
			builds++
		}
	}
	gridStat := stat(agg, spanGrid)
	layer := map[string]float64{
		"access.shuffle_count":            float64(access.ShuffleCount() - shuffles),
		"plancache.artifacts_cold_s":      artCold,
		"plancache.artifacts_warm_ns":     stats.Mean(artWarm),
		"plancache.hits":                  hits,
		"plancache.misses":                misses,
		"plancache.hit_ratio":             ratio(hits, hits+misses),
		"plancache.resident_mb":           float64(pcAfter.Bytes) / mib,
		"dataset.config_s":                stat(agg, spanConfig).total,
		"cachepolicy.build_s":             buildCold,
		"cachepolicy.build_count":         float64(builds),
		"cachepolicy.build_ns_per_sample": ratio(buildCold*1e9, float64(st.builtSamples)),
		"cachepolicy.assign_mb":           float64(st.builtBytes) / mib,
		"sim.run_s":                       stat(agg, spanSimRun).total,
		"sim.simulate_count":              float64(isim.SimulateCount() - simulated),
		"sim.fetches":                     float64(run.fetches),
		"sim.failed_cells":                float64(run.failedCells),
		"sim.ns_per_fetch":                ratio(stat(agg, spanSimRun).total*1e9, float64(run.fetches)),
		"sim.nopfs_over_lb":               run.nopfsOverLB,
		"sim.nopfs_exec_s":                run.nopfsExec,
		"sweep.cells":                     float64(stat(agg, spanCell).count),
		"sweep.self_s":                    gridStat.self,
		"sweep.encode_s":                  stat(agg, spanEncode).total,
		"tracing.spans":                   float64(len(spans)),
		"tracing.attributed_frac":         1 - ratio(gridStat.self, gridStat.total),
	}
	return run, tracedRep{spans: spans, epoch: st.tr.epoch, layer: layer}, nil
}

// simBaseline is the serial/parallel child phase: one untraced grid in a
// fresh process, the cold workloads' baseline for the traced pass.
func simBaseline(ctx context.Context, w workload, seed uint64, quick, serial bool) (trialReport, error) {
	g := w.grid(seed, quick)
	parallel := 0
	if serial {
		parallel = 1
	}
	run, err := runGrid(ctx, g, parallel, nil)
	if err != nil {
		return trialReport{}, err
	}
	return trialReport{
		RepWallS: []float64{run.wall.Seconds()},
		RepOps:   []int64{int64(g.Size())}, Attempted: int64(g.Size()),
	}, nil
}

// simTraced is the traced child phase of a sim workload. A warm workload
// verifies first (the warm-up) and interleaves traced, untraced serial and
// untraced parallel grids; a cold one traces the very first grid of the
// process and leaves the untraced baselines to sibling processes.
func simTraced(ctx context.Context, w workload, seed uint64, quick bool, budget time.Duration) (trialReport, error) {
	var rep trialReport
	var ck checker
	g := w.grid(seed, quick)
	cells := int64(g.Size())
	isCold := w.kind == simCold

	var ref gridRun
	var err error
	if !isCold {
		if ref, err = verifyGrid(ctx, g, nil, &ck); err != nil {
			return rep, err
		}
	}
	var layers []map[string]float64
	var tracedWall, serialWall, parWall []float64
	var traced []gridRun
	var last tracedRep
	for elapsed := time.Duration(0); len(layers) == 0 || (!isCold && len(layers) < 3 && elapsed < budget); {
		run, tr, err := tracedGrid(ctx, g)
		if err != nil {
			return rep, err
		}
		ck.attempted += cells
		traced = append(traced, run)
		layers = append(layers, tr.layer)
		last = tr
		tracedWall = append(tracedWall, run.wall.Seconds())
		elapsed += run.wall
		if isCold {
			break
		}
		serial, err := runGrid(ctx, g, 1, nil)
		if err != nil {
			return rep, err
		}
		par, err := runGrid(ctx, g, 0, nil)
		if err != nil {
			return rep, err
		}
		serialWall = append(serialWall, serial.wall.Seconds())
		parWall = append(parWall, par.wall.Seconds())
		elapsed += serial.wall + par.wall
	}
	if isCold {
		if ref, err = runGrid(ctx, g, 1, nil); err != nil {
			return rep, err
		}
	}
	for _, run := range traced {
		if n := differingCells(ref, run); n > 0 {
			ck.fail(int64(n), "%s: %d cells of the traced grid differ from the untraced grid", g.Name, n)
		}
	}
	if err := last.write(resultsDir, w.name); err != nil {
		return rep, err
	}

	rep.Layer, rep.Rounds = medians(layers), len(layers)
	rep.RepWallS = tracedWall
	if !isCold {
		setGridBaselines(rep.Layer, tracedWall, serialWall, parWall)
	}
	for name, v := range simStandalone(g, quick) {
		rep.Layer[name] = v
	}
	rep.Attempted, rep.Failed, rep.Problems = ck.attempted, ck.failed, ck.problems
	return rep, nil
}

// setGridBaselines derives the metrics that compare the traced serial grid
// with untraced serial and default-parallel grids (wall seconds of each).
func setGridBaselines(layer map[string]float64, traced, serial, parallel []float64) {
	layer["sweep.grid_wall_s"] = stats.Median(parallel)
	layer["sweep.parallel_speedup"] = ratio(stats.Median(serial), stats.Median(parallel))
	layer["tracing.overhead_frac"] = ratio(stats.Median(traced), stats.Median(serial)) - 1
}

// medians reduces per-repetition metric maps to one map of medians.
func medians(reps []map[string]float64) map[string]float64 {
	out := map[string]float64{}
	if len(reps) == 0 {
		return out
	}
	for name := range reps[0] {
		vals := make([]float64, 0, len(reps))
		for _, r := range reps {
			vals = append(vals, r[name])
		}
		out[name] = stats.Median(vals)
	}
	return out
}
