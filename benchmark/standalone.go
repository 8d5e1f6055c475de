package main

import (
	"context"
	"runtime"
	"sync"
	"time"

	"repro/internal/access"
	"repro/internal/cachepolicy"
	"repro/internal/hwspec"
	"repro/internal/metrics"
	"repro/internal/perfmodel"
	"repro/internal/plancache"
	"repro/internal/prng"
	"repro/internal/resilience"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/sweep"
	"repro/internal/transport"
	"repro/nopfs"
)

// Standalone layer measurements: the harness calls a layer's public
// function directly, on the workload's own inputs, outside any run.

// sink keeps results alive so the compiler cannot drop a measured call.
var sink any

// perCall runs fn n times and returns nanoseconds per call.
func perCall(n int, fn func(i int)) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// iterations scales a micro-measurement's loop count down for -quick.
func iterations(n int, quick bool) int {
	if quick {
		return n/100 + 1
	}
	return n
}

// simStandalone measures prng, access and perfmodel on the grid's own
// plans and configs.
func simStandalone(g *sweep.Grid, quick bool) map[string]float64 {
	workers := runtime.GOMAXPROCS(0)
	seen := map[access.Plan]bool{}
	var permNs, ordersS, streamsS float64
	var elems int64
	var compileNs, bestNs []float64
	for _, sc := range g.Scenarios {
		cfg, err := sc.Config(g.BaseSeed)
		if err != nil {
			continue // the grid run itself reports a config that cannot build
		}
		plan := cfg.Plan()
		if !seen[*plan] {
			seen[*plan] = true
			root := prng.New(plan.Seed)
			start := time.Now()
			sink = prng.ParallelPerms32(plan.E, plan.F, workers, func(i int) *prng.Generator { return root.Derive(uint64(i)) })
			permNs += float64(time.Since(start).Nanoseconds())
			elems += int64(plan.E) * int64(plan.F)

			start = time.Now()
			orders := plan.EpochOrders(workers)
			ordersS += time.Since(start).Seconds()
			start = time.Now()
			streams, _ := plan.AllStreamsFromOrders(orders, workers)
			streamsS += time.Since(start).Seconds()
			sink = streams
		}
		var rates *perfmodel.Rates
		compileNs = append(compileNs, perCall(iterations(2000, quick), func(int) {
			model, err := perfmodel.New(cfg.Sys, cfg.Work)
			if err != nil {
				return
			}
			rates = model.Compile(plan.N)
		}))
		if rates != nil {
			classes := len(cfg.Sys.Node.Classes)
			var seconds float64 // summed so the calls cannot be dropped
			bestNs = append(bestNs, perCall(iterations(1000000, quick), func(i int) {
				local := -1
				if classes > 0 {
					local = i % classes
				}
				seconds += rates.Best(0.1, local, local, 1+i%plan.N).Seconds
			}))
			sink = seconds
		}
	}
	return map[string]float64{
		"prng.perm_ns_per_elem": ratio(permNs, float64(elems)),
		"prng.perm_elems":       float64(elems),
		"access.epoch_orders_s": ordersS,
		"access.streams_s":      streamsS,
		"perfmodel.compile_ns":  stats.Median(compileNs),
		"perfmodel.best_ns":     stats.Median(bestNs),
	}
}

// nodeOf is the placement's view of the live classes: capacities only,
// like the node the job builds from its options.
func nodeOf(classes []nopfs.Class) hwspec.Node {
	node := hwspec.Node{
		Staging:          hwspec.StorageClass{Name: "staging", CapacityMB: 1, Threads: 1, Read: hwspec.Flat(1), Write: hwspec.Flat(1)},
		InterconnectMBps: 1,
	}
	for _, c := range classes {
		node.Classes = append(node.Classes, hwspec.StorageClass{
			Name: c.Name, CapacityMB: float64(c.CapacityBytes) / mib, Threads: c.Threads,
			Read: hwspec.Flat(1), Write: hwspec.Flat(1),
		})
	}
	return node
}

// liveStandalone measures the layers a live job is made of, one at a time,
// with the workload's sizes.
func liveStandalone(ctx context.Context, cfg liveConfig, ds nopfs.Dataset, seed uint64, quick bool) map[string]float64 {
	out := map[string]float64{}

	// Job set-up: plan artifacts on a private cache, then the placement.
	var artMS, buildMS []float64
	for i := 0; i < 3; i++ {
		opts := cfg.options(seed, 100+i)
		plan := access.Plan{Seed: opts.Seed, F: ds.Len(), N: cfg.ranks, E: opts.Epochs, BatchPerWorker: opts.BatchPerWorker}
		start := time.Now()
		art := plancache.New(0, 0).Artifacts(plan)
		artMS = append(artMS, time.Since(start).Seconds()*1e3)
		start = time.Now()
		sink = cachepolicy.BuildNoPFSFromStreams(&plan, art.Streams, ds, nodeOf(opts.Classes))
		buildMS = append(buildMS, time.Since(start).Seconds()*1e3)
	}
	out["plancache.live_artifacts_ms"] = stats.Median(artMS)
	out["cachepolicy.live_build_ms"] = stats.Median(buildMS)

	unlimited := storage.NewLimiter(0)
	out["limiter.wait_unlimited_ns"] = perCall(iterations(2000000, quick), func(int) { _ = unlimited.Wait(ctx, 8192) })

	payload := make([]byte, cfg.spec.MeanSize)
	staging := storage.NewStaging(cfg.opts.StagingBytes)
	out["staging.pushpop_ns"] = perCall(iterations(500000, quick), func(i int) {
		_ = staging.Push(ctx, i, int32(i), payload)
		_, _ = staging.Pop(ctx)
	})

	noop := func(context.Context) (int, error) { return 0, nil }
	out["resilience.do_zero_ns"] = perCall(iterations(1000000, quick), func(i int) {
		_, _ = resilience.Do(ctx, resilience.Policy{}, nil, uint64(i), resilience.Hooks{}, noop)
	})
	def := resilience.Default()
	breaker := resilience.NewBreaker(def, nil)
	out["resilience.do_default_ns"] = perCall(iterations(1000000, quick), func(i int) {
		_, _ = resilience.Do(ctx, def, breaker, uint64(i), resilience.Hooks{}, noop)
	})

	reg := metrics.NewRegistry()
	counter := reg.Counter("nopfs_bench_probe_total", "Harness probe: cost of one counter increment.")
	hist := reg.Histogram("nopfs_bench_probe_seconds", "Harness probe: cost of one histogram observation.", nil)
	out["metrics.counter_inc_ns"] = perCall(iterations(5000000, quick), func(int) { counter.Inc() })
	out["metrics.histogram_observe_ns"] = perCall(iterations(5000000, quick), func(i int) { hist.Observe(float64(i&1023) * 1e-6) })

	var gather []float64
	for i := 0; i < 5; i++ {
		if ms, err := allgatherMS(ctx, cfg.opts.Fabric, cfg.ranks); err == nil {
			gather = append(gather, ms)
		}
	}
	out["transport.allgather_ms"] = stats.Median(gather)
	return out
}

// allgatherMS builds the named fabric, installs a handler that answers
// value requests, runs the set-up allgather from every rank at once and
// returns its wall time in milliseconds.
func allgatherMS(ctx context.Context, fabric string, ranks int) (float64, error) {
	fab, err := nopfs.FabricByName(fabric)
	if err != nil {
		return 0, err
	}
	eps, err := fab.Build(ctx, ranks, 0)
	if err != nil {
		return 0, err
	}
	defer func() {
		for _, e := range eps {
			e.Close()
		}
	}()
	for _, e := range eps {
		e.SetHandler(func(context.Context, int, transport.Request) transport.Response {
			return transport.Response{OK: true, Value: 1}
		})
	}
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	start := time.Now()
	for r, e := range eps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[r] = transport.AllgatherValue(ctx, e, 1)
		}()
	}
	wg.Wait()
	ms := time.Since(start).Seconds() * 1e3
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return ms, nil
}
