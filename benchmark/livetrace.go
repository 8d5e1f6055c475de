package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/dataset"
	"repro/internal/stats"
	"repro/nopfs"
)

// tracedLoop is the traced pass's consumer: the same closed loop as
// batchLoop, with a span around every Get and around every batch of them.
// Request ids of delivery spans count deliveries of (rank, sample).
func tracedLoop(lt *liveTrace, cluster uint32, batch int) nopfs.RankFunc {
	return func(ctx context.Context, j *nopfs.Job) error {
		tr, rank := lt.tr, j.Rank()
		for b := int32(0); ; b++ {
			bid, bstart := tr.begin()
			n := 0
			for n < batch {
				gid, gstart := tr.begin()
				s, ok, err := j.Get(ctx)
				if err != nil {
					return err
				}
				if !ok {
					break
				}
				lt.firstSampleNs.CompareAndSwap(0, tr.now())
				occ := lt.deliveredOcc[rank][s.ID].Add(1)
				tr.end(rank, span{ID: gid, Parent: bid, Name: spanGet, Start: gstart, Rank: int32(rank), Key: int32(s.ID), Occ: occ})
				n++
			}
			if n > 0 {
				tr.end(rank, span{ID: bid, Parent: cluster, Name: spanBatch, Start: bstart, Rank: int32(rank), Key: -1, Occ: b})
			}
			if n < batch {
				return nil
			}
		}
	}
}

// promSum adds up the samples of one series family in Prometheus text
// exposition, whatever their labels.
func promSum(text, name string) float64 {
	var sum float64
	for _, line := range strings.Split(text, "\n") {
		rest, ok := strings.CutPrefix(line, name)
		if !ok || rest == "" || (rest[0] != '{' && rest[0] != ' ') {
			continue
		}
		if i := strings.LastIndexByte(rest, ' '); i >= 0 {
			if v, err := strconv.ParseFloat(rest[i+1:], 64); err == nil {
				sum += v
			}
		}
	}
	return sum
}

// tracedCluster runs one repetition through the traced decorators and
// derives the live-side layer metrics from its spans, its counters, and the
// program's own limiter and fetch-seconds series.
func tracedCluster(ctx context.Context, ds nopfs.Dataset, cfg liveConfig, opts nopfs.Options) (liveRun, tracedRep, error) {
	registerTraced()
	tr := newTracer()
	lt := newLiveTrace(tr, cfg.ranks, ds.Len())
	activeTrace.Store(lt)
	opts = tracedOptions(opts)

	cid, cstart := tr.begin()
	run, err := runCluster(ctx, &tracedDataset{Dataset: ds, lt: lt}, cfg.ranks, opts, tracedLoop(lt, cid, opts.BatchPerWorker))
	tr.end(0, span{ID: cid, Name: spanCluster, Start: cstart, Rank: -1, Key: -1})
	if err != nil {
		return run, tracedRep{}, err
	}
	var prom bytes.Buffer
	if err := opts.Metrics.WritePrometheus(&prom); err != nil {
		return run, tracedRep{}, err
	}

	spans := tr.all()
	agg := aggregate(spans)
	wall := run.wall.Seconds()
	limiterWait := promSum(prom.String(), "nopfs_limiter_wait_seconds_total")

	// The requester's own backend lookups are the ones with no serving
	// span above them; lookups made for a peer are inside transport.serve.
	var ownGet, ownPut float64
	var ownGets int64
	for _, s := range spans {
		switch {
		case s.Parent != noParent:
		case s.Name == spanBackGet:
			ownGet += float64(s.dur()) / 1e9
			ownGets++
		case s.Name == spanBackPut:
			ownPut += float64(s.dur()) / 1e9
		}
	}
	get, put, call, read := stat(agg, spanBackGet), stat(agg, spanBackPut), stat(agg, spanCall), stat(agg, spanRead)
	cluster := stat(agg, spanCluster)
	layer := map[string]float64{
		"dataset.read_count": float64(read.count),
		"dataset.read_s":     read.total,
		"dataset.read_mb":    float64(lt.readBytes.Load()) / mib,

		"limiter.wait_s": limiterWait,

		"backend.get_count":     float64(get.count),
		"backend.get_hit_ratio": ratio(float64(lt.getHits.Load()), float64(get.count)),
		"backend.get_s":         get.total,
		"backend.put_count":     float64(put.count),
		"backend.put_s":         put.total,
		"backend.has_count":     float64(stat(agg, spanBackHas).count),
		"backend.cached_mb":     float64(run.cachedBytes) / mib,

		"staging.stall_s":    run.stallSeconds,
		"staging.stall_frac": ratio(run.stallSeconds, float64(cfg.ranks)*wall),

		"transport.call_count": float64(call.count),
		"transport.call_s":     call.total,
		"transport.serve_s":    stat(agg, spanServe).total,
		"transport.self_s":     call.self,
		"transport.miss_ratio": ratio(float64(lt.callMisses.Load()), float64(call.count)),
		"transport.err_count":  float64(lt.callErrs.Load()),
		"transport.mb":         float64(lt.callBytes.Load()) / mib,

		"fetch.local_frac":           ratio(float64(run.local), float64(run.delivered)),
		"fetch.remote_frac":          ratio(float64(run.remote), float64(run.delivered)),
		"fetch.false_positive_ratio": ratio(float64(run.falsePositives), float64(run.remote+run.falsePositives)),
		"fetch.retries":              float64(run.retries),
		"fetch.self_s": fetchSelf(promSum(prom.String(), "nopfs_fetch_seconds_sum"), run, ownGets,
			ownGet, ownPut, call, read, limiterWait),

		"delivery.first_sample_ms": float64(lt.firstSampleNs.Load()-cstart) / 1e6,

		"tracing.spans":           float64(len(spans)),
		"tracing.attributed_frac": 1 - ratio(cluster.self, cluster.total),
	}
	if opts.PFSAggregateMBps > 0 {
		layer["limiter.pfs_utilisation"] = ratio(float64(lt.readBytes.Load()), opts.PFSAggregateMBps*mib*wall)
	}
	notes := map[string]string{}
	tails := func(prefix string, st *layerStat) {
		asc := sorted(st.durs)
		p := tailPercentile(len(asc), 99)
		layer[prefix+"_p50_us"] = stats.PercentileSorted(asc, 50) * 1e6
		layer[prefix+"_p99_us"] = stats.PercentileSorted(asc, p) * 1e6
		notes[prefix+"_p99_us"] = fmt.Sprintf("p%g of %d", p, len(asc))
	}
	tails("transport.call", call)
	tails("delivery.get", stat(agg, spanGet))
	tails("delivery.batch", stat(agg, spanBatch))
	return run, tracedRep{spans: spans, epoch: tr.epoch, layer: layer, notes: notes}, nil
}

// fetchSelf is the time inside the program's staged fetches that no lower
// layer accounts for: Σ nopfs_fetch_seconds minus the backend, transport,
// dataset and limiter time spent on their behalf. The program times staged
// fetches only, while the spans (and the limiter series) also hold the class
// prefetchers' fetches, which the harness cannot tell apart from outside; so
// each layer's time is charged in proportion to the staged fetches' share of
// its operations (Stats counts staged fetches by source).
func fetchSelf(fetchSeconds float64, run liveRun, ownGets int64, ownGet, ownPut float64, call, read *layerStat, limiterWait float64) float64 {
	share := func(staged, all int64) float64 {
		if all == 0 || staged > all {
			return 1
		}
		return float64(staged) / float64(all)
	}
	pfs := share(run.pfs, read.count)
	return fetchSeconds -
		share(run.delivered, ownGets)*ownGet -
		share(run.remote+run.falsePositives, call.count)*call.total -
		pfs*(read.total+limiterWait+ownPut)
}

// liveTraced is the traced child phase of a live workload: verify (the
// warm-up), then rounds of an untraced repetition on the production path,
// its paired variant if the workload has one, and a traced repetition;
// finally the standalone layer measurements.
func liveTraced(ctx context.Context, w workload, seed uint64, quick bool, budget time.Duration) (trialReport, error) {
	var rep trialReport
	var ck checker
	cfg := w.live(seed, quick)
	ds, err := dataset.New(cfg.spec)
	if err != nil {
		return rep, err
	}
	verifyLive(ctx, ds, cfg, seed, &ck)
	want := int64(cfg.opts.Epochs) * int64(ds.Len())

	var pair *liveConfig
	if w.pair != nil {
		p := w.pair(seed, quick)
		pair = &p
	}
	var layers, base []map[string]float64
	var baseUS, pairUS, tracedWall, baseWall []float64
	var last tracedRep
	for elapsed, round := time.Duration(0), 0; round == 0 || (round < 3 && elapsed < budget); round++ {
		// Plan seeds: three per round, so no repetition reuses a plan.
		runtime.GC()
		plain, err := runCluster(ctx, ds, cfg.ranks, cfg.options(seed, 3*round), batchLoop)
		checkRun(plain, err, want, &ck)
		if err != nil {
			break
		}
		delivered := float64(plain.delivered)
		baseUS = append(baseUS, plain.wall.Seconds()*1e6/delivered)
		baseWall = append(baseWall, plain.wall.Seconds())
		base = append(base, map[string]float64{
			"delivery.allocs_per_sample":      float64(plain.mallocs) / delivered,
			"delivery.alloc_bytes_per_sample": float64(plain.allocBytes) / delivered,
			"runtime.gc_pause_ms":             float64(plain.gcPauseNs) / 1e6,
			"runtime.gc_count":                float64(plain.gcCount),
		})
		elapsed += plain.wall
		if pair != nil {
			runtime.GC()
			other, err := runCluster(ctx, ds, pair.ranks, pair.options(seed, 3*round+1), batchLoop)
			checkRun(other, err, want, &ck)
			if err != nil {
				break
			}
			pairUS = append(pairUS, other.wall.Seconds()*1e6/float64(other.delivered))
			elapsed += other.wall
		}
		runtime.GC()
		run, tr, err := tracedCluster(ctx, ds, cfg, cfg.options(seed, 3*round+2))
		checkRun(run, err, want, &ck)
		if err != nil {
			break
		}
		layers = append(layers, tr.layer)
		last, rep.Notes = tr, tr.notes
		tracedWall = append(tracedWall, run.wall.Seconds())
		elapsed += run.wall
	}
	if len(layers) > 0 {
		if err := last.write(resultsDir, w.name); err != nil {
			return rep, err
		}
	}

	rep.Layer, rep.Rounds = medians(layers), len(layers)
	for name, v := range medians(base) {
		rep.Layer[name] = v
	}
	rep.RepWallS = tracedWall
	rep.Layer["delivery.us_per_sample"] = stats.Median(baseUS)
	rep.Layer["tracing.overhead_frac"] = ratio(stats.Median(tracedWall), stats.Median(baseWall)) - 1
	if pair != nil {
		// Instrumented over plain, whichever of the two this workload is.
		plainUS, instrUS := baseUS, pairUS
		if cfg.instrumented {
			plainUS, instrUS = pairUS, baseUS
		}
		rep.Layer["metrics.overhead_frac"] = ratio(stats.Median(instrUS), stats.Median(plainUS)) - 1
	}
	for name, v := range liveStandalone(ctx, cfg, ds, seed, quick) {
		rep.Layer[name] = v
	}
	rep.Attempted, rep.Failed, rep.Problems = ck.attempted, ck.failed, ck.problems
	return rep, nil
}
