package sim

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/access"
	"repro/internal/cachepolicy"
	"repro/internal/chaos"
	"repro/internal/dataset"
	"repro/internal/hwspec"
	"repro/internal/perfmodel"
	"repro/internal/plancache"
)

// This file holds the simulator's per-fetch reference: the loop the tagged
// kernel replaced, kept where only tests can reach it. It asks the
// Assignment accessors where every single fetch comes from, re-derives every
// stream, re-sums every byte total, checks every boundary per sample, and
// never flushes the γ estimate, and hands every fetch to a prefetch thread by
// its own least-loaded scan. It reads no tag, no sourceRule and no field of
// the policy table — it knows each policy by name — and shares no pool code
// with the kernel, so a wrong nibble, a wrong row or a misordered pool shows
// up as a Result that differs from it.

// naivePool is the reference's prefetch-thread pool: free times in thread
// order, and a scan for the least-loaded thread on every fetch.
type naivePool []float64

func newNaivePool(p0 int, setup float64) naivePool {
	free := make(naivePool, p0)
	for i := range free {
		free[i] = setup
	}
	return free
}

func (free naivePool) schedule(roomTime, readDur float64) float64 {
	ti := 0
	for i := range free {
		if free[i] < free[ti] {
			ti = i
		}
	}
	start := free[ti]
	if roomTime > start {
		start = roomTime
	}
	free[ti] = start + readDur
	return free[ti]
}

// referenceSource decides where stream entry f (sample k) is fetched from,
// policy by policy, under the run's placement a.
func referenceSource(env *Env, pol Policy, a *cachepolicy.Assignment, f int, k access.SampleID) perfmodel.Choice {
	sz, rate := env.SizesMB[k], env.Rate
	local := func(c int) perfmodel.Choice {
		return perfmodel.Choice{Loc: perfmodel.LocLocal, Class: c, Seconds: rate.FetchLocal(sz, c)}
	}
	remote := func(c, w int) perfmodel.Choice {
		return perfmodel.Choice{Loc: perfmodel.LocRemote, Class: c, Seconds: rate.FetchRemote(sz, c), Holder: int32(w)}
	}
	pfs := func(readers int) perfmodel.Choice {
		return perfmodel.Choice{Loc: perfmodel.LocPFS, Class: -1, Seconds: rate.FetchPFS(sz, readers)}
	}
	name := pol.Name()
	switch name {
	case NameLowerBound:
		return perfmodel.Choice{Loc: perfmodel.LocLocal, Class: -1}
	case NameNaive, NameStagingBuffer:
		return pfs(env.Plan.N)
	case NameDeepIOOrdered, NameDeepIOOpp, NameLBANNDynamic, NameLBANNPreload:
		// First copy found serves, availability gated on the holder's
		// progress.
		if c := a.LocalAvail(0, k, int32(f)); c >= 0 {
			return local(c)
		}
		if c, w := a.RemoteAvail(0, k, int32(f)); c >= 0 {
			return remote(c, w)
		}
		return pfs(env.Gamma())
	case NameParallelStaging:
		if c := a.Local(0, k); c >= 0 {
			return local(c)
		}
		return pfs(env.Gamma())
	case NameLocalityAware:
		if c := a.Local(0, k); c >= 0 {
			return local(c)
		}
		if c, w := a.RemoteBest(0, k); c >= 0 {
			return remote(c, w)
		}
		return pfs(env.Gamma())
	}
	if !strings.HasPrefix(name, NameNoPFS) {
		panic("referenceSource: unknown policy " + name)
	}
	// Sec. 5.2 argmin over PFS, remote and local (NoPFS and its ablations).
	rc, holder := -1, -1
	if !strings.Contains(name, "-noremote") {
		rc, holder = a.RemoteAvail(0, k, int32(f))
	}
	ch := rate.Best(sz, a.LocalAvail(0, k, int32(f)), rc, env.Gamma())
	if ch.Loc == perfmodel.LocRemote {
		ch.Holder = int32(holder)
	}
	return ch
}

// referenceStream is the stream the policy consumes under the run's
// placement a, rebuilt from scratch, with its epoch ends.
func referenceStream(env *Env, pol Policy, a *cachepolicy.Assignment) ([]access.SampleID, []int) {
	switch pol.Name() {
	case NameDeepIOOpp:
		return opportunisticStream(env, a)
	case NameParallelStaging:
		return shardCycleStream(env, a)
	case NameLocalityAware:
		return localityStream(env, a)
	}
	return env.Art.Streams[0], env.Art.EpochEnds[0]
}

// referencePipeline is the policy's staging pipeline, by name: its lookahead
// window, whether the trainer reads synchronously, its prefetch threads,
// its prestaging seconds under placement a, and its coverage.
func referencePipeline(env *Env, pol Policy, a *cachepolicy.Assignment) (bufMB float64, syncRead bool, p0 int, setup, coverage float64) {
	name, node := pol.Name(), env.Cfg.Sys.Node.Staging
	batchMB := float64(env.Cfg.Work.BatchPerWorker) * env.MeanMB
	bufMB, p0, coverage = node.CapacityMB, 1, 1
	switch name {
	case NameNaive, NameStagingBuffer:
		bufMB, syncRead = math.Min(2*batchMB, node.CapacityMB), name == NameNaive
	case NameLowerBound:
		p0 = node.Threads
	case NameDeepIOOpp:
		coverage = a.Coverage(env.Cfg.DS)
	case NameParallelStaging:
		setup, coverage = stagePrestageSeconds(env, a.CachedBytes[0]), a.Coverage(env.Cfg.DS)
	case NameLBANNPreload, NameLocalityAware:
		setup = stagePrestageSeconds(env, a.CachedBytes[0])
	}
	if strings.HasPrefix(name, NameNoPFS) {
		p0 = node.Threads
		if strings.Contains(name, "-tinybuf") {
			bufMB = batchMB
		}
	}
	return bufMB, syncRead, max(p0, 1), setup, coverage
}

// policyFamily is the placement family each policy fetches by, by name; a
// policy missing here places nothing.
var policyFamily = map[string]string{
	NameDeepIOOrdered: plancache.FamilyFirstTouch, NameDeepIOOpp: plancache.FamilyFirstTouch,
	NameLBANNDynamic: plancache.FamilyFirstTouch, NameLBANNPreload: plancache.FamilyPreload,
	NameParallelStaging: plancache.FamilyShard, NameLocalityAware: plancache.FamilyShard,
	NameNoPFS: plancache.FamilyNoPFS, "NoPFS-randplace": plancache.FamilyRandom,
	"NoPFS-noremote": plancache.FamilyNoPFS, "NoPFS-tinybuf": plancache.FamilyNoPFS,
}

// referenceRun is Run through the per-fetch loop, on a placement of its own
// from the builder the plan cache's inputs derive from. threadSplit applies
// the per-thread PFS split (a PFS read's seconds times ewma·p₀ when that
// exceeds 1), as simulate always does; without it every PFS read gets the
// node's whole share.
func referenceRun(cfg Config, pol Policy, threadSplit bool) (*Result, error) {
	env, err := newEnv(&cfg)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Policy: pol.Name(), System: cfg.Sys.Name,
		LocSeconds: map[perfmodel.Location]float64{},
		LocCount:   map[perfmodel.Location]int64{},
	}
	if _, _, err := env.prepare(pol); err != nil {
		res.Failed, res.FailReason = true, err.Error()
		return res, nil
	}
	a := env.placement(policyFamily[pol.Name()])
	bufMB, syncRead, p0, setup, coverage := referencePipeline(env, pol, a)
	res.SetupSeconds, res.Coverage = setup, coverage
	stream, epochEnds := referenceStream(env, pol, a)
	stream, epochEnds = env.Chaos.RedistributeStream(0, env.Plan.N, stream, epochEnds, env.planStream)

	var (
		n       = len(stream)
		sched   = env.Chaos
		workers = env.Plan.N
		batch   = cfg.Work.BatchPerWorker
		c       = cfg.Work.ComputeMBps
	)
	threads := newNaivePool(p0, setup)

	// The staging window, never elided: window[head:] are the staged samples,
	// each with the consume time that frees its bytes.
	type staged struct{ size, consume float64 }
	var window []staged
	head, inBufMB := 0, 0.0

	if n > 0 {
		res.BatchSeconds = []float64{}
		res.EpochSeconds = []float64{}
	}
	epoch, nextEpochEnd := 0, epochEnds[0]
	factors := func() (barrier, self float64) {
		if sched == nil {
			return 1, 1
		}
		return sched.BarrierFactor(epoch, workers), sched.Slowdown(0, epoch, workers)
	}
	barrier, self := factors()
	batchJitter := env.pfsJitter()
	for epoch < len(epochEnds) && epochEnds[epoch] == 0 {
		res.EpochSeconds = append(res.EpochSeconds, 0)
		epoch++
		if epoch < len(epochEnds) {
			nextEpochEnd = epochEnds[epoch]
		}
		barrier, self = factors()
	}

	var locSec [numLocations]float64
	var locCnt [numLocations]int64
	prevComputeDone, lastBatchEnd, lastEpochEnd := setup, setup, setup
	for f, k := range stream {
		if f%batch == 0 {
			batchJitter = env.pfsJitter()
		}
		sz := env.SizesMB[k]
		choice := referenceSource(env, pol, a, f, k)
		hit := 0.0
		if choice.Loc == perfmodel.LocPFS {
			hit = 1
		}
		env.ewma += ewmaAlpha * (hit - env.ewma) // never flushed
		if choice.Loc == perfmodel.LocPFS {
			if conc := env.ewma * float64(p0); threadSplit && conc > 1 {
				choice.Seconds *= conc
			}
			choice.Seconds *= batchJitter
		}
		if sched != nil {
			chaosAdjust(env, sched, epoch, f, sz, &choice, res)
		}
		write := env.Rate.WriteTime(sz)
		locSec[choice.Loc] += choice.Seconds
		locCnt[choice.Loc]++
		res.StagingWriteSeconds += write
		readDur := choice.Seconds + write
		if self != 1 {
			readDur *= self
		}

		var avail float64
		if syncRead {
			avail = prevComputeDone + readDur
		} else {
			roomTime := setup
			for inBufMB+sz > bufMB && head < len(window) {
				inBufMB -= window[head].size
				if window[head].consume > roomTime {
					roomTime = window[head].consume
				}
				head++
			}
			avail = threads.schedule(roomTime, readDur)
		}
		consume := prevComputeDone
		if avail > consume {
			res.StallSeconds += avail - consume
			consume = avail
		}
		prevComputeDone = consume + sz/c*barrier
		if !syncRead {
			window = append(window, staged{sz, consume})
			inBufMB += sz
		}

		if (f+1)%batch == 0 || f+1 == n {
			res.BatchSeconds = append(res.BatchSeconds, prevComputeDone-lastBatchEnd)
			lastBatchEnd = prevComputeDone
		}
		for f+1 == nextEpochEnd && epoch < len(epochEnds) {
			res.EpochSeconds = append(res.EpochSeconds, prevComputeDone-lastEpochEnd)
			lastEpochEnd = prevComputeDone
			epoch++
			if epoch < len(epochEnds) {
				nextEpochEnd = epochEnds[epoch]
			}
			barrier, self = factors()
		}
	}
	for l := 0; l < numLocations; l++ {
		if locCnt[l] > 0 {
			res.LocSeconds[perfmodel.Location(l)] = locSec[l]
			res.LocCount[perfmodel.Location(l)] = locCnt[l]
		}
	}
	res.ExecSeconds = prevComputeDone
	return res, nil
}

// kernelPolicies returns every policy the kernel serves: the Fig. 8 panel
// plus the three NoPFS ablations.
func kernelPolicies() []Policy {
	return append(AllPolicies(),
		NewNoPFSVariant(NoPFSVariant{RandomPlacement: true}),
		NewNoPFSVariant(NoPFSVariant{NoRemote: true}),
		NewNoPFSVariant(NoPFSVariant{TinyStaging: true}),
	)
}

// kernelPanels are the storage regimes the gate runs every pattern on:
// everything fits RAM, RAM plus SSD spill with PFS misses, and a dataset
// larger than the cluster (where the LBANN policies fail).
var kernelPanels = []string{"fig8a", "fig8c", "fig8e"}

// kernelThreads are the prefetch-thread counts of the gate: the panel's own p₀
// (0) under every chaos profile, and on the fault-free cells also one thread,
// an odd count, and pools wider than any preset's (overriding
// Sys.Node.Staging.Threads).
var kernelThreads = []int{0, 1, 3, 16, 64}

// TestPatternKernelsMatchGeneric is the bit-identity gate of the tagged
// kernel: for every policy and ablation × every access pattern (uniform,
// one spec per pattern kind, every preset, elastic membership) × no chaos
// at every pool width in kernelThreads and every chaos preset, Run must
// equal the generic per-fetch reference loop above, field for field.
func TestPatternKernelsMatchGeneric(t *testing.T) {
	profiles := append([]chaos.Profile{{}}, chaos.Presets()...)
	specs := append(append([]string{}, patternSpecs...), access.PresetNames()...)
	covered := map[string]bool{}
	for _, spec := range specs {
		canon, err := access.CanonicalSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		if covered[canon] {
			continue // a preset that one of patternSpecs spells out
		}
		covered[canon] = true
		name := spec
		if name == "" {
			name = "uniform"
		}
		t.Run(name, func(t *testing.T) {
			for _, panel := range kernelPanels {
				for pi, prof := range profiles {
					threads := kernelThreads
					if pi > 0 {
						threads = threads[:1]
					}
					for _, p0 := range threads {
						cfg := patternConfigOn(t, panel, spec, 91)
						cfg.Chaos = prof
						if p0 > 0 {
							cfg.Sys.Node.Staging.Threads = p0
						}
						for _, pol := range kernelPolicies() {
							got, err := Run(cfg, pol)
							if err != nil {
								t.Fatalf("%s: %v", pol.Name(), err)
							}
							want, err := referenceRun(cfg, pol, true)
							if err != nil {
								t.Fatalf("%s reference: %v", pol.Name(), err)
							}
							if !reflect.DeepEqual(got, want) {
								t.Errorf("%s on %s under %q, chaos %q, p0 %d: kernel differs from the per-fetch reference:\n got %+v\nwant %+v",
									got.Policy, panel, spec, prof.Name, p0, got, want)
							}
						}
					}
				}
			}
		})
	}
}

// TestFig8fStallIsThreadSplit names the term behind Fig. 8f's NoPFS stall,
// which exceeds StagingBuffer's although both read the same samples from the
// PFS: the per-thread PFS split (simulate's sec *= ewma·p₀). In one epoch a
// copy made during training never exists before its first read, so NoPFS
// reads only the PFS, its γ estimate stays at 1, and every read costs exactly
// p₀ times StagingBuffer's. The split assumes p₀ reads in flight sharing the
// node's PFS bandwidth, but the staging window holds fewer samples than p₀,
// so fewer reads are ever in flight. The per-fetch reference without the
// split stalls less than StagingBuffer.
func TestFig8fStallIsThreadSplit(t *testing.T) {
	s, err := ScenarioByID("fig8f")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := s.Config(0.02, 42)
	if err != nil {
		t.Fatal(err)
	}
	nopfs, err := Run(cfg, NewNoPFS())
	if err != nil {
		t.Fatal(err)
	}
	staging, err := Run(cfg, NewStagingBuffer())
	if err != nil {
		t.Fatal(err)
	}
	p0 := cfg.Sys.Node.Staging.Threads
	var fetches int64
	for _, n := range nopfs.LocCount {
		fetches += n
	}
	if n := nopfs.LocCount[perfmodel.LocPFS]; n != fetches || n == 0 {
		t.Fatalf("NoPFS read %d of %d samples from the PFS, want all (the test lost its subject)", n, fetches)
	}
	if got, want := nopfs.LocSeconds[perfmodel.LocPFS], float64(p0)*staging.LocSeconds[perfmodel.LocPFS]; got != want {
		t.Errorf("NoPFS PFS seconds %v, want exactly p0 = %d times StagingBuffer's: %v", got, p0, want)
	}
	if nopfs.StallSeconds <= staging.StallSeconds {
		t.Errorf("NoPFS stalls %.3fs, StagingBuffer %.3fs: the inversion is gone", nopfs.StallSeconds, staging.StallSeconds)
	}
	mean := float64(cfg.DS.TotalSize()) / (1 << 20) / float64(cfg.DS.Len())
	window := int(cfg.Sys.Node.Staging.CapacityMB / mean)
	if window >= p0 {
		t.Errorf("the staging buffer holds %d samples, not fewer than p0 = %d", window, p0)
	}

	split, err := referenceRun(cfg, NewNoPFS(), true)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(nopfs, split) {
		t.Errorf("kernel differs from the per-fetch reference:\n got %+v\nwant %+v", nopfs, split)
	}
	unsplit, err := referenceRun(cfg, NewNoPFS(), false)
	if err != nil {
		t.Fatal(err)
	}
	if unsplit.StallSeconds >= staging.StallSeconds {
		t.Errorf("without the split NoPFS stalls %.3fs, want less than StagingBuffer's %.3fs", unsplit.StallSeconds, staging.StallSeconds)
	}
	t.Logf("window %d samples < p0 %d; exec / stall: NoPFS %.1f / %.1f s, without the split %.1f / %.1f s, StagingBuffer %.1f / %.1f s",
		window, p0, nopfs.ExecSeconds, nopfs.StallSeconds, unsplit.ExecSeconds, unsplit.StallSeconds, staging.ExecSeconds, staging.StallSeconds)
}

// TestThreadPoolMatchesNaiveScan is the law behind the ordered pool: over
// random (roomTime, readDur) sequences — durations drawn from a handful of
// values so completion times tie, all-equal durations, zero durations
// (LowerBound), and room times beyond every free time — for every p₀ from 1
// to 64, each fetch completes when the naive least-loaded scan says, and the
// free times stay the ascending arrangement of the scan's.
func TestThreadPoolMatchesNaiveScan(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	durations := []struct {
		name string
		draw func() float64
	}{
		{"ties", func() float64 { return float64(rng.Intn(4)) * 0.25 }},
		{"equal", func() float64 { return 0.5 }},
		{"zero", func() float64 { return 0 }},
		{"mixed", func() float64 { return rng.Float64() * float64(rng.Intn(3)) }},
	}
	for p0 := 1; p0 <= 64; p0++ {
		for _, dur := range durations {
			pool, naive := newThreadPool(p0, 1.0), newNaivePool(p0, 1.0)
			for i := 0; i < 400; i++ {
				room := 1.0
				switch rng.Intn(4) {
				case 0: // beyond every free time
					room = pool.free[p0-1] + rng.Float64()
				case 1: // exactly a free time
					room = pool.free[rng.Intn(p0)]
				case 2:
					room = pool.free[0] + rng.Float64()*(pool.free[p0-1]-pool.free[0])
				}
				d := dur.draw()
				if got, want := pool.schedule(room, d), naive.schedule(room, d); got != want {
					t.Fatalf("p0 %d, %s, fetch %d (room %v, dur %v): completes at %v, the scan says %v", p0, dur.name, i, room, d, got, want)
				}
				want := append([]float64(nil), naive...)
				sort.Float64s(want)
				if !reflect.DeepEqual(pool.free, want) {
					t.Fatalf("p0 %d, %s, fetch %d: free times %v, the scan's ascending %v", p0, dur.name, i, pool.free, want)
				}
			}
		}
	}
}

// TestSubnormalFlushUnobservable is the law behind ewmaFlush: over random
// hit/miss sequences — including runs of more than 40 000 misses, enough to
// take the unflushed estimate down to the smallest subnormal, followed by
// hits — the flushed recurrence and the unflushed one agree, at every step,
// on γ for any cluster size, on every "more than one thread at the PFS"
// decision, and bit for bit on the value after every hit.
func TestSubnormalFlushUnobservable(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	workers := []float64{1, 4, 512, 1e4, 1 << 31}
	threads := []float64{1, 4, 64, 1 << 20}
	for trial := 0; trial < 8; trial++ {
		flushed, plain := 1.0, 1.0
		for run := 0; run < 6; run++ {
			hit := run%2 == 1
			steps := 1 + rng.Intn(300)
			if !hit && rng.Intn(2) == 0 {
				steps = 40000 + rng.Intn(5000)
			}
			for i := 0; i < steps; i++ {
				if hit {
					flushed, plain = gammaHit(flushed), plain+ewmaAlpha*(1-plain)
					if flushed != plain {
						t.Fatalf("trial %d: after a hit the flushed estimate is %g, the plain one %g", trial, flushed, plain)
					}
				} else {
					flushed, plain = gammaMiss(flushed), plain+ewmaAlpha*(0-plain)
					if flushed != plain && !(flushed == 0 && plain < ewmaFlush) {
						t.Fatalf("trial %d: after a miss the estimates diverge above the threshold: %g vs %g", trial, flushed, plain)
					}
				}
				for _, n := range workers {
					if gammaFor(flushed, n) != gammaFor(plain, n) {
						t.Fatalf("trial %d: γ differs at N=%g: %g vs %g", trial, n, flushed, plain)
					}
				}
				for _, p0 := range threads {
					if (flushed*p0 > 1) != (plain*p0 > 1) {
						t.Fatalf("trial %d: concurrency decision differs at p0=%g: %g vs %g", trial, p0, flushed, plain)
					}
				}
			}
			if !hit && steps >= 40000 && (plain == 0 || plain >= 0x1p-1022) {
				t.Fatalf("trial %d: %d misses left the plain estimate at %g, want a subnormal (the test lost its subject)", trial, steps, plain)
			}
		}
	}
}

// TestSubnormalNeverReached runs the policy that never touches the PFS over
// a stream long enough to underflow the γ estimate: it must end at exactly 0
// or at a normal number, never at a subnormal.
func TestSubnormalNeverReached(t *testing.T) {
	cfg := Config{
		Sys: hwspec.SmallCluster(), Work: hwspec.Sec61Workload(8),
		DS:   dataset.MustNew(dataset.Spec{Name: "subnormal", F: 32768, MeanSize: 4096, Classes: 2, Seed: 1}),
		Seed: 1, DropLast: true,
	}
	env, err := newEnv(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := env.run(NewLowerBound())
	if n := res.LocCount[perfmodel.LocLocal]; n < 60000 {
		t.Fatalf("stream has %d positions, want at least 60000", n)
	}
	if env.ewma != 0 && env.ewma < 0x1p-1022 {
		t.Fatalf("γ estimate ended subnormal: %g", env.ewma)
	}
	if math.IsNaN(env.ewma) || env.ewma < 0 {
		t.Fatalf("γ estimate ended at %g", env.ewma)
	}
}

// TestTagStreamsBuiltOncePerPlacement pins the cache contract of the
// kernel's input: each lean placement is built once, every stream kind its
// family's policies consume is tagged from that one build, however many
// cells consume them, and the placement does not stay.
func TestTagStreamsBuiltOncePerPlacement(t *testing.T) {
	s, err := ScenarioByID("fig8b")
	if err != nil {
		t.Fatal(err)
	}
	// Every config reads a cache of its own, cold whatever ran before.
	config := func() Config {
		cfg, err := s.Config(testScale, 1800)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Plans = plancache.New(0, 0)
		return cfg
	}
	// run returns the tag streams and placements the cells built.
	run := func(cfg Config, pols ...Policy) (tags, placements int64) {
		before := cfg.Plans.Stats()
		for _, pol := range pols {
			if _, err := Run(cfg, pol); err != nil {
				t.Error(err)
			}
		}
		after := cfg.Plans.Stats()
		return after.TagStreams - before.TagStreams, after.Placements - before.Placements
	}

	// A cold panel builds one tag stream per (placement, stream kind) — first
	// touch × {plan, opportunistic}, shard × {cycle, locality}, preload,
	// NoPFS, and the placement-free plan stream that Naive, StagingBuffer and
	// LowerBound share — plus the plan stream's byte total, which the first
	// plan-stream build sums and every later one finds: 8. It builds each of
	// its four placements (first touch, shard, preload, NoPFS) exactly once,
	// and keeps none: the cache holds the plan and the inputs, nothing else.
	// A second pass builds nothing.
	cfg := config()
	if n, p := run(cfg, AllPolicies()...); n != 8 || p != 4 {
		t.Errorf("cold panel built %d tag streams and %d placements, want 8 and 4", n, p)
	}
	art := cfg.Plans.Artifacts(*cfg.Plan())
	// The plan keeps its streams and epoch 0's order, no other.
	if plan := cfg.Plan(); len(art.EpochOrders) != 1 || !slices.Equal(art.EpochOrders[0], plan.EpochOrder(0)) {
		t.Errorf("the plan keeps %d orders, want epoch 0's alone", len(art.EpochOrders))
	} else {
		for w, st := range art.Streams {
			if !slices.Equal(st, plan.WorkerStream(w)) {
				t.Errorf("worker %d's stream differs from the serial WorkerStream", w)
			}
		}
	}
	var inputBytes int64
	for _, family := range []string{"", streamTotal, plancache.FamilyFirstTouch, plancache.FamilyShard, plancache.FamilyPreload, plancache.FamilyNoPFS} {
		node := cfg.Sys.Node
		if family == streamTotal {
			node = hwspec.Node{}
		}
		for _, ts := range art.LeanInput(family, cfg.DS, node, nil, func(*cachepolicy.Assignment) *plancache.LeanInput {
			t.Fatalf("family %q: no input cached", family)
			return nil
		}).Streams {
			inputBytes += int64(len(ts.Tags)) + 8
			if ts.OwnStream {
				inputBytes += 4 * int64(len(ts.Stream))
			}
		}
	}
	if got, want := cfg.Plans.Stats().Bytes, planBytes(art)+art.Rank(true).ApproxBytes()+6*16+inputBytes; got != want {
		t.Errorf("cold panel leaves %d bytes cached, want %d: plan, NoPFS ranking and six inputs", got, want)
	}
	if n, p := run(cfg, AllPolicies()...); n != 0 || p != 0 {
		t.Errorf("warm panel built %d tag streams and %d placements, want none", n, p)
	}
	// inputs returns, per panel policy, the cached kernel input of its
	// stream kind and the input runInput hands simulate.
	inputs := func(cfg Config) (cached, ran []*plancache.TagStream) {
		for _, pol := range AllPolicies() {
			env, err := newEnv(&cfg)
			if err != nil {
				t.Fatal(err)
			}
			in, _, err := env.prepare(pol)
			if err != nil {
				t.Fatalf("%s: %v", pol.Name(), err)
			}
			_, ts := env.runInput(pol.rule, in)
			cached, ran = append(cached, in.Streams[pol.rule.stream]), append(ran, ts)
		}
		return cached, ran
	}
	// A fault-free cell runs on the cached input itself. Of the panel's
	// inputs, exactly the three reorderings (DeepIO opportunistic,
	// ParallelStaging's cycle, LocalityAware) are streams of their own.
	cached, ran := inputs(cfg)
	own := map[*plancache.TagStream]bool{}
	for i, in := range cached {
		if ran[i] != in {
			t.Errorf("%s: fault-free cell re-tagged its stream", AllPolicies()[i].Name())
		}
		if in.OwnStream {
			own[in] = true
		}
	}
	if len(own) != 3 {
		t.Errorf("panel consumes %d reordered streams, want 3", len(own))
	}
	// A jitter or non-structural chaos profile changes neither placement nor
	// stream, so it runs on the tags of the fault-free cells, and it looks no
	// holder up, so it builds no placement.
	slow := cfg
	slow.PFSJitter = 0.5
	slow.Chaos, err = chaos.PresetByName("flaky-fabric")
	if err != nil {
		t.Fatal(err)
	}
	if n, p := run(slow, NewNoPFS(), fig8Policy(NameDeepIOOrdered)); n != 0 || p != 0 {
		t.Errorf("chaos cells on a tagged placement built %d tag streams and %d placements, want 0", n, p)
	}
	if _, ran := inputs(slow); !slices.Equal(ran, cached) {
		t.Error("flaky-fabric cells did not run on the fault-free cells' tag streams")
	}
	// A node crash reshapes the stream, so its cells run on inputs of their
	// own, outside the cache, tagged under a placement they look holders up
	// in: one per family, cached and shared by the crash cells.
	crash := cfg
	crash.Chaos, err = chaos.PresetByName("node-crash")
	if err != nil {
		t.Fatal(err)
	}
	before := cfg.Plans.Stats()
	_, crashed := inputs(crash)
	inputs(crash)
	for i, in := range crashed {
		if in == cached[i] {
			t.Errorf("%s: node-crash cell ran on the cached fault-free stream", AllPolicies()[i].Name())
		}
	}
	if after := cfg.Plans.Stats(); after.TagStreams != before.TagStreams || after.Placements-before.Placements != 4 {
		t.Errorf("two passes of node-crash cells cached %d tag streams and built %d placements, want 0 and 4",
			after.TagStreams-before.TagStreams, after.Placements-before.Placements)
	}

	// Two policies with one placement build it once, and with it both kinds
	// its family consumes (the plan's stream and DeepIO's opportunistic
	// one); the third build is the plan stream's total.
	if n, p := run(config(), fig8Policy(NameDeepIOOrdered), NewLBANN(false)); n != 3 || p != 1 {
		t.Errorf("DeepIO (Ord.) + LBANN (Dynamic) built %d tag streams and %d placements, want 3 and 1", n, p)
	}

	// Two goroutines racing on one placement build it (and the total) once.
	cfg = config()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := Run(cfg, NewNoPFS()); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if st := cfg.Plans.Stats(); st.TagStreams != 2 || st.Placements != 1 {
		t.Errorf("two racing NoPFS cells built %d tag streams and %d placements, want 2 and 1", st.TagStreams, st.Placements)
	}
}

// planBytes is the byte charge of a plan's eager artifacts: epoch 0's order
// (the only one kept), streams and their epoch ends.
func planBytes(art *plancache.Artifacts) int64 {
	n := 4 * int64(len(art.EpochOrders[0]))
	for w, st := range art.Streams {
		n += 4*int64(len(st)) + 8*int64(len(art.EpochEnds[w]))
	}
	return n
}

// TestTagStreamTotalSummedOncePerDataset: every cell's TotalMB is, bit for
// bit, the in-order sum over the stream it consumes, and the plan's own
// stream is summed once per (plan, dataset) — a second node spec on the plan
// finds the total already there.
func TestTagStreamTotalSummedOncePerDataset(t *testing.T) {
	s, err := ScenarioByID("fig8b")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := s.Config(testScale, 1800)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Plans = plancache.New(0, 0)
	smaller := cfg
	smaller.Sys.Node.Classes = append([]hwspec.StorageClass(nil), cfg.Sys.Node.Classes...)
	smaller.Sys.Node.Classes[0].CapacityMB /= 2
	for i, cfg := range []Config{cfg, smaller} {
		for _, pol := range AllPolicies() {
			env, err := newEnv(&cfg)
			if err != nil {
				t.Fatal(err)
			}
			if i == 1 {
				env.Art.LeanInput(streamTotal, cfg.DS, hwspec.Node{}, nil, func(*cachepolicy.Assignment) *plancache.LeanInput {
					t.Fatalf("%s on a second node: plan stream total not shared", pol.Name())
					return nil
				})
			}
			in, _, err := env.prepare(pol)
			if err != nil {
				continue // LBANN (Preloading) cannot run every configuration
			}
			ts := in.Streams[pol.rule.stream]
			var want float64
			for _, k := range ts.Stream {
				want += env.SizesMB[k]
			}
			if ts.TotalMB != want {
				t.Errorf("%s: TotalMB %v, per-entry sum %v", pol.Name(), ts.TotalMB, want)
			}
		}
	}
}

// BenchmarkSimKernelWarm pins the kernel's per-fetch cost on warm cells —
// plan, placement and tags all cached: one argmin cell and one LowerBound
// cell, whose γ estimate underflows within the first epoch (the subnormal
// regression shows here as a several-fold ns/fetch), each with one prefetch
// thread, the panel's eight, and a pool wider than any preset's.
func BenchmarkSimKernelWarm(b *testing.B) {
	s, _ := ScenarioByID("fig8b")
	base, err := s.Config(0.05, 3)
	if err != nil {
		b.Fatal(err)
	}
	for _, pol := range []Policy{NewNoPFS(), NewLowerBound()} {
		for _, p0 := range []int{1, 8, 32} {
			cfg := base
			cfg.Sys.Node.Staging.Threads = p0
			b.Run(fmt.Sprintf("%s/p0=%d", pol.Name(), p0), func(b *testing.B) {
				warm, err := Run(cfg, pol)
				if err != nil {
					b.Fatal(err)
				}
				var fetches int64
				for _, n := range warm.LocCount {
					fetches += n
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := Run(cfg, pol); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(fetches), "ns/fetch")
			})
		}
	}
}
