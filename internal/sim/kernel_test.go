package sim

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
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
// its own least-loaded scan. It reads no tag and no sourceRule and shares no
// pool code with the kernel, so a wrong nibble, a wrong rule flag or a
// misordered pool shows up as a Result that differs from it.

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
// policy by policy.
func referenceSource(env *Env, pol Policy, f int, k access.SampleID) perfmodel.Choice {
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
	// First copy found serves, availability gated on the holder's progress
	// (DeepIO, LBANN).
	gatedFirstHit := func(a *cachepolicy.Assignment) perfmodel.Choice {
		if c := a.LocalAvail(0, k, int32(f)); c >= 0 {
			return local(c)
		}
		if c, w := a.RemoteAvail(0, k, int32(f)); c >= 0 {
			return remote(c, w)
		}
		return pfs(env.Gamma())
	}
	// Sec. 5.2 argmin over PFS, remote and local (NoPFS and its ablations).
	argmin := func(a *cachepolicy.Assignment, noRemote bool) perfmodel.Choice {
		rc, holder := -1, -1
		if !noRemote {
			rc, holder = a.RemoteAvail(0, k, int32(f))
		}
		ch := rate.Best(sz, a.LocalAvail(0, k, int32(f)), rc, env.Gamma())
		if ch.Loc == perfmodel.LocRemote {
			ch.Holder = int32(holder)
		}
		return ch
	}
	switch p := pol.(type) {
	case lowerBound:
		return perfmodel.Choice{Loc: perfmodel.LocLocal, Class: -1}
	case naive, stagingBuffer:
		return pfs(env.Plan.N)
	case *deepIO:
		return gatedFirstHit(p.assign)
	case *lbann:
		return gatedFirstHit(p.assign)
	case *parallelStaging:
		if c := p.assign.Local(0, k); c >= 0 {
			return local(c)
		}
		return pfs(env.Gamma())
	case *localityAware:
		if c := p.assign.Local(0, k); c >= 0 {
			return local(c)
		}
		if c, w := p.assign.RemoteBest(0, k); c >= 0 {
			return remote(c, w)
		}
		return pfs(env.Gamma())
	case *nopfs:
		return argmin(p.assign, false)
	case *nopfsAblated:
		return argmin(p.assign, p.v.NoRemote)
	}
	panic("referenceSource: unknown policy " + pol.Name())
}

// referenceStream is the stream the policy consumes, rebuilt from scratch.
func referenceStream(env *Env, pol Policy) []access.SampleID {
	switch p := pol.(type) {
	case *deepIO:
		if p.opportunistic {
			return opportunisticStream(env, p.assign)
		}
	case *parallelStaging:
		return shardCycleStream(env, p.assign)
	case *localityAware:
		return localityStream(env, p.assign)
	}
	return env.Streams[0]
}

// referenceRun is Run through the per-fetch loop.
func referenceRun(cfg Config, pol Policy) (*Result, error) {
	env, err := newEnv(&cfg)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Policy: pol.Name(), System: cfg.Sys.Name,
		LocSeconds: map[perfmodel.Location]float64{},
		LocCount:   map[perfmodel.Location]int64{},
	}
	setup, err := pol.Prepare(env)
	if err != nil {
		res.Failed, res.FailReason = true, err.Error()
		return res, nil
	}
	res.SetupSeconds = setup
	res.Coverage = pol.Coverage(env)
	stream, epochEnds := chaosStream(env, referenceStream(env, pol))
	if epochEnds == nil && env.Plan.Elastic() &&
		len(env.Art.EpochEnds) > 0 && len(stream) == len(env.Art.Streams[0]) {
		epochEnds = env.Art.EpochEnds[0]
	}

	var (
		n        = len(stream)
		sched    = env.Chaos
		workers  = env.Plan.N
		batch    = cfg.Work.BatchPerWorker
		c        = cfg.Work.ComputeMBps
		bufMB    = pol.StagingMB(env)
		syncRead = pol.Synchronous()
	)
	p0 := pol.PrefetchThreads(env)
	if p0 < 1 {
		p0 = 1
	}
	threads := newNaivePool(p0, setup)

	// The staging window, never elided: window[head:] are the staged samples,
	// each with the consume time that frees its bytes.
	type staged struct{ size, consume float64 }
	var window []staged
	head, inBufMB := 0, 0.0

	perEpoch := env.Plan.SamplesPerEpoch(0)
	if n > 0 {
		res.BatchSeconds = []float64{}
		res.EpochSeconds = []float64{}
	}
	epoch, nextEpochEnd := 0, perEpoch
	if len(epochEnds) > 0 {
		nextEpochEnd = epochEnds[0]
	}
	factors := func() (barrier, self float64) {
		if sched == nil {
			return 1, 1
		}
		return sched.BarrierFactor(epoch, workers), sched.Slowdown(0, epoch, workers)
	}
	barrier, self := factors()
	batchJitter := env.pfsJitter()
	for len(epochEnds) > 0 && epoch < len(epochEnds) && epochEnds[epoch] == 0 {
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
		choice := referenceSource(env, pol, f, k)
		hit := 0.0
		if choice.Loc == perfmodel.LocPFS {
			hit = 1
		}
		env.ewma += ewmaAlpha * (hit - env.ewma) // never flushed
		if choice.Loc == perfmodel.LocPFS {
			if conc := env.ewma * float64(p0); conc > 1 {
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
		for f+1 == nextEpochEnd && (len(epochEnds) == 0 || epoch < len(epochEnds)) {
			res.EpochSeconds = append(res.EpochSeconds, prevComputeDone-lastEpochEnd)
			lastEpochEnd = prevComputeDone
			epoch++
			if len(epochEnds) > 0 {
				if epoch < len(epochEnds) {
					nextEpochEnd = epochEnds[epoch]
				}
			} else {
				nextEpochEnd += perEpoch
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
	if len(res.EpochSeconds) < env.Plan.E && n > 0 && prevComputeDone > lastEpochEnd {
		res.EpochSeconds = append(res.EpochSeconds, prevComputeDone-lastEpochEnd)
	}
	return res, nil
}

// kernelPolicies returns fresh instances of every policy the kernel serves:
// the Fig. 8 panel plus the three NoPFS ablations.
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
						if cfg.Validate() != nil {
							continue // elastic × crash: rejected, see TestElasticRejectsStructuralChaos
						}
						fast, slow := kernelPolicies(), kernelPolicies()
						for i := range fast {
							got, err := Run(cfg, fast[i])
							if err != nil {
								t.Fatalf("%s: %v", fast[i].Name(), err)
							}
							want, err := referenceRun(cfg, slow[i])
							if err != nil {
								t.Fatalf("%s reference: %v", slow[i].Name(), err)
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

// coldSeeds numbers the configs the cold-path tests of this package have
// used in this process.
var coldSeeds atomic.Uint64

// tagProbe reports how many tag streams and reordered policy streams f built.
func tagProbe(f func()) (tags, streams int64) {
	tags, streams = cachepolicy.TagBuildCount(), policyStreamBuilds.Load()
	f()
	return cachepolicy.TagBuildCount() - tags, policyStreamBuilds.Load() - streams
}

// TestTagStreamsBuiltOncePerPlacement pins the cache contract of the
// kernel's input: tag streams and reordered streams are built once per
// (placement, stream kind) however many cells consume them.
func TestTagStreamsBuiltOncePerPlacement(t *testing.T) {
	s, err := ScenarioByID("fig8b")
	if err != nil {
		t.Fatal(err)
	}
	// Fresh seeds on every execution: the shared plan cache outlives the test
	// (-count > 1), and a seed it has seen is not cold.
	config := func() Config {
		cfg, err := s.Config(testScale, 1800+coldSeeds.Add(1))
		if err != nil {
			t.Fatal(err)
		}
		return cfg
	}
	run := func(cfg Config, pols ...Policy) {
		for _, pol := range pols {
			if _, err := Run(cfg, pol); err != nil {
				t.Error(err)
			}
		}
	}

	// A cold panel builds one tag stream per (placement, stream kind) — first
	// touch × {plan, opportunistic}, shard × {cycle, locality}, preload, NoPFS
	// — and the three reordered streams; a second pass builds nothing.
	cfg := config()
	if tags, streams := tagProbe(func() { run(cfg, AllPolicies()...) }); tags != 6 || streams != 3 {
		t.Errorf("cold panel built %d tag streams and %d policy streams, want 6 and 3", tags, streams)
	}
	if tags, streams := tagProbe(func() { run(cfg, AllPolicies()...) }); tags != 0 || streams != 0 {
		t.Errorf("warm panel built %d tag streams and %d policy streams, want none", tags, streams)
	}
	// A jitter or non-structural chaos profile changes neither placement nor
	// stream, so it finds the tags of the fault-free cells.
	slow := cfg
	slow.PFSJitter = 0.5
	slow.Chaos, err = chaos.PresetByName("flaky-fabric")
	if err != nil {
		t.Fatal(err)
	}
	if tags, _ := tagProbe(func() { run(slow, NewNoPFS(), NewDeepIO(false)) }); tags != 0 {
		t.Errorf("chaos cells on a tagged placement built %d tag streams, want 0", tags)
	}

	// Two policies with one placement and one stream share one tag stream.
	cfg = config()
	if tags, _ := tagProbe(func() { run(cfg, NewDeepIO(false), NewLBANN(false)) }); tags != 1 {
		t.Errorf("DeepIO (Ord.) + LBANN (Dynamic) built %d tag streams, want 1", tags)
	}

	// Two goroutines racing on one placement build it once.
	cfg = config()
	if tags, _ := tagProbe(func() {
		var wg sync.WaitGroup
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				run(cfg, NewNoPFS())
			}()
		}
		wg.Wait()
	}); tags != 1 {
		t.Errorf("two racing NoPFS cells built %d tag streams, want 1", tags)
	}
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
	cfg, err := s.Config(testScale, 1800+coldSeeds.Add(1))
	if err != nil {
		t.Fatal(err)
	}
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
				env.Art.TagStream("", cfg.DS, hwspec.Node{}, streamTotal, func() *plancache.TagStream {
					t.Fatalf("%s on a second node: plan stream total not shared", pol.Name())
					return nil
				})
			}
			if _, err := pol.Prepare(env); err != nil {
				continue // LBANN (Preloading) cannot run every configuration
			}
			in := env.kernelInput(pol.rule())
			var want float64
			for _, k := range in.Stream {
				want += env.SizesMB[k]
			}
			if in.TotalMB != want {
				t.Errorf("%s: TotalMB %v, per-entry sum %v", pol.Name(), in.TotalMB, want)
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
