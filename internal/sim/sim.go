// Package sim is the I/O performance simulator of paper Sec. 6.
//
// It executes the Sec. 4 performance model in virtual time for one
// representative worker (workers are symmetric: same policy, same per-epoch
// work, synchronised by the allreduce in every iteration), modelling:
//
//   - the staging buffer as a byte-budget circular window filled by p₀
//     prefetch threads in access order (Rule 1);
//   - the consumption recurrence t_{i,f} = max(avail_i(f), t_{i,f-1} +
//     s_{R_{f-1}}/c);
//   - source selection per policy, with per-location time accounting: which
//     copies of a sample exist at each stream position is decoded once per
//     (placement, stream) into a cached source-tag stream, and each policy
//     states as data how a tag becomes a fetch (sourceRule);
//   - PFS contention through t(γ), with γ adapting to the fraction of
//     recent fetches that actually hit the PFS;
//   - optional log-normal jitter on PFS fetches, reproducing the tail
//     events ("catastrophically slow reads") the paper observes on shared
//     filesystems.
//
// One loop (simulate) runs every policy, access pattern, elastic membership
// schedule and chaos profile; there is no second kernel.
//
// A Policy is an immutable value — one row of a table (policies.go) — and
// carries no run state, so one value may serve any number of runs at once.
//
// The simulator is not meant to predict absolute runtimes of a particular
// machine; like the paper's, it captures the relative behaviour of I/O
// policies across dataset/storage-hierarchy regimes.
package sim

import (
	"cmp"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/access"
	"repro/internal/cachepolicy"
	"repro/internal/chaos"
	"repro/internal/dataset"
	"repro/internal/hwspec"
	"repro/internal/perfmodel"
	"repro/internal/plancache"
	"repro/internal/prng"
)

// Config describes one simulation run.
type Config struct {
	Sys  hwspec.System
	Work hwspec.Workload
	// DS provides sample count and sizes; payloads are never touched.
	DS dataset.Dataset
	// Seed drives the training shuffles (clairvoyance) and the jitter
	// stream.
	Seed uint64
	// PFSJitter is the σ of a mean-one log-normal multiplier applied to
	// PFS fetch times (0 disables jitter).
	PFSJitter float64
	// DropLast drops trailing partial batches.
	DropLast bool
	// Chaos is the fault/degradation scenario (see internal/chaos). The
	// zero value injects nothing and reproduces the fault-free simulation
	// byte for byte.
	Chaos chaos.Profile
	// Access is the canonical access-pattern spec ("" = the classic uniform
	// per-epoch shuffle; see access.ParseAccessSpec). Entry points must
	// canonicalize with access.CanonicalSpec before stamping it so equal
	// patterns share plan-cache entries and memoised sweep results.
	Access string
	// Plans is the cache the run reads its plan artifacts from; nil means
	// the process-wide plancache.Shared().
	Plans *plancache.Cache
}

// Plan derives the access plan implied by the config.
func (c *Config) Plan() *access.Plan {
	return &access.Plan{
		Seed: c.Seed, F: c.DS.Len(), N: c.Work.Workers, E: c.Work.Epochs,
		BatchPerWorker: c.Work.BatchPerWorker, DropLast: c.DropLast,
		Access: c.Access,
	}
}

// Validate reports whether the config is runnable.
func (c *Config) Validate() error {
	if c.DS == nil {
		return fmt.Errorf("sim: config needs a dataset")
	}
	if err := c.Sys.Validate(); err != nil {
		return err
	}
	if err := c.Work.Validate(); err != nil {
		return err
	}
	if err := c.Chaos.Validate(); err != nil {
		return err
	}
	if _, err := c.Chaos.Compile(c.Seed).Survivor(c.Work.Workers); err != nil {
		return err
	}
	if err := c.Plan().Validate(); err != nil {
		return err
	}
	if n := len(c.Sys.Node.Classes); n > cachepolicy.MaxTagClasses {
		return fmt.Errorf("sim: node has %d storage classes, at most %d are supported", n, cachepolicy.MaxTagClasses)
	}
	return nil
}

// Result summarises one simulated run.
type Result struct {
	Policy string
	System string
	// Failed is set when the policy cannot run the scenario (e.g. the
	// LBANN data store with a dataset exceeding aggregate RAM).
	Failed     bool
	FailReason string

	// ExecSeconds is total wall time: setup (prestaging) + training.
	ExecSeconds  float64
	SetupSeconds float64
	// EpochSeconds[e] is the duration of epoch e (epoch 0 includes setup).
	EpochSeconds []float64
	// BatchSeconds holds per-batch durations of the simulated worker.
	BatchSeconds []float64
	// StallSeconds is total time the trainer waited on the staging buffer.
	StallSeconds float64
	// Per-location fetch time and counts; StagingWriteSeconds is the
	// preprocess+store component (the paper's "Staging Buffer" segment).
	LocSeconds          map[perfmodel.Location]float64
	LocCount            map[perfmodel.Location]int64
	StagingWriteSeconds float64
	// Coverage is the fraction of dataset bytes the policy ever reads
	// (< 1 flags the paper's "does not access entire dataset").
	Coverage float64
	// RemoteFalsePositives counts remote fetches whose fabric draw failed
	// (the live path's false positive: the holder did not serve).
	RemoteFalsePositives int64
}

// Env is the shared state policies consult during a run.
type Env struct {
	Cfg *Config
	// Rate is the config's performance model compiled to constant
	// per-source rates: the hot loop's and the policies' fetch-time oracle.
	Rate    *perfmodel.Rates
	Plan    *access.Plan
	SizesMB []float64
	// MeanMB is the mean of SizesMB (0 for an empty table).
	MeanMB float64
	// Art is the plan's cached artifact set: its streams, epoch orders and
	// the kernel inputs of its placements. It is immutable: policies that
	// reorder build fresh slices.
	Art *plancache.Artifacts
	// Chaos is the compiled fault schedule (nil for the fault-free run).
	Chaos *chaos.Schedule

	// obs is the rank the run observes: its stream, its placement tables and
	// its chaos factors are the simulated worker's. It is the lowest rank the
	// crash schedule never crashes, so 0 on a fault-free cell.
	obs  int
	rng  *prng.Generator
	ewma float64 // recent fraction of staging fetches served by the PFS
}

// newEnv builds the environment shared by all policies for one config. Plan
// artifacts come from the config's plan cache: all P policy cells sharing
// one (scenario, replica seed) and cache perform one shuffle pass instead of
// P (replicas carry distinct derived seeds, so a P×R grid does R passes, not
// P×R).
func newEnv(cfg *Config) (*Env, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	model, err := perfmodel.New(cfg.Sys, cfg.Work)
	if err != nil {
		return nil, err
	}
	plan := cfg.Plan()
	sizes, mean := sizeTable(cfg.DS)
	art := cmp.Or(cfg.Plans, plancache.Shared()).Artifacts(*plan)
	sched := cfg.Chaos.Compile(cfg.Seed)
	obs, _ := sched.Survivor(plan.N) // Validate rejected a schedule without one
	return &Env{
		Cfg: cfg, Rate: model.Compile(plan.N), Plan: plan,
		SizesMB: sizes, MeanMB: mean, Art: art,
		Chaos: sched, obs: obs,
		rng:  prng.New(cfg.Seed).Derive(0x51),
		ewma: 1, // epoch 0 starts all-PFS
	}, nil
}

// sizeTable returns the dataset's per-sample sizes in MB and their mean.
// Synthetic datasets carry both precomputed (one table per dataset object —
// sweep cells share objects through dataset.Cached); other implementations
// get a fresh table. The returned slice is read-only.
func sizeTable(ds dataset.Dataset) (sizes []float64, mean float64) {
	if d, ok := ds.(interface {
		SizesMB() []float64
		MeanSizeMB() float64
	}); ok {
		return d.SizesMB(), d.MeanSizeMB()
	}
	sizes = make([]float64, ds.Len())
	var sum float64
	for k := range sizes {
		sizes[k] = float64(ds.Size(k)) / (1 << 20)
		sum += sizes[k]
	}
	if len(sizes) > 0 {
		mean = sum / float64(len(sizes))
	}
	return sizes, mean
}

// placement builds the family's placement in this environment, nil for the
// empty family: first touch for DeepIO and the dynamic LBANN data store, the
// static shard for ParallelStaging and LocalityAware, and the
// frequency-based assignment (or its first-access-order ablation) for the
// NoPFS variants, whose candidate ranking is a plan artifact of its own, so
// the node specs of an environment study on one plan rank once. The build
// tracks local tables for the observed rank only: O(F) at any cluster size,
// but 12 B per sample, so only crash cells keep one (runInput; leanInput
// drops it).
func (e *Env) placement(family string) *cachepolicy.Assignment {
	ds, node := e.Cfg.DS, e.Cfg.Sys.Node
	switch family {
	case plancache.FamilyNoPFS, plancache.FamilyRandom:
		return e.Art.Rank(family == plancache.FamilyNoPFS).Fill(ds, node, e.obs)
	case plancache.FamilyFirstTouch:
		return cachepolicy.BuildFirstTouchFromOrder(e.Plan, e.Art.EpochOrders[0], ds, node, e.obs)
	case plancache.FamilyShard:
		return cachepolicy.BuildShard(e.Plan.F, e.Plan.N, ds, node, e.obs)
	case plancache.FamilyPreload:
		return cachepolicy.BuildPreload(e.Plan.F, e.Plan.N, ds, node, e.obs)
	}
	return nil
}

// gammaFor estimates γ, the number of workers concurrently reading from
// the PFS, from the recent PFS hit fraction ewma: workers are symmetric, so
// the cluster-wide reader count is N times the local fraction.
func gammaFor(ewma, workers float64) int {
	g := int(math.Round(ewma * workers))
	if g < 1 {
		g = 1
	}
	return g
}

const (
	// ewmaAlpha is the γ-estimate smoothing factor.
	ewmaAlpha = 0.02
	// ewmaFlush is where a decaying γ estimate is flushed to exactly 0. Left
	// alone it shrinks by 0.98 per fetch that misses the PFS, goes subnormal
	// after ≈ 35 000 of them in a row (every cache-served policy gets there)
	// and then sits at the smallest subnormal, where each further update is a
	// microcoded floating-point assist. Nothing can observe the flush: below
	// any threshold in (2⁻¹⁰²², 2⁻⁶⁰) round(ewma·N) is 0, so γ clamps to 1;
	// ewma·p₀ > 1 is false; a PFS hit gives e + α·(1 − e) == α bit for bit,
	// as it does from 0; and a miss stays below the threshold.
	ewmaFlush = 0x1p-100
)

// gammaHit and gammaMiss fold one fetch outcome — served by the PFS or not —
// into the γ estimate.
func gammaHit(ewma float64) float64 { return ewma + ewmaAlpha*(1-ewma) }

func gammaMiss(ewma float64) float64 {
	ewma += ewmaAlpha * (0 - ewma)
	if ewma < ewmaFlush {
		return 0
	}
	return ewma
}

// pfsJitter returns a mean-one log-normal multiplier.
func (e *Env) pfsJitter() float64 {
	sigma := e.Cfg.PFSJitter
	if sigma == 0 {
		return 1
	}
	return math.Exp(sigma*e.rng.NormFloat64() - sigma*sigma/2)
}

// ColdCost estimates the work of running pol under cfg with nothing cached,
// in stream positions walked: the simulated worker's E·F/N positions times
// the passes the policy's rule declares — one for the kernel; with a
// placement, one to tag the stream and one to place it, except that a ranked
// placement (nopfs, random) ranks and fills over all N workers' streams; one
// more for a stream the policy builds itself. It orders cells for dispatch
// (longest first) and is no prediction of seconds: shared artifacts and
// policies that cannot run the scenario are not modelled. A config Run would
// reject costs 0.
func ColdCost(cfg *Config, pol Policy) int64 {
	if cfg.Validate() != nil {
		return 0
	}
	plan, rule := cfg.Plan(), pol.rule
	passes := 1
	switch rule.family {
	case "":
	case plancache.FamilyNoPFS, plancache.FamilyRandom:
		passes += 1 + 2*plan.N
	default:
		passes += 2
	}
	if rule.stream != "" {
		passes++
	}
	return int64(plan.StreamLen(0)) * int64(passes)
}

// Run simulates one policy under the config, with the policy's
// preprocessing factor applied to the workload.
func Run(cfg Config, pol Policy) (*Result, error) {
	if pol.preproc > 0 {
		cfg.Work.PreprocMBps *= pol.preproc
	}
	env, err := newEnv(&cfg)
	if err != nil {
		return nil, err
	}
	return env.run(pol), nil
}

func (env *Env) run(pol Policy) *Result {
	res := &Result{
		Policy:     pol.Name(),
		System:     env.Cfg.Sys.Name,
		LocSeconds: map[perfmodel.Location]float64{},
		LocCount:   map[perfmodel.Location]int64{},
	}
	in, setup, err := env.prepare(pol)
	if err != nil {
		res.Failed = true
		res.FailReason = err.Error()
		return res
	}
	res.SetupSeconds = setup
	res.Coverage = 1
	if pol.partial {
		res.Coverage = in.Coverage
	}
	simulate(env, pol, env.runInput(pol.rule, in), setup, res)
	return res
}

// runInput returns the tagged stream the kernel runs under rule, as cached.
// A crash redistributes the crashed workers' plan (as the live job does, for
// the observed rank, which never crashes) into a stream tagged here,
// uncached, without a holder's copies from its crash epoch on. Its placement
// is cached, one per family and observed rank for all crash cells: a build
// per cell made `sim -all -scale 0.05 -chaos node-crash` 8–16 % slower.
func (env *Env) runInput(rule sourceRule, in *plancache.LeanInput) *plancache.TagStream {
	ts, n := in.Streams[rule.stream], env.Plan.N
	if !env.Chaos.HasCrashes(n) {
		return ts
	}
	stream, ends := env.Chaos.RedistributeStream(env.obs, n, ts.Stream, ts.Ends, env.planStream)
	out := &plancache.TagStream{Stream: stream, Ends: ends, TotalMB: env.sumMB(stream)}
	if rule.family != "" {
		place := env.Art.Placement(rule.family, env.Cfg.DS, env.Cfg.Sys.Node, env.obs, func() *cachepolicy.Assignment { return env.placement(rule.family) })
		gone := func(h, pos int) bool { return env.Chaos.CrashedAt(h, sort.SearchInts(ends, pos+1), n) }
		out.Tags = place.Tags(env.obs, stream, gone)
	}
	return out
}

// stagingCompactMin is the staging-window compaction threshold: once at
// least this many consumed slots have accumulated at the front of the
// window slice AND they outnumber the live tail, the live entries are
// copied down and the dead prefix reclaimed. Large enough that compaction
// cost (a memmove of the live tail) amortises to O(1) per sample; small
// enough that the dead prefix never dominates the slice's footprint.
const stagingCompactMin = 4096

// numLocations sizes the per-location accounting arrays (LocPFS, LocRemote,
// LocLocal are contiguous small ints).
const numLocations = int(perfmodel.LocLocal) + 1

// windowArena is the pooled struct-of-arrays backing of the staging window:
// parallel slices of staged sizes and of the consume times that free their
// bytes. SoA keeps the admission loop's two streams of float64 reads dense.
type windowArena struct {
	size, consume []float64
}

// windowPool recycles simulate's staging-window backing arrays across runs.
var windowPool = sync.Pool{
	New: func() any {
		return &windowArena{
			size:    make([]float64, 0, 1024),
			consume: make([]float64, 0, 1024),
		}
	},
}

// simulateCount counts simulate() executions process-wide. The dry-run test
// asserts with it that explaining a grid simulates one NoPFS run per
// scenario and no sweep cell; outside the tests, benchmark/simtrace.go is
// its last reader (sim.simulate_count).
var simulateCount atomic.Int64

// SimulateCount returns the number of simulate() executions so far.
func SimulateCount() int64 { return simulateCount.Load() }

// threadPool is the free times of the p₀ prefetch threads, kept ascending:
// the least-loaded thread is free[0].
type threadPool struct {
	free []float64
}

func newThreadPool(p0 int, setup float64) threadPool {
	free := make([]float64, p0)
	for i := range free {
		free[i] = setup
	}
	return threadPool{free: free}
}

// schedule assigns one fetch of duration readDur to the least-loaded
// thread, starting no earlier than roomTime, and returns the fetch's
// completion time. The completion time takes the place of free[0] and the
// smaller entries shift down past it; which thread serves a fetch is
// unobservable, only the multiset of free times is.
func (t *threadPool) schedule(roomTime, readDur float64) float64 {
	free := t.free
	start := free[0]
	if roomTime > start {
		start = roomTime
	}
	avail := start + readDur
	j := 1
	for ; j < len(free) && free[j] < avail; j++ {
		free[j-1] = free[j]
	}
	free[j-1] = avail
	return avail
}

// pfsShare is a PFS read's seconds in a batch of the given jitter, on one of
// conc threads (the recent PFS fraction times p₀) that divide the node's
// share t(γ)/γ rather than multiply it.
func pfsShare(sec, conc, jitter float64) float64 {
	if conc > 1 {
		sec *= conc
	}
	return sec * jitter
}

// sourceRule is a policy's answer to "where may a fetch come from", stated
// once as data. Together with a placement and a stream it determines one
// source tag per stream position (see cachepolicy.Tags); the kernel turns a
// tag into a fetch by this rule and carries only the float recurrence.
//
// Availability needs no flag: it is always the placement's own — gated on
// the holder's progress for copies made during training (Sec. 5.2.2),
// unconditional for prestaged shards — and a policy with no placement finds
// nothing cached anywhere. Nor does the PFS reader count: a policy that only
// ever reads the PFS keeps the γ estimate at exactly 1, i.e. γ = N.
type sourceRule struct {
	// family names the placement whose kernel input the policy reads from
	// the plan cache ("": none).
	family string
	// stream names the stream the policy consumes: one of the reorderings
	// in streamBuilders, or "" for the plan's own.
	stream string
	// noRemote forbids peer fetches (ParallelStaging, the NoRemote ablation).
	noRemote bool
	// argmin picks the fastest of PFS, remote and local by the Sec. 5.2 rule;
	// otherwise the first of local, remote, PFS that has the sample serves.
	argmin bool
	// free makes every fetch cost nothing (LowerBound).
	free bool
}

// leanInput returns the family's kernel input from the plan cache (the empty
// family's: the plan's own stream, untagged). A cold entry builds the
// placement once, derives every stream kind the family's policies consume
// and the scalars they read from it, and drops it.
func (e *Env) leanInput(family string) *plancache.LeanInput {
	var place func() *cachepolicy.Assignment
	if family != "" {
		place = func() *cachepolicy.Assignment { return e.placement(family) }
	}
	return e.Art.LeanInput(family, e.Cfg.DS, e.Cfg.Sys.Node, e.obs, place, func(a *cachepolicy.Assignment) *plancache.LeanInput {
		kinds, partial := familyUse(family)
		in := &plancache.LeanInput{Streams: make(map[string]*plancache.TagStream, len(kinds))}
		for _, kind := range kinds {
			in.Streams[kind] = e.tagStream(a, kind)
		}
		if a != nil {
			in.CachedBytes = a.CachedBytes[e.obs]
			if partial {
				in.Coverage = a.Coverage(e.Cfg.DS)
			}
		}
		return in
	})
}

// tagStream derives the stream of one kind under placement a (nil: none)
// with its tags and byte total.
func (e *Env) tagStream(a *cachepolicy.Assignment, kind string) *plancache.TagStream {
	ts := &plancache.TagStream{Stream: e.Art.Streams[e.obs], Ends: e.Art.EpochEnds[e.obs]}
	if build := streamBuilders[kind]; build != nil {
		ts.Stream, ts.Ends = build(e, a)
		ts.OwnStream, ts.TotalMB = true, e.sumMB(ts.Stream)
	} else {
		// The plan's own stream has one total under every placement and
		// node: summed once per dataset and rank, in an entry under the
		// zero node.
		ts.TotalMB = e.Art.LeanInput(streamTotal, e.Cfg.DS, hwspec.Node{}, e.obs, nil, func(*cachepolicy.Assignment) *plancache.LeanInput {
			return &plancache.LeanInput{Streams: map[string]*plancache.TagStream{
				streamTotal: {Stream: ts.Stream, TotalMB: e.sumMB(ts.Stream)},
			}}
		}).Streams[streamTotal].TotalMB
	}
	if a != nil {
		ts.Tags = a.Tags(e.obs, ts.Stream, nil)
	}
	return ts
}

// streamTotal keys the plan's own byte total: the pseudo-family of the entry
// tagStream keeps it in, and that entry's one stream kind. No policy places
// or consumes it.
const streamTotal = "total"

// planStream returns worker w's plan stream and its epoch ends.
func (e *Env) planStream(w int) ([]access.SampleID, []int) {
	return e.Art.Streams[w], e.Art.EpochEnds[w]
}

// sumMB returns stream's byte total, summed in stream order.
func (e *Env) sumMB(stream []access.SampleID) (mb float64) {
	for _, k := range stream {
		mb += e.SizesMB[k]
	}
	return mb
}

// simulate runs the staging-pipeline model over the tagged stream. It is the
// simulator's only fetch loop: every policy, elastic plan and chaos schedule
// runs through it, and what differs between them is data — the tags, the
// rule, the boundaries, the schedule.
//
// The loop is event-driven: the stream is cut into segments bounded by the
// next batch edge and the next epoch boundary — the only places where jitter
// is redrawn, series are recorded, or chaos factors re-resolve — so the inner
// loop carries no boundary checks, and all of its state lives in locals.
// Every Result is bit-identical to the per-fetch reference loop in
// kernel_test.go, which asks the Assignment accessors about every fetch: the
// same float operations run in the same order.
//
// in.Ends carries the cumulative stream position at which each epoch ends
// (crash redistribution, elastic membership and reordering policies make
// epochs unequal).
func simulate(env *Env, pol Policy, in *plancache.TagStream, setup float64, res *Result) {
	simulateCount.Add(1)
	var (
		stream, sizes = in.Stream, env.SizesMB
		epochEnds     = in.Ends
		n             = len(stream)
		batch         = env.Cfg.Work.BatchPerWorker
		rate          = env.Rate
		sched         = env.Chaos
		nWorkers      = float64(env.Plan.N)
		c             = env.Cfg.Work.ComputeMBps
		wr            = rate.WriteRate()
		rule          = pol.rule
		bufMB         = pol.window.mb(env)
		syncRead      = pol.sync // Naive: the trainer issues its own reads
		p0            = 1
	)
	if pol.nodeThreads {
		p0 = max(env.Cfg.Sys.Node.Staging.Threads, 1)
	}
	p0f := float64(p0)
	threads := newThreadPool(p0, setup)

	// Tags: a policy without a placement has the same tag at every position
	// (0, no copy anywhere), so one batch-long run of it stands in for the
	// stream's.
	tags, mask := in.Tags, byte(0xff)
	if rule.noRemote {
		mask = 0x0f
	}
	segSizes := make([]float64, batch)
	var constTags []byte
	if tags == nil {
		constTags = make([]byte, batch)
	}

	// Staging window (SoA, pooled), elided when the whole stream fits the
	// staging buffer: inBufMB is the running prefix sum of staged sizes minus
	// evictions; with no evictions the admission check compares exactly the
	// next prefix sum against bufMB, so "total stream bytes fit" (the same
	// ordered sum, kept beside the tags) proves the admission loop can never
	// trigger and the window contents are unobservable. Common at paper
	// operating points where the staging buffer exceeds the epoch working set.
	window := !syncRead && in.TotalMB > bufMB
	var (
		wa                  *windowArena
		winSize, winConsume []float64
		head                int
		inBufMB             float64
	)
	if window {
		wa = windowPool.Get().(*windowArena)
		winSize, winConsume = wa.size[:0], wa.consume[:0]
	}

	if n > 0 {
		res.BatchSeconds = make([]float64, 0, (n+batch-1)/batch+1)
		res.EpochSeconds = make([]float64, 0, len(epochEnds))
	}

	// Chaos multipliers are epoch-constant: resolve them at boundaries, not
	// per sample (a nil schedule's are 1). barrier paces the allreduce when
	// a peer straggles; self slows this worker's own prefetch threads.
	barrier, self := sched.BarrierFactor(env.obs, 0, env.Plan.N), sched.Slowdown(env.obs, 0, env.Plan.N)

	// PFS slowness is bursty system noise, not i.i.d. per sample: one slow
	// OST or contention spike delays every read issued in that window. We
	// model it as one jitter draw per batch, which is what produces the
	// paper's order-of-magnitude batch-time tail events for PFS-bound
	// loaders while averaging out for cache-served ones. The draw happens
	// at every batch edge — segment starts aligned to one.
	batchJitter := env.pfsJitter()

	// Epoch tracking: nextEpochEnd is the current epoch's end, -1 past the
	// last one (it never fires again). Elastic membership can leave the
	// worker inactive in leading epochs (cumulative ends still at position
	// 0): fire those boundaries before any samples run so epoch accounting
	// and chaos factors stay aligned.
	epoch, nextEpochEnd := 0, -1
	for epoch < len(epochEnds) && epochEnds[epoch] == 0 {
		res.EpochSeconds = append(res.EpochSeconds, 0)
		epoch++
		barrier, self = sched.BarrierFactor(env.obs, epoch, env.Plan.N), sched.Slowdown(env.obs, epoch, env.Plan.N)
	}
	if epoch < len(epochEnds) {
		nextEpochEnd = epochEnds[epoch]
	}

	// Accumulators folded into res after the loop; scalar accumulation
	// performs the identical sequence of float adds per-fetch updates of the
	// res fields would.
	var (
		locSec              [numLocations]float64
		locCnt              [numLocations]int64
		stall, stagingWrite float64
	)
	ewma := env.ewma
	prevComputeDone, lastBatchEnd, lastEpochEnd := setup, setup, setup

	for f := 0; f < n; {
		if f%batch == 0 {
			batchJitter = env.pfsJitter()
		}
		// Segment: up to the next batch edge, capped by the next epoch
		// boundary (a stale boundary at or before f never fires again).
		stop := f - f%batch + batch
		if nextEpochEnd > f && nextEpochEnd < stop {
			stop = nextEpochEnd
		}
		if stop > n {
			stop = n
		}
		ks := stream[f:stop]
		seg := constTags
		if tags != nil {
			seg = tags[f:stop]
		}
		seg = seg[:len(ks)]
		// Gather the segment's sizes first: the table is indexed at random,
		// and here the misses overlap instead of stalling the recurrence one
		// at a time.
		szs := segSizes[:len(ks)]
		for i, k := range ks {
			szs[i] = sizes[k]
		}

		for i, sz := range szs {

			// Source: decode the tag by the policy's rule. Fetch times are the
			// divisions Rates.Best / FetchLocal / FetchRemote / FetchPFS make,
			// compared in Best's order, so ties break the same way.
			tag := seg[i] & mask
			lc, rc := int(tag&0x0f), int(tag>>4) // class + 1; 0: no copy
			loc, cls, sec := perfmodel.LocPFS, -1, 0.0
			switch {
			case rule.free:
				loc = perfmodel.LocLocal
			case rule.argmin:
				sec = sz / rate.PFSRate(gammaFor(ewma, nWorkers))
				if rc != 0 {
					if t := sz / rate.RemoteRate(rc-1); t < sec {
						loc, cls, sec = perfmodel.LocRemote, rc-1, t
					}
				}
				if lc != 0 {
					if t := sz / rate.LocalRate(lc-1); t < sec {
						loc, cls, sec = perfmodel.LocLocal, lc-1, t
					}
				}
			case lc != 0:
				loc, cls, sec = perfmodel.LocLocal, lc-1, sz/rate.LocalRate(lc-1)
			case rc != 0:
				loc, cls, sec = perfmodel.LocRemote, rc-1, sz/rate.RemoteRate(rc-1)
			default:
				sec = sz / rate.PFSRate(gammaFor(ewma, nWorkers))
			}

			// γ estimation folds the policy's decision, not the
			// chaos-perturbed outcome: faults stretch durations without
			// feeding back into the contention heuristic, which keeps the
			// fault-free run bit-identical and makes fault injection monotone
			// (see internal/invariant).
			if loc == perfmodel.LocPFS {
				ewma = gammaHit(ewma)
				sec = pfsShare(sec, ewma*p0f, batchJitter)
			} else {
				ewma = gammaMiss(ewma)
			}
			if sched != nil { // per-fetch faults (chaos.go)
				sec *= tierFactor(sched, epoch, loc, cls)
				if loc == perfmodel.LocRemote {
					delay, fail := sched.FabricCall(env.obs, uint64(f+i), 0)
					sec += delay
					if fail {
						// The failed attempt stays paid; the rule picks again
						// without the holder (first-available: the PFS).
						c := rate.Best(sz, lc-1, -1, gammaFor(ewma, nWorkers))
						if c.Loc == perfmodel.LocPFS {
							c.Seconds = pfsShare(c.Seconds, ewma*p0f, batchJitter)
						}
						sec += c.Seconds * tierFactor(sched, epoch, c.Loc, c.Class)
						res.RemoteFalsePositives++
					}
				}
			}
			write := sz / wr
			locSec[loc] += sec
			locCnt[loc]++
			stagingWrite += write
			readDur := sec + write
			if self != 1 {
				// Straggler self-slowdown: every prefetch thread of this
				// worker runs factor× slower.
				readDur *= self
			}

			// Staging pipeline: admission (buffer room), then the least-loaded
			// prefetch thread picks the fetch up.
			var avail float64
			if syncRead {
				avail = prevComputeDone + readDur
			} else {
				roomTime := setup
				if window {
					for inBufMB+sz > bufMB && head < len(winSize) {
						inBufMB -= winSize[head]
						if done := winConsume[head]; done > roomTime {
							roomTime = done
						}
						head++
					}
				}
				avail = threads.schedule(roomTime, readDur)
			}

			// Consumption recurrence (paper Sec. 4). barrier > 1 paces every
			// iteration at the slowest surviving peer's rate (allreduce).
			consume := prevComputeDone
			if avail > consume {
				stall += avail - consume
				consume = avail
			}
			prevComputeDone = consume + sz/c*barrier

			if window {
				winSize = append(winSize, sz)
				winConsume = append(winConsume, consume)
				inBufMB += sz
				// Periodically compact the window slices.
				if head > stagingCompactMin && head*2 > len(winSize) {
					winSize = append(winSize[:0], winSize[head:]...)
					winConsume = append(winConsume[:0], winConsume[head:]...)
					head = 0
				}
			}
		}
		f = stop

		if f%batch == 0 || f == n {
			res.BatchSeconds = append(res.BatchSeconds, prevComputeDone-lastBatchEnd)
			lastBatchEnd = prevComputeDone
		}
		// A loop rather than a single check: elastic membership can leave
		// the worker with zero samples in an epoch (consecutive equal
		// ends), so several boundaries may fire at one stream position.
		for f == nextEpochEnd {
			res.EpochSeconds = append(res.EpochSeconds, prevComputeDone-lastEpochEnd)
			lastEpochEnd = prevComputeDone
			epoch++
			nextEpochEnd = -1
			if epoch < len(epochEnds) {
				nextEpochEnd = epochEnds[epoch]
			}
			barrier, self = sched.BarrierFactor(env.obs, epoch, env.Plan.N), sched.Slowdown(env.obs, epoch, env.Plan.N)
		}
	}
	env.ewma = ewma
	if wa != nil {
		wa.size, wa.consume = winSize[:0], winConsume[:0]
		windowPool.Put(wa)
	}

	res.StallSeconds = stall
	res.StagingWriteSeconds = stagingWrite
	for l := 0; l < numLocations; l++ {
		// Fold only locations that saw a fetch, matching the key set
		// per-fetch map writes would produce.
		if locCnt[l] > 0 {
			res.LocSeconds[perfmodel.Location(l)] += locSec[l]
			res.LocCount[perfmodel.Location(l)] += locCnt[l]
		}
	}
	res.ExecSeconds = prevComputeDone
}
