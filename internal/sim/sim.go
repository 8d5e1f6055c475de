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
// The simulator is not meant to predict absolute runtimes of a particular
// machine; like the paper's, it captures the relative behaviour of I/O
// policies across dataset/storage-hierarchy regimes.
package sim

import (
	"bytes"
	"fmt"
	"math"
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
	if err := c.Plan().Validate(); err != nil {
		return err
	}
	if n := len(c.Sys.Node.Classes); n > cachepolicy.MaxTagClasses {
		return fmt.Errorf("sim: node has %d storage classes, at most %d are supported", n, cachepolicy.MaxTagClasses)
	}
	// Crash redistribution (chaos.RedistributeStream) slices peer streams
	// assuming every epoch contributes the same uniform per-worker count —
	// true for all content patterns, false once an elastic membership
	// schedule varies the partition itself. Reject the combination rather
	// than silently violate exactly-once.
	if c.Access != "" && c.Chaos.Structural() {
		if pat, err := access.ParseAccessSpec(c.Access); err == nil && pat.Elastic() {
			return fmt.Errorf("sim: elastic access pattern %q cannot combine with a structural (crash) chaos profile", c.Access)
		}
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
	// RemoteFalsePositives counts remote fetches that would have missed
	// (heuristic said cached, holder had not reached it yet).
	RemoteFalsePositives int64
}

// Env is the shared state policies consult during a run.
type Env struct {
	Cfg   *Config
	Model *perfmodel.Model
	// Rate is the model compiled to constant per-source rates — the hot
	// loop's and the policies' fetch-time oracle. Bit-identical to Model's
	// methods (see perfmodel.Rates).
	Rate    *perfmodel.Rates
	Plan    *access.Plan
	SizesMB []float64
	// MeanMB is the mean of SizesMB (0 for an empty table).
	MeanMB float64
	// Streams are the materialised per-worker access streams, shared through
	// the plan-artifact cache. They are immutable: policies that reorder
	// build fresh slices.
	Streams [][]access.SampleID
	// Art is the cached artifact set backing Streams; policies use it for
	// epoch orders and shared placement assignments.
	Art *plancache.Artifacts
	// Chaos is the compiled fault schedule (nil for the fault-free run).
	Chaos *chaos.Schedule

	rng  *prng.Generator
	ewma float64 // recent fraction of staging fetches served by the PFS
}

// newEnv builds the environment shared by all policies for one config. Plan
// artifacts come from the shared plan cache: all P policy cells sharing one
// (scenario, replica seed) perform one shuffle pass instead of P (replicas
// carry distinct derived seeds, so a P×R grid does R passes, not P×R).
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
	art := plancache.Shared().Artifacts(*plan)
	return &Env{
		Cfg: cfg, Model: model, Rate: model.Compile(plan.N), Plan: plan,
		SizesMB: sizes, MeanMB: mean, Streams: art.Streams,
		Art:   art,
		Chaos: cfg.Chaos.Compile(cfg.Seed),
		rng:   prng.New(cfg.Seed).Derive(0x51),
		ewma:  1, // epoch 0 starts all-PFS
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

// EpochOrder returns epoch e's cached global shuffle order (immutable).
func (e *Env) EpochOrder(epoch int) []access.SampleID {
	return e.Art.EpochOrders[epoch]
}

// place returns the family's shared, immutable placement from the
// plan-artifact cache, computed once per (plan, dataset, node, family):
// DeepIO and the dynamic LBANN data store share the first-touch placement,
// ParallelStaging and LocalityAware share the static shard, and NoPFS
// variants share the frequency-based assignment (or its first-access-order
// ablation) — whose candidate ranking is a plan artifact of its own, so the
// node specs of an environment study on one plan rank once and only fill
// per spec.
//
// All simulator placements are lean builds — local tables for worker 0 only
// (the simulated symmetric observer), global best-holder state for all
// workers — so placement memory is O(F) regardless of the cluster size. The
// live middleware (package nopfs) builds full per-rank assignments through
// its own plancache entries; the two layouts are keyed separately.
func (e *Env) place(family string) *cachepolicy.Assignment {
	ds, node := e.Cfg.DS, e.Cfg.Sys.Node
	var build func() *cachepolicy.Assignment
	switch family {
	case plancache.FamilyNoPFS, plancache.FamilyRandom:
		return e.Art.Placement(family, ds, node, true)
	case plancache.FamilyFirstTouch:
		build = func() *cachepolicy.Assignment {
			return cachepolicy.BuildFirstTouchLean(e.Plan, e.Art.EpochOrders[0], ds, node)
		}
	case plancache.FamilyShard:
		build = func() *cachepolicy.Assignment { return cachepolicy.BuildShardLean(e.Plan.F, e.Plan.N, ds, node) }
	case plancache.FamilyPreload:
		build = func() *cachepolicy.Assignment { return cachepolicy.BuildPreloadLean(e.Plan.F, e.Plan.N, ds, node) }
	}
	return e.Art.AssignmentLean(family, ds, node, build)
}

// Gamma estimates γ, the number of workers concurrently reading from the
// PFS, from the recent PFS hit fraction: workers are symmetric, so the
// cluster-wide reader count is N times the local fraction.
func (e *Env) Gamma() int { return gammaFor(e.ewma, float64(e.Plan.N)) }

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

// Policy is one I/O strategy under comparison.
type Policy interface {
	// Name is the report label (matches the paper's Fig. 8 legend).
	Name() string
	// Prepare precomputes placement state; it returns the prestaging time
	// (0 when the policy needs none) or an error when the policy cannot
	// run the scenario at all.
	Prepare(env *Env) (setupSeconds float64, err error)
	// rule states which placement family the policy places, which stream it
	// consumes and where its fetches may come from. All of it but the
	// placement itself is fixed at construction — Prepare and ColdCost read
	// the family and the stream kind from it; place is set once Prepare ran.
	rule() sourceRule
	// Coverage is the fraction of dataset bytes the policy ever accesses.
	Coverage(env *Env) float64
	// Synchronous reports whether reads block the trainer (no prefetch
	// pipeline) — true only for the Naive policy.
	Synchronous() bool
	// PrefetchThreads is the width of the staging prefetch pipeline this
	// policy drives. NoPFS uses the node's configured p₀; the baseline
	// loaders model a single background I/O pipeline (classic
	// double-buffering), which is what makes them PFS-bound at the
	// paper's operating points.
	PrefetchThreads(env *Env) int
	// StagingMB is the lookahead window the policy prefetches into.
	// NoPFS and the caching middlewares use the node's staging buffer;
	// PyTorch-style double buffering looks ahead about two mini-batches,
	// which is what exposes slow PFS reads directly as batch-time tail
	// events instead of smoothing them away.
	StagingMB(env *Env) float64
}

// ColdCost estimates the work of running pol under cfg with nothing cached,
// in stream positions walked: the simulated worker's E·F/N positions times
// the passes the policy's rule declares — one for the kernel; with a
// placement, one to tag the stream and one to place it, except that a ranked
// placement (nopfs, random) ranks and fills over all N workers' streams; one
// more for a stream the policy builds itself. It orders cells for dispatch
// (longest first) and is no prediction of seconds: shared artifacts and
// policies that fail in Prepare are not modelled. A config Run would reject
// costs 0.
func ColdCost(cfg *Config, pol Policy) int64 {
	if cfg.Validate() != nil {
		return 0
	}
	plan, rule := cfg.Plan(), pol.rule()
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

// Run simulates one policy under the config.
func Run(cfg Config, pol Policy) (*Result, error) {
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
	setup, err := pol.Prepare(env)
	if err != nil {
		res.Failed = true
		res.FailReason = err.Error()
		return res
	}
	res.SetupSeconds = setup
	res.Coverage = pol.Coverage(env)
	rule := pol.rule()
	in := env.kernelInput(rule)
	// Node crashes redistribute the crashed workers' plan across the
	// survivors: the simulated worker's stream grows and epoch boundaries
	// shift (nil epochEnds means the fault-free uniform boundaries). The
	// reshaped stream belongs to this schedule alone, so it is tagged here
	// and not cached.
	stream, epochEnds := chaosStream(env, in.Stream)
	if epochEnds != nil {
		in = &plancache.TagStream{Stream: stream, Tags: rule.tags(stream), TotalMB: env.sumMB(stream)}
	}
	// An elastic membership schedule makes epochs unequal too: use the
	// plan's per-worker cumulative ends when the policy kept the stream's
	// length (policies that rebuild a different-length stream fall back to
	// uniform binning, same as under chaos).
	if epochEnds == nil && env.Plan.Elastic() &&
		len(env.Art.EpochEnds) > 0 && len(stream) == len(env.Art.Streams[0]) {
		epochEnds = env.Art.EpochEnds[0]
	}
	simulate(env, pol, rule, in, setup, res, epochEnds)
	return res
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

// simulateCount counts simulate() executions process-wide. It mirrors
// access.ShuffleCount: the dry-run test asserts that explaining a grid
// simulates no cell by probing it.
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
	// family keys the placement consulted in the plan cache ("": none);
	// place is that placement, nil until Prepare has run.
	family string
	place  *cachepolicy.Assignment
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

// kernelInput returns the stream the policy consumes with its source tags
// and byte total, shared through the placement's plan-cache entry: a warm
// cell decodes no availability word and rebuilds no stream.
func (e *Env) kernelInput(rule sourceRule) *plancache.TagStream {
	return e.Art.TagStream(rule.family, e.Cfg.DS, e.Cfg.Sys.Node, rule.stream, func() *plancache.TagStream {
		ts := &plancache.TagStream{Stream: e.Streams[0]}
		if build := streamBuilders[rule.stream]; build != nil {
			policyStreamBuilds.Add(1)
			ts.Stream, ts.OwnStream = build(e, rule.place), true
			ts.TotalMB = e.sumMB(ts.Stream)
		} else {
			// The plan's own stream has one total under every placement and
			// node: summed once per dataset, in an entry under the zero node.
			ts.TotalMB = e.Art.TagStream("", e.Cfg.DS, hwspec.Node{}, streamTotal, func() *plancache.TagStream {
				return &plancache.TagStream{Stream: ts.Stream, TotalMB: e.sumMB(ts.Stream)}
			}).TotalMB
		}
		ts.Tags = rule.tags(ts.Stream)
		return ts
	})
}

// streamTotal is the stream kind kernelInput keeps the plan's own byte total
// under; no policy consumes it.
const streamTotal = "total"

// tags returns the source tags of stream under the rule's placement, nil
// when it has none.
func (r sourceRule) tags(stream []access.SampleID) []byte {
	if r.place != nil {
		return r.place.Tags(0, stream)
	}
	return nil
}

// sumMB returns stream's byte total, summed in stream order.
func (e *Env) sumMB(stream []access.SampleID) (mb float64) {
	for _, k := range stream {
		mb += e.SizesMB[k]
	}
	return mb
}

// policyStreamBuilds counts reordered streams built by kernelInput — a test
// probe like cachepolicy.TagBuildCount.
var policyStreamBuilds atomic.Int64

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
// epochEnds, when non-nil, carries the cumulative stream position at which
// each epoch ends (crash redistribution and elastic membership make epochs
// unequal); nil means the plan's uniform per-epoch boundaries.
func simulate(env *Env, pol Policy, rule sourceRule, in *plancache.TagStream, setup float64, res *Result, epochEnds []int) {
	simulateCount.Add(1)
	var (
		stream, sizes = in.Stream, env.SizesMB
		n             = len(stream)
		batch         = env.Cfg.Work.BatchPerWorker
		rate          = env.Rate
		sched         = env.Chaos
		nWorkers      = float64(env.Plan.N)
		c             = env.Cfg.Work.ComputeMBps
		wr            = rate.WriteRate()
		bufMB         = pol.StagingMB(env)
		syncRead      = pol.Synchronous() // Naive: the trainer issues its own reads
	)
	p0 := pol.PrefetchThreads(env)
	if p0 < 1 {
		p0 = 1
	}
	p0f := float64(p0)
	threads := newThreadPool(p0, setup)

	// Tags: a policy without a placement has the same tag at every position,
	// so one batch-long run of it stands in for the stream's.
	tags, mask := in.Tags, byte(0xff)
	if rule.noRemote {
		mask = 0x0f
	}
	segSizes := make([]float64, batch)
	var constTags []byte
	if tags == nil {
		tag := byte(0)
		if rule.free {
			tag = cachepolicy.TagFree
		}
		constTags = bytes.Repeat([]byte{tag}, batch)
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

	perEpoch := env.Plan.SamplesPerEpoch(0)
	if n > 0 {
		res.BatchSeconds = make([]float64, 0, (n+batch-1)/batch+1)
		// Size the epoch series from the actual boundary list when there is
		// one (unequal epochs make the uniform estimate under-allocate); +1
		// covers the trailing fold.
		epochCap := n/perEpoch + 1
		if len(epochEnds) > 0 {
			epochCap = len(epochEnds) + 1
		}
		res.EpochSeconds = make([]float64, 0, epochCap)
	}

	// Epoch tracking: boundaries come from epochEnds when the stream was
	// reshaped, otherwise every perEpoch samples.
	epoch, nextEpochEnd := 0, perEpoch
	if len(epochEnds) > 0 {
		nextEpochEnd = epochEnds[0]
	}

	// Chaos multipliers are epoch-constant: resolve them at boundaries, not
	// per sample. barrier paces the allreduce when a peer straggles; self
	// slows this worker's own prefetch threads.
	barrier, self := 1.0, 1.0
	if sched != nil {
		barrier, self = sched.BarrierFactor(0, env.Plan.N), sched.Slowdown(0, 0, env.Plan.N)
	}

	// PFS slowness is bursty system noise, not i.i.d. per sample: one slow
	// OST or contention spike delays every read issued in that window. We
	// model it as one jitter draw per batch, which is what produces the
	// paper's order-of-magnitude batch-time tail events for PFS-bound
	// loaders while averaging out for cache-served ones. The draw happens
	// at every batch edge — segment starts aligned to one.
	batchJitter := env.pfsJitter()

	// Elastic membership can leave the worker inactive in leading epochs
	// (cumulative ends still at position 0): fire those boundaries before
	// any samples run so epoch accounting and chaos factors stay aligned.
	for len(epochEnds) > 0 && epoch < len(epochEnds) && epochEnds[epoch] == 0 {
		res.EpochSeconds = append(res.EpochSeconds, 0)
		epoch++
		if epoch < len(epochEnds) {
			nextEpochEnd = epochEnds[epoch]
		}
		if sched != nil {
			barrier, self = sched.BarrierFactor(epoch, env.Plan.N), sched.Slowdown(0, epoch, env.Plan.N)
		}
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
			case tag == cachepolicy.TagFree:
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
				// t(γ)/γ is the node's total PFS share: concurrent prefetch
				// threads divide it rather than multiplying it. The expected
				// number of this worker's threads at the PFS is the recent PFS
				// fraction times p0.
				if conc := ewma * p0f; conc > 1 {
					sec *= conc
				}
				sec *= batchJitter
			} else {
				ewma = gammaMiss(ewma)
			}
			if sched != nil {
				choice := perfmodel.Choice{Loc: loc, Class: cls, Seconds: sec}
				if loc == perfmodel.LocRemote {
					// Only a fault schedule asks who the holder is.
					_, w := rule.place.RemoteAvail(0, ks[i], int32(f+i))
					choice.Holder = int32(w)
				}
				env.ewma = ewma
				chaosAdjust(env, sched, epoch, f+i, sz, &choice, res)
				loc, sec = choice.Loc, choice.Seconds
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
		// With uniform boundaries the advance is always strictly past f,
		// so the loop body runs at most once.
		for f == nextEpochEnd && (len(epochEnds) == 0 || epoch < len(epochEnds)) {
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
			if sched != nil {
				barrier, self = sched.BarrierFactor(epoch, env.Plan.N), sched.Slowdown(0, epoch, env.Plan.N)
			}
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
	if len(res.EpochSeconds) < env.Plan.E && n > 0 && prevComputeDone > lastEpochEnd {
		res.EpochSeconds = append(res.EpochSeconds, prevComputeDone-lastEpochEnd)
	}
}
