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
//   - source selection per policy, with per-location time accounting;
//   - PFS contention through t(γ), with γ adapting to the fraction of
//     recent fetches that actually hit the PFS;
//   - optional log-normal jitter on PFS fetches, reproducing the tail
//     events ("catastrophically slow reads") the paper observes on shared
//     filesystems.
//
// The simulator is not meant to predict absolute runtimes of a particular
// machine; like the paper's, it captures the relative behaviour of I/O
// policies across dataset/storage-hierarchy regimes.
package sim

import (
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

// Speedup returns other.ExecSeconds / r.ExecSeconds.
func (r *Result) Speedup(other *Result) float64 {
	if r.ExecSeconds == 0 {
		return math.Inf(1)
	}
	return other.ExecSeconds / r.ExecSeconds
}

// Digest returns a content hash covering every input the simulation reads:
// the access plan (seed, shape, drop-last, access-pattern spec), the full
// system and workload specs including labels and throughput curves, the
// dataset's size table, the jitter σ, and the chaos profile's canonical spec
// string. Two configs with equal digests produce bit-identical Results,
// which is what makes the digest safe as an incremental re-simulation memo
// key (see sweep.ResultMemo). The digest is in-process only — it is never
// persisted, so its byte layout may change freely between versions.
func (c *Config) Digest() uint64 {
	h := uint64(1469598103934665603)
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211
	}
	mixStr := func(s string) {
		mix(uint64(len(s)))
		for i := 0; i < len(s); i++ {
			mix(uint64(s[i]))
		}
	}
	p := c.Plan()
	mix(p.Seed)
	mix(uint64(p.F))
	mix(uint64(p.N))
	mix(uint64(p.E))
	mix(uint64(p.BatchPerWorker))
	if p.DropLast {
		mix(1)
	} else {
		mix(0)
	}
	mixStr(p.Access)
	mix(c.Sys.Digest())
	mix(c.Work.Digest())
	mix(plancache.SizerDigest(c.DS))
	mix(math.Float64bits(c.PFSJitter))
	mixStr(c.Chaos.Name)
	mixStr(c.Chaos.Spec())
	return h
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
	// Streams are the materialised per-worker access streams, shared through
	// the plan-artifact cache. They are immutable: policies that reorder
	// build fresh slices.
	Streams [][]access.SampleID
	// FirstPos0[k] is the simulated worker's first access position of k
	// (-1 if never accessed).
	FirstPos0 []int32
	// Art is the cached artifact set backing Streams/FirstPos0; policies
	// use it for epoch orders and shared placement assignments.
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
	sizes := sizesMB(cfg.DS)
	art := plancache.Shared().Artifacts(*plan)
	return &Env{
		Cfg: cfg, Model: model, Rate: model.Compile(plan.N), Plan: plan,
		SizesMB: sizes, Streams: art.Streams, FirstPos0: art.FirstPos0,
		Art:   art,
		Chaos: cfg.Chaos.Compile(cfg.Seed),
		rng:   prng.New(cfg.Seed).Derive(0x51),
		ewma:  1, // epoch 0 starts all-PFS
	}, nil
}

// sizesMB returns the dataset's per-sample sizes in MB. Synthetic datasets
// carry a precomputed shared table (one per dataset object — sweep cells
// share objects through dataset.Cached); other implementations get a fresh
// one. The returned slice is read-only.
func sizesMB(ds dataset.Dataset) []float64 {
	if d, ok := ds.(interface{ SizesMB() []float64 }); ok {
		return d.SizesMB()
	}
	s := make([]float64, ds.Len())
	for k := range s {
		s[k] = float64(ds.Size(k)) / (1 << 20)
	}
	return s
}

// EpochOrder returns epoch e's cached global shuffle order (immutable).
func (e *Env) EpochOrder(epoch int) []access.SampleID {
	return e.Art.EpochOrders[epoch]
}

// The Assign* helpers return shared, immutable placement assignments from
// the plan-artifact cache, computed once per (plan, dataset, node,
// policy-family): DeepIO and the dynamic LBANN data store share the
// first-touch placement, ParallelStaging and LocalityAware share the static
// shard, and NoPFS variants share the frequency-based assignment — whose
// candidate ranking is a plan artifact of its own, so the node specs of an
// environment study on one plan rank once and only fill per spec.
//
// All simulator placements are lean builds — local tables for worker 0 only
// (the simulated symmetric observer), global best-holder state for all
// workers — so placement memory is O(F) regardless of the cluster size. The
// live middleware (package nopfs) builds full per-rank assignments through
// its own plancache entries; the two layouts are keyed separately.

// AssignNoPFS returns the shared Sec. 5.1 frequency-based placement.
func (e *Env) AssignNoPFS() *cachepolicy.Assignment {
	return e.Art.Placement(plancache.FamilyNoPFS, e.Cfg.DS, e.Cfg.Sys.Node, true)
}

// AssignRandomPlacement returns the shared placement ablation (first-access
// fill order instead of frequency order).
func (e *Env) AssignRandomPlacement() *cachepolicy.Assignment {
	return e.Art.Placement(plancache.FamilyRandom, e.Cfg.DS, e.Cfg.Sys.Node, true)
}

// AssignFirstTouch returns the shared epoch-0 first-touch placement (DeepIO,
// LBANN dynamic).
func (e *Env) AssignFirstTouch() *cachepolicy.Assignment {
	return e.Art.AssignmentLean(plancache.FamilyFirstTouch, e.Cfg.DS, e.Cfg.Sys.Node, func() *cachepolicy.Assignment {
		return cachepolicy.BuildFirstTouchLean(e.Plan, e.Art.EpochOrders[0], e.Cfg.DS, e.Cfg.Sys.Node)
	})
}

// AssignShard returns the shared static round-robin shard (ParallelStaging,
// LocalityAware).
func (e *Env) AssignShard() *cachepolicy.Assignment {
	return e.Art.AssignmentLean(plancache.FamilyShard, e.Cfg.DS, e.Cfg.Sys.Node, func() *cachepolicy.Assignment {
		return cachepolicy.BuildShardLean(e.Plan.F, e.Plan.N, e.Cfg.DS, e.Cfg.Sys.Node)
	})
}

// AssignPreload returns the shared RAM-only preloading shard (LBANN
// preloading).
func (e *Env) AssignPreload() *cachepolicy.Assignment {
	return e.Art.AssignmentLean(plancache.FamilyPreload, e.Cfg.DS, e.Cfg.Sys.Node, func() *cachepolicy.Assignment {
		return cachepolicy.BuildPreloadLean(e.Plan.F, e.Plan.N, e.Cfg.DS, e.Cfg.Sys.Node)
	})
}

// Gamma estimates γ, the number of workers concurrently reading from the
// PFS, from the recent PFS hit fraction: workers are symmetric, so the
// cluster-wide reader count is N times the local fraction.
func (e *Env) Gamma() int {
	g := int(math.Round(e.ewma * float64(e.Plan.N)))
	if g < 1 {
		g = 1
	}
	return g
}

// ewmaAlpha is the γ-estimate smoothing factor; the span kernels inline the
// same recurrence, so it is shared rather than local to notePFS.
const ewmaAlpha = 0.02

// notePFS folds one fetch outcome into the γ estimate.
func (e *Env) notePFS(hitPFS bool) {
	v := 0.0
	if hitPFS {
		v = 1
	}
	e.ewma += ewmaAlpha * (v - e.ewma)
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
	// Stream returns the simulated worker's (possibly reordered) access
	// stream; most policies return env.Streams[0] unchanged.
	Stream(env *Env) []access.SampleID
	// Source decides where stream entry f (sample k) is fetched from.
	Source(env *Env, f int, k access.SampleID) perfmodel.Choice
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

// Run simulates one policy under the config.
func Run(cfg Config, pol Policy) (*Result, error) {
	env, err := newEnv(&cfg)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Policy:     pol.Name(),
		System:     cfg.Sys.Name,
		LocSeconds: map[perfmodel.Location]float64{},
		LocCount:   map[perfmodel.Location]int64{},
	}
	setup, err := pol.Prepare(env)
	if err != nil {
		res.Failed = true
		res.FailReason = err.Error()
		return res, nil
	}
	res.SetupSeconds = setup
	res.Coverage = pol.Coverage(env)
	stream := pol.Stream(env)
	// Node crashes redistribute the crashed workers' plan across the
	// survivors: the simulated worker's stream grows and epoch boundaries
	// shift (nil epochEnds means the fault-free uniform boundaries).
	stream, epochEnds := chaosStream(env, stream)
	// An elastic membership schedule makes epochs unequal too: use the
	// plan's per-worker cumulative ends when the policy kept the stream's
	// length (policies that rebuild a different-length stream fall back to
	// uniform binning, same as under chaos).
	if epochEnds == nil && env.Plan.Elastic() &&
		len(env.Art.EpochEnds) > 0 && len(stream) == len(env.Art.Streams[0]) {
		epochEnds = env.Art.EpochEnds[0]
	}
	simulate(env, pol, stream, setup, res, epochEnds)
	return res, nil
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
// access.ShuffleCount: tests assert incremental re-simulation (the sweep
// result memo) by probing how many cells actually simulated.
var simulateCount atomic.Int64

// SimulateCount returns the number of simulate() executions so far.
func SimulateCount() int64 { return simulateCount.Load() }

// threadPool tracks the free times of the p₀ prefetch threads and yields
// the least-loaded one per fetch. For the small p₀ of real nodes (≤ 8) a
// straight scan is fastest; wider pools use a binary min-heap so the
// per-sample cost is O(log p₀) instead of O(p₀).
type threadPool struct {
	free []float64
	heap bool
}

func newThreadPool(p0 int, setup float64) threadPool {
	free := make([]float64, p0)
	for i := range free {
		free[i] = setup
	}
	// All entries equal, so the slice is already a valid min-heap.
	return threadPool{free: free, heap: p0 > 8}
}

// schedule assigns one fetch of duration readDur to the least-loaded
// thread, starting no earlier than roomTime, and returns the fetch's
// completion time. Only the multiset of free times affects the result, so
// the heap and scan variants are output-identical.
func (t *threadPool) schedule(roomTime, readDur float64) float64 {
	if !t.heap {
		ti := 0
		for i := 1; i < len(t.free); i++ {
			if t.free[i] < t.free[ti] {
				ti = i
			}
		}
		start := t.free[ti]
		if roomTime > start {
			start = roomTime
		}
		avail := start + readDur
		t.free[ti] = avail
		return avail
	}
	start := t.free[0]
	if roomTime > start {
		start = roomTime
	}
	avail := start + readDur
	// Replace the root and sift down.
	t.free[0] = avail
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(t.free) && t.free[l] < t.free[smallest] {
			smallest = l
		}
		if r < len(t.free) && t.free[r] < t.free[smallest] {
			smallest = r
		}
		if smallest == i {
			return avail
		}
		t.free[i], t.free[smallest] = t.free[smallest], t.free[i]
		i = smallest
	}
}

// simState is the hot-loop state of one simulate() call, shared between the
// event-driven segment driver and the per-policy inner kernels. All fields
// that float arithmetic flows through are updated in exactly the operation
// order of the original per-sample loop, so every kernel is bit-identical to
// the generic path by construction.
type simState struct {
	env    *Env
	pol    Policy
	res    *Result
	stream []access.SampleID
	sizes  []float64

	c     float64 // compute rate (MB/s)
	p0    int
	bufMB float64
	sync  bool
	setup float64

	threads threadPool

	// Staging window (SoA, pooled). noEvict elides it entirely: when the
	// whole stream's bytes fit the staging buffer, the admission loop can
	// never trigger and the window contents are unobservable.
	winSize, winConsume []float64
	head                int
	inBufMB             float64
	noEvict             bool

	// Accumulators folded into res after the loop; scalar accumulation
	// performs the identical sequence of float adds the per-sample
	// res-field updates did.
	locSec       [numLocations]float64
	locCnt       [numLocations]int64
	stall        float64
	stagingWrite float64

	prevComputeDone float64

	// Segment-constant factors.
	batchJitter   float64
	barrier, self float64
	sched         *chaos.Schedule
	epoch         int
}

// step advances the staging pipeline for one sample: admission (buffer
// room), prefetch-thread scheduling, the consumption recurrence, and window
// bookkeeping. readDur already includes the staging write and any
// self-slowdown.
func (s *simState) step(sz, readDur float64) {
	var avail float64
	if s.sync {
		// Naive: the trainer itself issues the read after finishing the
		// previous sample.
		avail = s.prevComputeDone + readDur
	} else {
		// Admission: wait for buffer room.
		roomTime := s.setup
		if !s.noEvict {
			for s.inBufMB+sz > s.bufMB && s.head < len(s.winSize) {
				s.inBufMB -= s.winSize[s.head]
				if c := s.winConsume[s.head]; c > roomTime {
					roomTime = c
				}
				s.head++
			}
		}
		// Least-loaded prefetch thread picks up the fetch; the scan variant
		// is inlined here (identical to threadPool.schedule's scan branch)
		// to save a call per sample at realistic p₀.
		if !s.threads.heap {
			free := s.threads.free
			ti := 0
			for i := 1; i < len(free); i++ {
				if free[i] < free[ti] {
					ti = i
				}
			}
			start := free[ti]
			if roomTime > start {
				start = roomTime
			}
			avail = start + readDur
			free[ti] = avail
		} else {
			avail = s.threads.schedule(roomTime, readDur)
		}
	}

	// Consumption recurrence (paper Sec. 4). barrier > 1 paces every
	// iteration at the slowest surviving peer's rate (allreduce).
	consume := s.prevComputeDone
	if avail > consume {
		s.stall += avail - consume
		consume = avail
	}
	computeDone := consume + sz/s.c*s.barrier

	if !s.sync && !s.noEvict {
		s.winSize = append(s.winSize, sz)
		s.winConsume = append(s.winConsume, consume)
		s.inBufMB += sz
		// Periodically compact the window slices.
		if s.head > stagingCompactMin && s.head*2 > len(s.winSize) {
			s.winSize = append(s.winSize[:0], s.winSize[s.head:]...)
			s.winConsume = append(s.winConsume[:0], s.winConsume[s.head:]...)
			s.head = 0
		}
	}

	s.prevComputeDone = computeDone
}

// runGeneric is the exact per-sample path: policy dispatch through the
// interface, chaos adjustment, and the full pipeline. It handles every
// policy and every chaos schedule; the specialized kernels below are
// shortcuts for the fault-free runs of policies whose source decision is
// known in closed form.
func (s *simState) runGeneric(f0, stop int) {
	env := s.env
	for f := f0; f < stop; f++ {
		k := s.stream[f]
		sz := s.sizes[k]
		choice := s.pol.Source(env, f, k)
		// γ estimation folds the policy's decision, not the chaos-perturbed
		// outcome: faults stretch durations without feeding back into the
		// contention heuristic, which keeps the fault-free run bit-identical
		// and makes fault injection monotone (see internal/invariant).
		env.notePFS(choice.Loc == perfmodel.LocPFS)
		if choice.Loc == perfmodel.LocPFS {
			// t(γ)/γ is the node's total PFS share: concurrent prefetch
			// threads divide it rather than multiplying it. The expected
			// number of this worker's threads at the PFS is the recent PFS
			// fraction times p0.
			conc := env.ewma * float64(s.p0)
			if conc > 1 {
				choice.Seconds *= conc
			}
			choice.Seconds *= s.batchJitter
		}
		if s.sched != nil {
			chaosAdjust(env, s.sched, s.epoch, f, sz, &choice, s.res)
		}
		write := env.Rate.WriteTime(sz)
		s.locSec[choice.Loc] += choice.Seconds
		s.locCnt[choice.Loc]++
		s.stagingWrite += write
		readDur := choice.Seconds + write
		if s.self != 1 {
			// Straggler self-slowdown: every prefetch thread of this worker
			// runs factor× slower.
			readDur *= s.self
		}
		s.step(sz, readDur)
	}
}

// runPFSConst is the span kernel for policies that always fetch from the PFS
// at the constant all-readers rate (Naive, StagingBuffer; both have p0 = 1):
// every fetch is sz/rate, γ feedback pins ewma at 1 (each outcome is a PFS
// hit), and the p0=1 concurrency factor never exceeds 1.
func (s *simState) runPFSConst(f0, stop int, rate float64) {
	env := s.env
	// ewma == 1 makes the γ update a no-op (1 + α·(1-1) == 1 exactly), and
	// PFS-only policies can never lower it, so the recurrence is hoisted.
	if env.ewma != 1 {
		for f := f0; f < stop; f++ {
			env.ewma += ewmaAlpha * (1 - env.ewma)
		}
	}
	wr := env.Rate.WriteRate()
	for f := f0; f < stop; f++ {
		sz := s.sizes[s.stream[f]]
		sec := (sz / rate) * s.batchJitter
		s.locSec[perfmodel.LocPFS] += sec
		write := sz / wr
		s.stagingWrite += write
		s.step(sz, sec+write)
	}
	s.locCnt[perfmodel.LocPFS] += int64(stop - f0)
}

// runLowerBound is the span kernel for the Perfect policy: fetches cost
// exactly 0 seconds from LocLocal, so only the staging write and compute
// recurrence remain. The γ estimate still decays per sample (every outcome
// is a PFS miss), preserving the recurrence bit for bit.
func (s *simState) runLowerBound(f0, stop int) {
	env := s.env
	wr := env.Rate.WriteRate()
	for f := f0; f < stop; f++ {
		sz := s.sizes[s.stream[f]]
		env.ewma += ewmaAlpha * (0 - env.ewma)
		write := sz / wr
		s.stagingWrite += write
		// choice.Seconds == 0: locSec[LocLocal] accumulates +0.0 (identity)
		// and readDur = 0 + write == write bitwise.
		s.step(sz, write)
	}
	s.locCnt[perfmodel.LocLocal] += int64(stop - f0)
}

// runNoPFS is the devirtualized kernel for the NoPFS policy (and its
// ablations) on fault-free runs: packed-word availability lookups, compiled
// rate tables, and inline γ tracking — the same operations Source + the
// generic loop perform, with the interface dispatch and repeated
// slice-header loads removed. noRemote reproduces the NoRemote ablation
// (peer fetches disabled).
func (s *simState) runNoPFS(f0, stop int, a *cachepolicy.Assignment, noRemote bool) {
	env := s.env
	rate := env.Rate
	nWorkers := float64(env.Plan.N)
	p0f := float64(s.p0)
	wr := rate.WriteRate()
	local := a.LocalWords(0)
	b1, b2 := a.HolderWords()
	for f := f0; f < stop; f++ {
		k := s.stream[f]
		sz := s.sizes[k]
		// Packed-word availability, decoded inline (same logic as
		// LocalAvail / RemoteAvail; see cachepolicy.AvailClass/HolderFor).
		localClass := cachepolicy.AvailClass(local[k], int32(f))
		remoteClass := -1
		if !noRemote {
			remoteClass = cachepolicy.HolderFor(b1[k], 0, int32(f))
			if remoteClass < 0 {
				remoteClass = cachepolicy.HolderFor(b2[k], 0, int32(f))
			}
		}
		g := int(math.Round(env.ewma * nWorkers))
		if g < 1 {
			g = 1
		}
		choice := rate.Best(sz, localClass, remoteClass, g)
		if choice.Loc == perfmodel.LocPFS {
			env.ewma += ewmaAlpha * (1 - env.ewma)
			conc := env.ewma * p0f
			if conc > 1 {
				choice.Seconds *= conc
			}
			choice.Seconds *= s.batchJitter
		} else {
			env.ewma += ewmaAlpha * (0 - env.ewma)
		}
		write := sz / wr
		s.locSec[choice.Loc] += choice.Seconds
		s.locCnt[choice.Loc]++
		s.stagingWrite += write
		s.step(sz, choice.Seconds+write)
	}
}

// runTiered is the devirtualized kernel for the tiered-cache baselines on
// fault-free runs. Their Source methods share one shape — local hit, else
// (optionally) best remote holder, else PFS at the γ estimate:
//
//   - DeepIO / LBANN check progress-gated availability (byAvail=true,
//     useRemote=true);
//   - ParallelStaging consults only its static local shard (byAvail=false,
//     useRemote=false);
//   - LocalityAware adds the ungated best remote holder (byAvail=false,
//     useRemote=true).
func (s *simState) runTiered(f0, stop int, a *cachepolicy.Assignment, byAvail, useRemote bool) {
	env := s.env
	rate := env.Rate
	p0f := float64(s.p0)
	wr := rate.WriteRate()
	local := a.LocalWords(0)
	b1, b2 := a.HolderWords()
	for f := f0; f < stop; f++ {
		k := s.stream[f]
		sz := s.sizes[k]
		var lc int
		if byAvail {
			lc = cachepolicy.AvailClass(local[k], int32(f))
		} else {
			lc, _ = cachepolicy.UnpackLocal(local[k])
		}
		var choice perfmodel.Choice
		if lc >= 0 {
			choice = perfmodel.Choice{Loc: perfmodel.LocLocal, Class: lc, Seconds: rate.FetchLocal(sz, lc)}
		} else {
			rc := -1
			if useRemote {
				if byAvail {
					rc = cachepolicy.HolderFor(b1[k], 0, int32(f))
					if rc < 0 {
						rc = cachepolicy.HolderFor(b2[k], 0, int32(f))
					}
				} else {
					rc = cachepolicy.HolderAny(b1[k], 0)
					if rc < 0 {
						rc = cachepolicy.HolderAny(b2[k], 0)
					}
				}
			}
			if rc >= 0 {
				choice = perfmodel.Choice{Loc: perfmodel.LocRemote, Class: rc, Seconds: rate.FetchRemote(sz, rc)}
			} else {
				choice = perfmodel.Choice{Loc: perfmodel.LocPFS, Class: -1, Seconds: rate.FetchPFS(sz, env.Gamma())}
			}
		}
		env.notePFS(choice.Loc == perfmodel.LocPFS)
		if choice.Loc == perfmodel.LocPFS {
			conc := env.ewma * p0f
			if conc > 1 {
				choice.Seconds *= conc
			}
			choice.Seconds *= s.batchJitter
		}
		write := sz / wr
		s.locSec[choice.Loc] += choice.Seconds
		s.locCnt[choice.Loc]++
		s.stagingWrite += write
		s.step(sz, choice.Seconds+write)
	}
}

// kernelKind selects a specialized inner kernel for the fault-free runs of
// closed-form policies; kernelGeneric is the exact fallback.
type kernelKind int

const (
	kernelGeneric kernelKind = iota
	kernelPFSConst
	kernelLowerBound
	kernelNoPFS
	kernelTiered
)

// kernel is the resolved inner-loop strategy for one simulate() call.
type kernel struct {
	kind               kernelKind
	assign             *cachepolicy.Assignment
	byAvail, useRemote bool // kernelTiered shape
	noRemote           bool // kernelNoPFS ablation
}

// kernelFor picks the span kernel for the policy. Chaos schedules force the
// generic path: per-fetch fault adjustment depends on the stream index, the
// resolved epoch factors, and the holder rank, which only the generic loop
// threads through. Elastic membership schedules force it for the same
// precondition-break reason: the specialized kernels assume uniform epoch
// spans. Content patterns (zipf, boost, curriculum, mix) keep the
// specialized kernels — they change which samples appear where, not the
// per-fetch cost structure. Every kernel is bit-identical to runGeneric for
// its policy — the equivalence tests compare them directly, including under
// non-uniform patterns.
func kernelFor(pol Policy, sched *chaos.Schedule, elastic bool) kernel {
	if sched != nil || elastic {
		return kernel{kind: kernelGeneric}
	}
	switch p := pol.(type) {
	case naive, stagingBuffer:
		return kernel{kind: kernelPFSConst}
	case lowerBound:
		return kernel{kind: kernelLowerBound}
	case *nopfs:
		return kernel{kind: kernelNoPFS, assign: p.assign}
	case *nopfsAblated:
		return kernel{kind: kernelNoPFS, assign: p.assign, noRemote: p.v.NoRemote}
	case *deepIO:
		return kernel{kind: kernelTiered, assign: p.assign, byAvail: true, useRemote: true}
	case *lbann:
		return kernel{kind: kernelTiered, assign: p.assign, byAvail: true, useRemote: true}
	case *parallelStaging:
		return kernel{kind: kernelTiered, assign: p.assign}
	case *localityAware:
		return kernel{kind: kernelTiered, assign: p.assign, useRemote: true}
	}
	return kernel{kind: kernelGeneric}
}

// simulate runs the staging-pipeline model over the stream.
//
// The loop is event-driven: the stream is cut into segments bounded by the
// next batch edge and the next epoch boundary — the only places where
// jitter is redrawn, series are recorded, or chaos factors re-resolve — and
// each segment runs under a per-policy inner kernel with all boundary checks
// hoisted out. Outputs are bit-identical to the historical per-sample loop:
// the kernels perform the same float operations in the same order and the
// specialized ones exist only where the source decision is constant or
// closed-form (see internal/sim equivalence tests).
//
// epochEnds, when non-nil, carries the cumulative stream position at which
// each epoch ends (chaos crash redistribution makes epochs unequal); nil
// means the plan's uniform per-epoch boundaries.
func simulate(env *Env, pol Policy, stream []access.SampleID, setup float64, res *Result, epochEnds []int) {
	simulateCount.Add(1)
	p0 := pol.PrefetchThreads(env)
	if p0 < 1 {
		p0 = 1
	}
	s := &simState{
		env: env, pol: pol, res: res, stream: stream, sizes: env.SizesMB,
		c:     env.Cfg.Work.ComputeMBps,
		p0:    p0,
		bufMB: pol.StagingMB(env),
		sync:  pol.Synchronous(),
		setup: setup,

		threads:         newThreadPool(p0, setup),
		prevComputeDone: setup,
		barrier:         1, self: 1,
		sched: env.Chaos,
	}

	if !s.sync {
		// Window elision: inBufMB is the running prefix sum of staged sizes
		// minus evictions; with no evictions the admission check compares
		// exactly the next prefix sum against bufMB, so "total stream bytes
		// fit" (the same ordered sum) proves the loop can never trigger and
		// the window bookkeeping is unobservable. Common at paper operating
		// points where the staging buffer exceeds the epoch working set.
		var total float64
		for _, k := range stream {
			total += env.SizesMB[k]
		}
		s.noEvict = total <= s.bufMB
		if !s.noEvict {
			wa := windowPool.Get().(*windowArena)
			s.winSize, s.winConsume = wa.size[:0], wa.consume[:0]
			defer func() {
				wa.size, wa.consume = s.winSize[:0], s.winConsume[:0]
				windowPool.Put(wa)
			}()
		}
	}

	perEpoch := env.Plan.SamplesPerEpoch(0)
	batch := env.Cfg.Work.BatchPerWorker
	if len(stream) > 0 {
		res.BatchSeconds = make([]float64, 0, (len(stream)+batch-1)/batch+1)
		// Size the epoch series from the actual boundary list when chaos
		// supplies one (crash redistribution makes epochs unequal, so the
		// uniform estimate under-allocates); +1 covers the trailing fold.
		epochCap := len(stream)/perEpoch + 1
		if len(epochEnds) > 0 {
			epochCap = len(epochEnds) + 1
		}
		res.EpochSeconds = make([]float64, 0, epochCap)
	}

	lastBatchEnd, lastEpochEnd := setup, setup

	// Epoch tracking: boundaries come from epochEnds when chaos reshaped the
	// stream, otherwise every perEpoch samples (the legacy rule).
	nextEpochEnd := perEpoch
	if len(epochEnds) > 0 {
		nextEpochEnd = epochEnds[0]
	}

	// Chaos multipliers are epoch-constant: resolve them at boundaries, not
	// per sample. barrier paces the allreduce when a peer straggles; self
	// slows this worker's own prefetch threads.
	if s.sched != nil {
		n := env.Plan.N
		s.barrier, s.self = s.sched.BarrierFactor(0, n), s.sched.Slowdown(0, 0, n)
	}

	// PFS slowness is bursty system noise, not i.i.d. per sample: one slow
	// OST or contention spike delays every read issued in that window. We
	// model it as one jitter draw per batch, which is what produces the
	// paper's order-of-magnitude batch-time tail events for PFS-bound
	// loaders while averaging out for cache-served ones. The draw happens
	// at every batch edge — segment starts aligned to one.
	s.batchJitter = env.pfsJitter()

	// Elastic membership can leave the worker inactive in leading epochs
	// (cumulative ends still at position 0): fire those boundaries before
	// any samples run so epoch accounting and chaos factors stay aligned.
	for len(epochEnds) > 0 && s.epoch < len(epochEnds) && epochEnds[s.epoch] == 0 {
		res.EpochSeconds = append(res.EpochSeconds, 0)
		s.epoch++
		if s.epoch < len(epochEnds) {
			nextEpochEnd = epochEnds[s.epoch]
		}
		if s.sched != nil {
			nw := env.Plan.N
			s.barrier, s.self = s.sched.BarrierFactor(s.epoch, nw), s.sched.Slowdown(0, s.epoch, nw)
		}
	}

	ker := kernelFor(pol, s.sched, env.Plan.Elastic())
	var pfsRate float64
	if ker.kind == kernelPFSConst {
		pfsRate = env.Rate.PFSRate(env.Plan.N)
	}

	n := len(stream)
	for f := 0; f < n; {
		if f%batch == 0 {
			s.batchJitter = env.pfsJitter()
		}
		// Segment: up to the next batch edge, capped by the next epoch
		// boundary (a stale boundary at or before f never fires again,
		// matching the per-sample f+1 == nextEpochEnd check).
		stop := f - f%batch + batch
		if nextEpochEnd > f && nextEpochEnd < stop {
			stop = nextEpochEnd
		}
		if stop > n {
			stop = n
		}

		switch ker.kind {
		case kernelPFSConst:
			s.runPFSConst(f, stop, pfsRate)
		case kernelLowerBound:
			s.runLowerBound(f, stop)
		case kernelNoPFS:
			s.runNoPFS(f, stop, ker.assign, ker.noRemote)
		case kernelTiered:
			s.runTiered(f, stop, ker.assign, ker.byAvail, ker.useRemote)
		default:
			s.runGeneric(f, stop)
		}
		f = stop

		if f%batch == 0 || f == n {
			res.BatchSeconds = append(res.BatchSeconds, s.prevComputeDone-lastBatchEnd)
			lastBatchEnd = s.prevComputeDone
		}
		// A loop rather than a single check: elastic membership can leave
		// the worker with zero samples in an epoch (consecutive equal
		// ends), so several boundaries may fire at one stream position.
		// With uniform boundaries the advance is always strictly past f,
		// so the loop body runs at most once — identical to the old check.
		for f == nextEpochEnd && (len(epochEnds) == 0 || s.epoch < len(epochEnds)) {
			res.EpochSeconds = append(res.EpochSeconds, s.prevComputeDone-lastEpochEnd)
			lastEpochEnd = s.prevComputeDone
			s.epoch++
			if len(epochEnds) > 0 {
				if s.epoch < len(epochEnds) {
					nextEpochEnd = epochEnds[s.epoch]
				}
			} else {
				nextEpochEnd += perEpoch
			}
			if s.sched != nil {
				nw := env.Plan.N
				s.barrier, s.self = s.sched.BarrierFactor(s.epoch, nw), s.sched.Slowdown(0, s.epoch, nw)
			}
		}
	}

	res.StallSeconds = s.stall
	res.StagingWriteSeconds = s.stagingWrite
	for l := 0; l < numLocations; l++ {
		// Fold only locations that saw a fetch, matching the key set the
		// per-sample map writes used to produce.
		if s.locCnt[l] > 0 {
			res.LocSeconds[perfmodel.Location(l)] += s.locSec[l]
			res.LocCount[perfmodel.Location(l)] += s.locCnt[l]
		}
	}
	res.ExecSeconds = s.prevComputeDone
	if len(res.EpochSeconds) < env.Plan.E && len(stream) > 0 && s.prevComputeDone > lastEpochEnd {
		res.EpochSeconds = append(res.EpochSeconds, s.prevComputeDone-lastEpochEnd)
	}
}
