package sim

import (
	"fmt"

	"repro/internal/access"
	"repro/internal/cachepolicy"
	"repro/internal/plancache"
)

// Policy names match the paper's Fig. 8 legend.
const (
	NameLowerBound      = "LowerBound"
	NameNaive           = "Naive"
	NameStagingBuffer   = "StagingBuffer"
	NameDeepIOOrdered   = "DeepIO (Ord.)"
	NameDeepIOOpp       = "DeepIO (Opp.)"
	NameParallelStaging = "ParallelStaging"
	NameLBANNDynamic    = "LBANN (Dynamic)"
	NameLBANNPreload    = "LBANN (Preloading)"
	NameLocalityAware   = "LocalityAware"
	NameNoPFS           = "NoPFS"
)

// AllPolicies returns every policy of the paper's comparison, in the order
// of the Fig. 8 bars.
func AllPolicies() []Policy {
	return []Policy{
		NewNaive(),
		NewStagingBuffer(),
		NewDeepIO(false),
		NewDeepIO(true),
		NewParallelStaging(),
		NewLBANN(false),
		NewLBANN(true),
		NewLocalityAware(),
		NewNoPFS(),
		NewLowerBound(),
	}
}

// PolicyByName builds a policy from its Fig. 8 label.
func PolicyByName(name string) (Policy, error) {
	switch name {
	case NameLowerBound:
		return NewLowerBound(), nil
	case NameNaive:
		return NewNaive(), nil
	case NameStagingBuffer:
		return NewStagingBuffer(), nil
	case NameDeepIOOrdered:
		return NewDeepIO(false), nil
	case NameDeepIOOpp:
		return NewDeepIO(true), nil
	case NameParallelStaging:
		return NewParallelStaging(), nil
	case NameLBANNDynamic:
		return NewLBANN(false), nil
	case NameLBANNPreload:
		return NewLBANN(true), nil
	case NameLocalityAware:
		return NewLocalityAware(), nil
	case NameNoPFS:
		return NewNoPFS(), nil
	}
	return nil, fmt.Errorf("sim: unknown policy %q", name)
}

// stagePrestageSeconds models copying `bytes` of shard data from the PFS to
// local storage before training: every worker stages concurrently, so each
// gets a 1/N share of the PFS, further bounded by the local write rate of
// the fastest class.
func stagePrestageSeconds(env *Env, bytes int64) float64 {
	if bytes <= 0 {
		return 0
	}
	rate := env.Model.Sys.PFS.PerClient(env.Plan.N)
	if len(env.Model.Sys.Node.Classes) > 0 {
		cls := env.Model.Sys.Node.Classes[0]
		if w := cls.Write.At(float64(cls.Threads)); w < rate {
			rate = w
		}
	}
	return float64(bytes) / (1 << 20) / rate
}

// cachedList returns worker 0's cached samples in fill order, flattened
// across classes.
func cachedList(a *cachepolicy.Assignment) []access.SampleID {
	var out []access.SampleID
	for _, class := range a.FillOrder[0] {
		out = append(out, class...)
	}
	return out
}

// cycleStream builds a stream of length n by cycling list; returns nil when
// list is empty.
func cycleStream(list []access.SampleID, n int) []access.SampleID {
	if len(list) == 0 {
		return nil
	}
	out := make([]access.SampleID, n)
	for i := range out {
		out[i] = list[i%len(list)]
	}
	return out
}

// Stream kinds of the policies that reorder the plan's stream, and their
// builders: each is a pure function of the plan's artifacts and the policy's
// placement, so Env.kernelInput caches the result on the placement.
const (
	streamOpportunistic = "opportunistic"
	streamShardCycle    = "shard-cycle"
	streamLocality      = "locality"
)

var streamBuilders = map[string]func(*Env, *cachepolicy.Assignment) []access.SampleID{
	streamOpportunistic: opportunisticStream,
	streamShardCycle:    shardCycleStream,
	streamLocality:      localityStream,
}

// ---------------------------------------------------------------------------
// LowerBound ("Perfect"): no fetch cost at all; only compute and the staging
// write remain, which never stall the trainer. Matches the paper's
// unreachable lower bound.

type lowerBound struct{}

// NewLowerBound returns the Perfect policy.
func NewLowerBound() Policy { return lowerBound{} }

func (lowerBound) Name() string                  { return NameLowerBound }
func (lowerBound) Prepare(*Env) (float64, error) { return 0, nil }
func (lowerBound) rule() sourceRule              { return sourceRule{free: true} }
func (lowerBound) Coverage(*Env) float64         { return 1 }
func (lowerBound) Synchronous() bool             { return false }
func (lowerBound) PrefetchThreads(env *Env) int  { return nodeThreads(env) }
func (lowerBound) StagingMB(env *Env) float64    { return nodeStagingMB(env) }

// ---------------------------------------------------------------------------
// Naive: synchronous reads from the PFS, no prefetching, no caching. Every
// worker hammers the PFS all the time (γ = N: with nothing cached anywhere
// every fetch is a PFS hit and the γ estimate never leaves 1).

type naive struct{}

// NewNaive returns the Naive policy.
func NewNaive() Policy { return naive{} }

func (naive) Name() string                  { return NameNaive }
func (naive) Prepare(*Env) (float64, error) { return 0, nil }
func (naive) rule() sourceRule              { return sourceRule{} }
func (naive) Coverage(*Env) float64         { return 1 }
func (naive) Synchronous() bool             { return true }
func (naive) PrefetchThreads(*Env) int      { return 1 }
func (naive) StagingMB(env *Env) float64    { return doubleBufferMB(env) }

// ---------------------------------------------------------------------------
// StagingBuffer: the double-buffering/tf.data model — prefetch in access
// order into the staging buffer, always from the PFS, drop after use.

type stagingBuffer struct{}

// NewStagingBuffer returns the StagingBuffer policy.
func NewStagingBuffer() Policy { return stagingBuffer{} }

func (stagingBuffer) Name() string                  { return NameStagingBuffer }
func (stagingBuffer) Prepare(*Env) (float64, error) { return 0, nil }
func (stagingBuffer) rule() sourceRule              { return sourceRule{} }
func (stagingBuffer) Coverage(*Env) float64         { return 1 }
func (stagingBuffer) Synchronous() bool             { return false }
func (stagingBuffer) PrefetchThreads(*Env) int      { return 1 }
func (stagingBuffer) StagingMB(env *Env) float64    { return doubleBufferMB(env) }

// ---------------------------------------------------------------------------
// DeepIO (Zhu et al.): workers cache samples in RAM first-touch during
// epoch 0 and serve each other over RDMA. Ordered mode preserves the global
// access order, reading uncached samples from the PFS forever. Opportunistic
// mode relaxes the order after epoch 0 to consume only cached samples —
// faster, but it no longer accesses the entire dataset when it exceeds
// aggregate RAM.

type deepIO struct {
	opportunistic bool
	assign        *cachepolicy.Assignment
}

// NewDeepIO returns the DeepIO policy in ordered or opportunistic mode.
func NewDeepIO(opportunistic bool) Policy { return &deepIO{opportunistic: opportunistic} }

func (d *deepIO) Name() string {
	if d.opportunistic {
		return NameDeepIOOpp
	}
	return NameDeepIOOrdered
}

func (d *deepIO) Prepare(env *Env) (float64, error) {
	d.assign = env.place(d.rule().family)
	return 0, nil
}

func (d *deepIO) rule() sourceRule {
	r := sourceRule{family: plancache.FamilyFirstTouch, place: d.assign}
	if d.opportunistic {
		r.stream = streamOpportunistic
	}
	return r
}

// opportunisticStream is DeepIO's relaxed order: epoch 0 fills the caches in
// true order; later epochs cycle local content only.
func opportunisticStream(env *Env, a *cachepolicy.Assignment) []access.SampleID {
	base := env.Streams[0]
	perEpoch := env.Plan.SamplesPerEpoch(0)
	cached := cachedList(a)
	if len(cached) == 0 {
		return base
	}
	out := make([]access.SampleID, 0, len(base))
	out = append(out, base[:min(perEpoch, len(base))]...)
	for e := 1; e < env.Plan.E; e++ {
		out = append(out, cycleStream(cached, perEpoch)...)
	}
	return out
}

func (d *deepIO) Coverage(env *Env) float64 {
	if !d.opportunistic {
		return 1
	}
	// After epoch 0 only cached samples are read; but epoch 0 itself
	// touches everything, so first-run coverage is full while steady-state
	// coverage is the cached fraction. Report the steady-state fraction,
	// matching the paper's "does not access entire dataset" flag.
	cov := d.assign.Coverage(env.Cfg.DS)
	if cov > 1 {
		cov = 1
	}
	return cov
}

func (d *deepIO) Synchronous() bool          { return false }
func (d *deepIO) PrefetchThreads(*Env) int   { return 1 }
func (d *deepIO) StagingMB(env *Env) float64 { return nodeStagingMB(env) }

// ---------------------------------------------------------------------------
// ParallelStaging: classic data sharding. Before training, every worker
// copies its shard (capped by local capacity) from the PFS; afterwards it
// reads exclusively from local storage. Fast, but the access order is no
// longer a global shuffle and, when S > N*D, part of the dataset is never
// read.

type parallelStaging struct {
	assign *cachepolicy.Assignment
}

// NewParallelStaging returns the data-sharding policy.
func NewParallelStaging() Policy { return &parallelStaging{} }

func (p *parallelStaging) Name() string { return NameParallelStaging }

func (p *parallelStaging) Prepare(env *Env) (float64, error) {
	p.assign = env.place(p.rule().family)
	return stagePrestageSeconds(env, p.assign.CachedBytes[0]), nil
}

// rule: local shard only; the PFS is only reachable when the worker has no
// local storage at all.
func (p *parallelStaging) rule() sourceRule {
	return sourceRule{family: plancache.FamilyShard, place: p.assign, stream: streamShardCycle, noRemote: true}
}

// shardCycleStream is ParallelStaging's order: the worker's own shard, over
// and over.
func shardCycleStream(env *Env, a *cachepolicy.Assignment) []access.SampleID {
	out := cycleStream(cachedList(a), len(env.Streams[0]))
	if out == nil {
		return env.Streams[0]
	}
	return out
}

func (p *parallelStaging) Coverage(env *Env) float64 {
	return p.assign.Coverage(env.Cfg.DS)
}

func (p *parallelStaging) Synchronous() bool          { return false }
func (p *parallelStaging) PrefetchThreads(*Env) int   { return 1 }
func (p *parallelStaging) StagingMB(env *Env) float64 { return nodeStagingMB(env) }

// ---------------------------------------------------------------------------
// LBANN data store (Jacobs et al.): an in-memory distributed cache. Dynamic
// mode caches first-touch during epoch 0; preloading mode stages shards into
// RAM before training. Both serve later epochs from local or remote RAM —
// and both fail outright when the dataset exceeds aggregate RAM.

type lbann struct {
	preloading bool
	assign     *cachepolicy.Assignment
}

// NewLBANN returns the LBANN data-store policy in dynamic or preloading mode.
func NewLBANN(preloading bool) Policy { return &lbann{preloading: preloading} }

func (l *lbann) Name() string {
	if l.preloading {
		return NameLBANNPreload
	}
	return NameLBANNDynamic
}

func (l *lbann) Prepare(env *Env) (float64, error) {
	node := env.Cfg.Sys.Node
	if len(node.Classes) == 0 {
		return 0, fmt.Errorf("lbann: no RAM storage class available")
	}
	ramBytes := int64(node.Classes[0].CapacityMB * (1 << 20))
	aggregate := ramBytes * int64(env.Plan.N)
	if env.Cfg.DS.TotalSize() > aggregate {
		return 0, fmt.Errorf("lbann: dataset (%d bytes) exceeds aggregate RAM (%d bytes)",
			env.Cfg.DS.TotalSize(), aggregate)
	}
	l.assign = env.place(l.rule().family)
	if l.preloading {
		return stagePrestageSeconds(env, l.assign.CachedBytes[0]), nil
	}
	return 0, nil
}

func (l *lbann) rule() sourceRule {
	family := plancache.FamilyFirstTouch
	if l.preloading {
		family = plancache.FamilyPreload
	}
	return sourceRule{family: family, place: l.assign}
}

func (l *lbann) Coverage(*Env) float64      { return 1 }
func (l *lbann) Synchronous() bool          { return false }
func (l *lbann) PrefetchThreads(*Env) int   { return 1 }
func (l *lbann) StagingMB(env *Env) float64 { return nodeStagingMB(env) }

// ---------------------------------------------------------------------------
// LocalityAware (Yang & Cong): the dataset is sharded across node-local
// storage once, and every epoch's batches are reordered so that each worker
// consumes mostly samples it already holds; the shortfall is fetched from
// peers, and samples that fit nowhere come from the PFS. Full-dataset
// randomization is preserved globally.

type localityAware struct {
	assign *cachepolicy.Assignment
}

// NewLocalityAware returns the locality-aware loading policy.
func NewLocalityAware() Policy { return &localityAware{} }

func (l *localityAware) Name() string { return NameLocalityAware }

func (l *localityAware) Prepare(env *Env) (float64, error) {
	l.assign = env.place(l.rule().family)
	return stagePrestageSeconds(env, l.assign.CachedBytes[0]), nil
}

func (l *localityAware) rule() sourceRule {
	return sourceRule{family: plancache.FamilyShard, place: l.assign, stream: streamLocality}
}

// localityStream reorders each global batch so worker 0 preferentially
// receives the samples it stores locally; the remainder of its per-batch
// quota is filled from the batch's leftover samples.
func localityStream(env *Env, a *cachepolicy.Assignment) []access.SampleID {
	plan := env.Plan
	b := plan.BatchPerWorker
	B := plan.GlobalBatch()
	out := make([]access.SampleID, 0, len(env.Streams[0]))
	// Per-batch scratch, reused across all batches of the run.
	mine := make([]access.SampleID, 0, b)
	other := make([]access.SampleID, 0, B)
	for e := 0; e < plan.E; e++ {
		order := env.EpochOrder(e)
		limit := plan.EpochLimit()
		for start := 0; start < limit; start += B {
			end := start + B
			if end > limit {
				end = limit
			}
			mine, other = mine[:0], other[:0]
			for _, k := range order[start:end] {
				if a.Local(0, k) >= 0 && len(mine) < b {
					mine = append(mine, k)
				} else {
					other = append(other, k)
				}
			}
			quota := (end - start + plan.N - 1) / plan.N
			if quota > b {
				quota = b
			}
			out = append(out, mine...)
			for i := 0; len(mine)+i < quota && i < len(other); i++ {
				out = append(out, other[i])
			}
		}
	}
	return out
}

func (l *localityAware) Coverage(*Env) float64      { return 1 }
func (l *localityAware) Synchronous() bool          { return false }
func (l *localityAware) PrefetchThreads(*Env) int   { return 1 }
func (l *localityAware) StagingMB(env *Env) float64 { return nodeStagingMB(env) }

// ---------------------------------------------------------------------------
// NoPFS: frequency-based hierarchical placement (Sec. 5.1) + clairvoyant
// prefetching with the argmin fetch rule and the symmetric-progress
// remote-availability heuristic (Sec. 5.2.2).

type nopfs struct {
	assign *cachepolicy.Assignment
}

// NewNoPFS returns the NoPFS policy.
func NewNoPFS() Policy { return &nopfs{} }

func (n *nopfs) Name() string { return NameNoPFS }

func (n *nopfs) Prepare(env *Env) (float64, error) {
	n.assign = env.place(n.rule().family)
	return 0, nil
}

func (n *nopfs) rule() sourceRule {
	return sourceRule{family: plancache.FamilyNoPFS, place: n.assign, argmin: true}
}
func (n *nopfs) Coverage(*Env) float64        { return 1 }
func (n *nopfs) Synchronous() bool            { return false }
func (n *nopfs) PrefetchThreads(env *Env) int { return nodeThreads(env) }
func (n *nopfs) StagingMB(env *Env) float64   { return nodeStagingMB(env) }

// nodeThreads returns the node's configured staging thread count p0.
func nodeThreads(env *Env) int { return env.Cfg.Sys.Node.Staging.Threads }

// nodeStagingMB returns the node's full staging-buffer capacity.
func nodeStagingMB(env *Env) float64 { return env.Cfg.Sys.Node.Staging.CapacityMB }

// doubleBufferMB returns a two-mini-batch lookahead window (classic
// double-buffered loader), never larger than the node's staging buffer.
func doubleBufferMB(env *Env) float64 {
	mb := 2 * float64(env.Cfg.Work.BatchPerWorker) * env.MeanMB
	if limit := nodeStagingMB(env); mb > limit {
		mb = limit
	}
	return mb
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
