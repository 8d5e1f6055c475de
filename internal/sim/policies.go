package sim

import (
	"fmt"
	"slices"

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

// Policy is one I/O strategy under comparison, stated as data. It is an
// immutable value and carries no run state (what a run reads of its
// placement comes from the plan cache, Env.prepare), so one value serves any
// number of runs, concurrent ones included.
type Policy struct {
	name string
	// rule says which placement family the policy places, which stream it
	// consumes and where its fetches may come from.
	rule sourceRule
	// sync: reads block the trainer — no prefetch pipeline (Naive).
	sync bool
	// nodeThreads: the staging prefetch pipeline is the node's p₀ threads.
	// Otherwise it is one background I/O pipeline (classic double
	// buffering), which is what makes the baseline loaders PFS-bound at the
	// paper's operating points.
	nodeThreads bool
	// window is the lookahead the policy prefetches into.
	window lookahead
	// prestage: the placement is copied from the PFS before training, and
	// the copy is charged as setup time.
	prestage bool
	// ramOnly: the policy cannot run when the dataset exceeds the cluster's
	// aggregate RAM (the LBANN data store).
	ramOnly bool
	// partial: the policy reads only what its placement covers, so its
	// coverage is the placement's; otherwise it reads the whole dataset.
	partial bool
}

// Name is the report label (matches the paper's Fig. 8 legend).
func (p Policy) Name() string { return p.name }

// lookahead is a policy's prefetch window.
type lookahead uint8

const (
	// nodeBuffer is the node's full staging buffer (NoPFS and the caching
	// middlewares).
	nodeBuffer lookahead = iota
	// twoBatches is PyTorch-style double buffering: two mini-batches, never
	// more than the node's buffer. The short window is what exposes slow PFS
	// reads directly as batch-time tail events instead of smoothing them away.
	twoBatches
	// oneBatch is a single mini-batch (the TinyStaging ablation).
	oneBatch
)

// mb returns the window's size in MB.
func (w lookahead) mb(env *Env) float64 {
	buf := env.Cfg.Sys.Node.Staging.CapacityMB
	switch w {
	case twoBatches:
		return min(2*float64(env.Cfg.Work.BatchPerWorker)*env.MeanMB, buf)
	case oneBatch:
		return float64(env.Cfg.Work.BatchPerWorker) * env.MeanMB
	}
	return buf
}

// fig8 is the paper's comparison, one row per policy, in the order of the
// Fig. 8 bars.
var fig8 = []Policy{
	// Naive: synchronous reads from the PFS, no prefetching, no caching. Every
	// worker hammers the PFS all the time (γ = N: with nothing cached anywhere
	// every fetch is a PFS hit and the γ estimate never leaves 1).
	{name: NameNaive, sync: true, window: twoBatches},
	// StagingBuffer: the double-buffering/tf.data model — prefetch in access
	// order into the staging buffer, always from the PFS, drop after use.
	{name: NameStagingBuffer, window: twoBatches},
	// DeepIO (Zhu et al.): workers cache samples in RAM first-touch during
	// epoch 0 and serve each other over RDMA. Ordered mode preserves the
	// global access order, reading uncached samples from the PFS forever.
	{name: NameDeepIOOrdered, rule: sourceRule{family: plancache.FamilyFirstTouch}},
	// Opportunistic mode relaxes the order after epoch 0 to consume only
	// cached samples — faster, but it no longer accesses the entire dataset
	// when it exceeds aggregate RAM. Epoch 0 touches everything; coverage is
	// the steady state's, matching the paper's "does not access entire
	// dataset" flag.
	{name: NameDeepIOOpp, rule: sourceRule{family: plancache.FamilyFirstTouch, stream: streamOpportunistic}, partial: true},
	// ParallelStaging: classic data sharding. Before training, every worker
	// copies its shard (capped by local capacity) from the PFS; afterwards it
	// reads exclusively from local storage — the PFS only when it has none.
	// Fast, but the access order is no longer a global shuffle and, when
	// S > N*D, part of the dataset is never read.
	{name: NameParallelStaging, rule: sourceRule{family: plancache.FamilyShard, stream: streamShardCycle, noRemote: true}, prestage: true, partial: true},
	// LBANN data store (Jacobs et al.): an in-memory distributed cache.
	// Dynamic mode caches first-touch during epoch 0; preloading mode stages
	// shards into RAM before training. Both serve later epochs from local or
	// remote RAM — and both fail outright when the dataset exceeds aggregate
	// RAM.
	{name: NameLBANNDynamic, rule: sourceRule{family: plancache.FamilyFirstTouch}, ramOnly: true},
	{name: NameLBANNPreload, rule: sourceRule{family: plancache.FamilyPreload}, prestage: true, ramOnly: true},
	// LocalityAware (Yang & Cong): the dataset is sharded across node-local
	// storage once, and every epoch's batches are reordered so that each
	// worker consumes mostly samples it already holds; the shortfall is
	// fetched from peers, and samples that fit nowhere come from the PFS.
	// Full-dataset randomization is preserved globally.
	{name: NameLocalityAware, rule: sourceRule{family: plancache.FamilyShard, stream: streamLocality}, prestage: true},
	// NoPFS: frequency-based hierarchical placement (Sec. 5.1) + clairvoyant
	// prefetching with the argmin fetch rule and the symmetric-progress
	// remote-availability heuristic (Sec. 5.2.2).
	{name: NameNoPFS, rule: sourceRule{family: plancache.FamilyNoPFS, argmin: true}, nodeThreads: true},
	// LowerBound ("Perfect"): no fetch cost at all; only compute and the
	// staging write remain, which never stall the trainer. Matches the
	// paper's unreachable lower bound.
	{name: NameLowerBound, rule: sourceRule{free: true}, nodeThreads: true},
}

// AllPolicies returns every policy of the paper's comparison, in the order
// of the Fig. 8 bars.
func AllPolicies() []Policy { return slices.Clone(fig8) }

// PolicyByName returns the policy with a Fig. 8 label.
func PolicyByName(name string) (Policy, error) {
	for _, p := range fig8 {
		if p.name == name {
			return p, nil
		}
	}
	return Policy{}, fmt.Errorf("sim: unknown policy %q", name)
}

// fig8Policy returns the row of a compiled-in label.
func fig8Policy(name string) Policy {
	p, err := PolicyByName(name)
	if err != nil {
		panic(err)
	}
	return p
}

// NewLowerBound returns the Perfect policy.
func NewLowerBound() Policy { return fig8Policy(NameLowerBound) }

// NewNaive returns the Naive policy.
func NewNaive() Policy { return fig8Policy(NameNaive) }

// NewStagingBuffer returns the StagingBuffer policy.
func NewStagingBuffer() Policy { return fig8Policy(NameStagingBuffer) }

// NewLBANN returns the LBANN data-store policy in dynamic or preloading mode.
func NewLBANN(preloading bool) Policy {
	if preloading {
		return fig8Policy(NameLBANNPreload)
	}
	return fig8Policy(NameLBANNDynamic)
}

// NewNoPFS returns the NoPFS policy.
func NewNoPFS() Policy { return fig8Policy(NameNoPFS) }

// prepare returns the kernel input of pol's placement family in this
// environment (see leanInput; the placement-free input when its rule declares
// no family) and its prestaging seconds, read from the input's cached bytes,
// or the reason pol cannot run the scenario at all.
func (e *Env) prepare(pol Policy) (*plancache.LeanInput, float64, error) {
	if pol.ramOnly {
		node := e.Cfg.Sys.Node
		if len(node.Classes) == 0 {
			return nil, 0, fmt.Errorf("lbann: no RAM storage class available")
		}
		aggregate := int64(node.Classes[0].CapacityMB*(1<<20)) * int64(e.Plan.N)
		if e.Cfg.DS.TotalSize() > aggregate {
			return nil, 0, fmt.Errorf("lbann: dataset (%d bytes) exceeds aggregate RAM (%d bytes)",
				e.Cfg.DS.TotalSize(), aggregate)
		}
	}
	in := e.leanInput(pol.rule.family)
	if !pol.prestage {
		return in, 0, nil
	}
	return in, stagePrestageSeconds(e, in.CachedBytes), nil
}

// familyUse returns what the policies placing family read of its input: the
// stream kinds they consume, in table order, and whether one of them reads
// only what the placement covers (the ablation places "random" in the NoPFS
// row).
func familyUse(family string) (kinds []string, partial bool) {
	for _, p := range append(AllPolicies(), NewNoPFSVariant(NoPFSVariant{RandomPlacement: true})) {
		if p.rule.family == family && !slices.Contains(kinds, p.rule.stream) {
			kinds = append(kinds, p.rule.stream)
		}
		partial = partial || p.rule.family == family && p.partial
	}
	return kinds, partial
}

// stagePrestageSeconds models copying `bytes` of shard data from the PFS to
// local storage before training: every worker stages concurrently, so each
// gets a 1/N share of the PFS, further bounded by the local write rate of
// the fastest class.
func stagePrestageSeconds(env *Env, bytes int64) float64 {
	if bytes <= 0 {
		return 0
	}
	rate := env.Cfg.Sys.PFS.PerClient(env.Plan.N)
	if len(env.Cfg.Sys.Node.Classes) > 0 {
		cls := env.Cfg.Sys.Node.Classes[0]
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
// builders: each is a pure function of the plan's artifacts and a placement,
// so Env.leanInput derives it once per placement. A
// builder returns the stream with its cumulative epoch ends, one per epoch,
// the last at the stream's length.
const (
	streamOpportunistic = "opportunistic"
	streamShardCycle    = "shard-cycle"
	streamLocality      = "locality"
)

var streamBuilders = map[string]func(*Env, *cachepolicy.Assignment) ([]access.SampleID, []int){
	streamOpportunistic: opportunisticStream,
	streamShardCycle:    shardCycleStream,
	streamLocality:      localityStream,
}

// opportunisticStream is DeepIO's relaxed order: epoch 0 fills the caches in
// true order; later epochs cycle local content only.
func opportunisticStream(env *Env, a *cachepolicy.Assignment) ([]access.SampleID, []int) {
	base := env.Art.Streams[0]
	perEpoch := env.Plan.SamplesPerEpoch(0)
	cached := cachedList(a)
	if len(cached) == 0 {
		return base, env.Art.EpochEnds[0]
	}
	out := make([]access.SampleID, 0, len(base))
	out = append(out, base[:min(perEpoch, len(base))]...)
	ends := []int{len(out)}
	for e := 1; e < env.Plan.E; e++ {
		out = append(out, cycleStream(cached, perEpoch)...)
		ends = append(ends, len(out))
	}
	return out, ends
}

// shardCycleStream is ParallelStaging's order: the worker's own shard, over
// and over, at the plan's length and so at the plan's epoch ends.
func shardCycleStream(env *Env, a *cachepolicy.Assignment) ([]access.SampleID, []int) {
	out := cycleStream(cachedList(a), len(env.Art.Streams[0]))
	if out == nil {
		out = env.Art.Streams[0]
	}
	return out, env.Art.EpochEnds[0]
}

// localityStream reorders each global batch so worker 0 preferentially
// receives the samples it stores locally; the remainder of its per-batch
// quota is filled from the batch's leftover samples.
func localityStream(env *Env, a *cachepolicy.Assignment) ([]access.SampleID, []int) {
	plan := env.Plan
	b := plan.BatchPerWorker
	B := plan.GlobalBatch()
	out := make([]access.SampleID, 0, len(env.Art.Streams[0]))
	ends := make([]int, 0, plan.E)
	// Per-batch scratch, reused across all batches of the run.
	mine := make([]access.SampleID, 0, b)
	other := make([]access.SampleID, 0, B)
	var order []access.SampleID // epoch e's order, rebuilt from the streams
	for e := 0; e < plan.E; e++ {
		order = plan.OrderFromStreams(env.Art.Streams, env.Art.EpochEnds, e, order)
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
		ends = append(ends, len(out))
	}
	return out, ends
}
