// Package plancache memoises the clairvoyant plan artifacts that every
// layer of the system re-derives from an access.Plan: per-worker access
// streams (uniform shuffles or any access.Pattern) and their cumulative
// epoch ends, epoch 0's order, candidate rankings, the live middleware's
// cachepolicy.Assignment placements, and the simulator's kernel input per
// lean placement (LeanInput: tag streams, derived from a placement that is
// then dropped).
// The plan's canonical access spec is part of the cache key, so two plans
// differing only in pattern never share artifacts.
//
// The paper's premise is that the access stream is a cheap pure function of
// the seed — but "cheap" is relative: a Fig. 8 panel sweeps P policies over
// one scenario, and without sharing, every policy cell re-runs all E
// Fisher-Yates shuffles and re-materialises E×F stream entries. The cache
// applies the same "reconstruct once, reuse everywhere" discipline NoPFS
// itself applies to training I/O: each (plan) computes its artifacts exactly
// once, concurrent requesters block on the single computation
// (singleflight), and every consumer shares the immutable result.
//
// Memory bound and eviction rule: the cache tracks an approximate byte size
// per entry (streams + epoch 0's order + lazily-computed rankings,
// placements and lean inputs)
// and evicts least-recently-used entries whenever the total
// exceeds MaxBytes. Eviction only drops the cache's reference — artifacts
// already handed out remain valid (they are immutable), so a concurrent
// holder is never invalidated.
//
// Determinism: epoch shuffles are generated in parallel across a bounded
// goroutine pool. Each epoch's shuffle is driven by an independently derived
// PRNG stream (access.Plan.epochGen), so parallel generation is
// bit-identical to the serial loop by construction.
package plancache

import (
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/access"
	"repro/internal/cachepolicy"
	"repro/internal/hwspec"
)

// DefaultMaxBytes is the shared cache's default memory bound. Artifacts for
// the benchmark- and test-scale grids are a few MB per plan; paper-scale
// ImageNet-22k plans (E=5, F=14.2M) are ~340 MB of streams and epoch 0's
// order, so the default admits one paper-scale plan or hundreds of scaled
// ones. A simulated node spec adds a byte per stream position and kind
// (LeanInput), not its 12 B-per-sample placement (≈ 170 MB at that scale).
const DefaultMaxBytes = 768 << 20

// Cache is a concurrency-safe, size-bounded memo of plan artifacts, keyed by
// the full Plan value (collision-free by construction; Plan.Hash is for
// cross-worker digest exchange, not for keying).
type Cache struct {
	workers  int // epoch-shuffle pool width; <1 means GOMAXPROCS
	maxBytes int64

	mu       sync.Mutex
	entries  map[access.Plan]*entry
	tick     int64 // LRU clock
	curBytes int64

	hits, misses                  atomic.Int64
	ranks, placements, tagStreams atomic.Int64 // builds, counted in their once.Do
}

// entry is one memoised plan. The zero entry is inserted under Cache.mu;
// the artifacts are computed exactly once outside the lock.
type entry struct {
	once    sync.Once
	art     *Artifacts
	ready   atomic.Bool // set after once completes; gates eviction
	bytes   int64       // under Cache.mu
	lastUse int64       // under Cache.mu
	// evicted is set (under Cache.mu) when the entry is dropped from the
	// map. Lazy artifacts added by live holders afterwards must not be
	// charged to the cache: the entry's bytes were already subtracted and
	// no future eviction could ever reclaim the new charge.
	evicted bool
}

// New returns a cache bounded at maxBytes (<=0 means DefaultMaxBytes) that
// generates epoch shuffles on a pool of `workers` goroutines (<1 means
// GOMAXPROCS).
func New(maxBytes int64, workers int) *Cache {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	return &Cache{
		workers:  workers,
		maxBytes: maxBytes,
		entries:  map[access.Plan]*entry{},
	}
}

// shared is the process-wide cache behind every simulator config that names
// none: every policy cell of one (scenario, replica seed) shares a single
// shuffle pass (a P×R grid does R passes, not P×R), and a repeated grid in
// one process finds its plans warm.
var shared = New(0, 0)

// Shared returns the process-wide cache: the default of sim.Config.Plans.
func Shared() *Cache { return shared }

// Stats is a point-in-time snapshot of cache effectiveness.
type Stats struct {
	Hits, Misses int64
	Entries      int
	Bytes        int64
	MaxBytes     int64
	// Ranks, Placements and TagStreams count this cache's builds, not its
	// residents: rankings, placements (LeanInput's dropped ones too) and
	// LeanInput streams, the simulator's plan-stream byte total among them.
	Ranks, Placements, TagStreams int64
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits: c.hits.Load(), Misses: c.misses.Load(),
		Entries: len(c.entries), Bytes: c.curBytes, MaxBytes: c.maxBytes,
		Ranks: c.ranks.Load(), Placements: c.placements.Load(), TagStreams: c.tagStreams.Load(),
	}
}

// Artifacts returns the compute-once artifact set for the plan. Concurrent
// calls for the same plan share one computation; calls for different plans
// proceed independently. The build generates epochs on the pool and
// scatters them straight into the worker streams, keeping epoch 0's order
// only; the output is bit-identical to the serial access.Plan methods.
func (c *Cache) Artifacts(p access.Plan) *Artifacts {
	c.mu.Lock()
	e, ok := c.entries[p]
	if !ok {
		e = &entry{}
		c.entries[p] = e
	}
	c.tick++
	e.lastUse = c.tick
	c.mu.Unlock()

	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	e.once.Do(func() {
		first, streams, ends := p.BuildStreams(c.workers)
		e.art = &Artifacts{
			Plan: p, EpochOrders: [][]access.SampleID{first}, Streams: streams, EpochEnds: ends,
			cache: c, self: e,
			assigns: map[assignKey]*lazy[*cachepolicy.Assignment]{},
			inputs:  map[assignKey]*lazy[*LeanInput]{},
		}
		c.addBytes(e, e.art.baseBytes())
		e.ready.Store(true)
	})
	return e.art
}

// addBytes charges delta bytes to the entry and evicts least-recently-used
// ready entries (never e itself) until the cache fits its bound again.
func (c *Cache) addBytes(e *entry, delta int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e.evicted {
		return
	}
	e.bytes += delta
	c.curBytes += delta
	for c.curBytes > c.maxBytes && len(c.entries) > 1 {
		var victimKey access.Plan
		var victim *entry
		for k, cand := range c.entries {
			if cand == e || !cand.ready.Load() {
				continue
			}
			if victim == nil || cand.lastUse < victim.lastUse {
				victimKey, victim = k, cand
			}
		}
		if victim == nil {
			return // everything else is still computing; stay over budget
		}
		delete(c.entries, victimKey)
		victim.evicted = true
		c.curBytes -= victim.bytes
	}
}

// Artifacts is the immutable derived state of one plan. All exported slices
// are shared across every consumer and MUST NOT be mutated; policies that
// reorder streams copy first.
type Artifacts struct {
	// Plan is the generating plan, by value.
	Plan access.Plan
	// EpochOrders holds epoch 0's global order only, the first-touch
	// placement's input (benchmark/simtrace.go reads [0] too); later epochs
	// are not kept, and Plan.OrderFromStreams rebuilds any epoch's order
	// from Streams and EpochEnds.
	EpochOrders [][]access.SampleID
	// Streams[w] is worker w's materialised access stream across all epochs.
	Streams [][]access.SampleID
	// EpochEnds[w][e] is worker w's cumulative stream length through epoch
	// e: the multiples of Plan.SamplesPerEpoch(w) for a static partition,
	// unequal under an elastic membership schedule.
	EpochEnds [][]int

	// ranks[0] is the first-access ranking, ranks[1] the by-frequency one.
	ranks [2]lazy[*cachepolicy.Rank]

	// cache/self back-link for byte accounting of lazily added artifacts.
	cache *Cache
	self  *entry

	amu     sync.Mutex
	assigns map[assignKey]*lazy[*cachepolicy.Assignment]
	inputs  map[assignKey]*lazy[*LeanInput]
}

// baseBytes approximates the memory held by the eagerly built artifacts:
// epoch 0's order, the streams and their ends.
func (a *Artifacts) baseBytes() int64 {
	n := int64(len(a.EpochOrders[0])) * 4
	for _, s := range a.Streams {
		n += int64(len(s)) * 4
	}
	for _, e := range a.EpochEnds {
		n += int64(len(e)) * 8
	}
	return n
}

// Rank returns the plan's candidate ranking (see cachepolicy.RankStreams) —
// by access frequency for the NoPFS placement, by first access for the
// random-placement ablation — computed once from the cached streams and
// shared by every node spec placed on the plan.
func (a *Artifacts) Rank(byFreq bool) *cachepolicy.Rank {
	r := &a.ranks[0]
	if byFreq {
		r = &a.ranks[1]
	}
	r.once.Do(func() {
		r.v = cachepolicy.RankStreams(&a.Plan, a.Streams, byFreq)
		a.cache.ranks.Add(1)
		a.cache.addBytes(a.self, r.v.ApproxBytes())
	})
	return r.v
}

// assignKey identifies one derived placement or lean input: the policy
// family, digests of the sample sizes and node storage-class capacities the
// build consumes, and the rank whose local tables it keeps (-1: every
// rank's, the live middleware's; a rank's tables serve no other rank).
type assignKey struct {
	family  string
	dataset uint64
	node    uint64
	track   int
}

// lazy is one compute-once artifact; map entries are inserted under
// Artifacts.amu and built outside it.
type lazy[T any] struct {
	once sync.Once
	v    T
}

// lazyEntry returns m's (possibly still empty) entry for key.
func lazyEntry[T any](a *Artifacts, m map[assignKey]*lazy[T], key assignKey) *lazy[T] {
	a.amu.Lock()
	defer a.amu.Unlock()
	e, ok := m[key]
	if !ok {
		e = &lazy[T]{}
		m[key] = e
	}
	return e
}

// LeanInput is what the simulator keeps of one lean placement: the kernel's
// input for every stream kind the placement family's policies consume, and
// the two placement scalars a run reads. Immutable once built.
type LeanInput struct {
	// Streams maps a stream kind to its tag stream.
	Streams map[string]*TagStream
	// CachedBytes is the tracked rank's cached bytes, what prestaging copies.
	CachedBytes int64
	// Coverage is the fraction of dataset bytes the placement caches
	// anywhere; 0 unless a policy of the family reads only what it covers.
	Coverage float64
}

// approxBytes is the memory the input holds beyond the plan's streams.
func (in *LeanInput) approxBytes() int64 {
	n := int64(16)
	for _, ts := range in.Streams {
		n += ts.approxBytes()
	}
	return n
}

// TagStream is the simulator kernel's per-position input for one access
// stream consumed under one placement: what can serve each fetch, decoded
// once instead of once per fetch per cell. Immutable once built.
type TagStream struct {
	// Stream is the tracked rank's access stream: the plan's own
	// (Artifacts.Streams[rank]) or, with OwnStream, one a policy derived
	// from the placement.
	Stream    []access.SampleID
	OwnStream bool
	// Ends are Stream's cumulative epoch ends, one per epoch, the last at
	// len(Stream).
	Ends []int
	// Tags[f] is the source tag of Stream[f] (see cachepolicy.Tags); nil
	// when no placement backs the stream.
	Tags []byte
	// TotalMB is the stream's byte total, summed in stream order.
	TotalMB float64
}

// approxBytes is the memory the tag stream holds beyond the plan's streams.
func (t *TagStream) approxBytes() int64 {
	n := int64(len(t.Tags)) + 8
	if t.OwnStream {
		n += int64(len(t.Stream)) * 4
	}
	return n
}

// Assignment families used by the simulator and the live middleware.
const (
	FamilyNoPFS      = "nopfs"
	FamilyRandom     = "random"
	FamilyFirstTouch = "firsttouch"
	FamilyShard      = "shard"
	FamilyPreload    = "preload"
)

// AssignmentLean is Placement keeping rank 0's local tables only.
func (a *Artifacts) AssignmentLean(family string, ds cachepolicy.Sizer, node hwspec.Node, build func() *cachepolicy.Assignment) *cachepolicy.Assignment {
	return a.Placement(family, ds, node, 0, build)
}

// Placement returns the compute-once placement of family for (plan,
// dataset, node) that keeps the local tables of rank track, or of every rank
// when track < 0, building it with build on first use. A nil build fills
// FamilyNoPFS or FamilyRandom from the plan's shared ranking (see Rank), so
// the node specs placed on one plan rank it once. The returned Assignment is
// shared and must be treated as immutable.
func (a *Artifacts) Placement(family string, ds cachepolicy.Sizer, node hwspec.Node, track int, build func() *cachepolicy.Assignment) *cachepolicy.Assignment {
	e := lazyEntry(a, a.assigns, assignKey{family, SizerDigest(ds), NodeDigest(node), track})
	e.once.Do(func() {
		if build == nil {
			build = func() *cachepolicy.Assignment { return a.Rank(family == FamilyNoPFS).Fill(ds, node, track) }
		}
		e.v = build()
		a.cache.placements.Add(1)
		a.cache.addBytes(a.self, e.v.ApproxBytes())
	})
	return e.v
}

// LeanInput returns the compute-once kernel input of the placement (family,
// ds, node) that keeps rank track's local tables. On first use place builds
// the placement (nil places nothing) and derive turns it into the input; only
// derive's result stays, charged to the plan's cache entry and leaving the
// cache with it. Cells that share a placement share its input whatever else
// differs between them. The empty family keys the input of policies that
// consult no placement.
func (a *Artifacts) LeanInput(family string, ds cachepolicy.Sizer, node hwspec.Node, track int, place func() *cachepolicy.Assignment, derive func(*cachepolicy.Assignment) *LeanInput) *LeanInput {
	e := lazyEntry(a, a.inputs, assignKey{family, SizerDigest(ds), NodeDigest(node), track})
	e.once.Do(func() {
		var p *cachepolicy.Assignment
		if place != nil {
			p = place()
			a.cache.placements.Add(1)
		}
		e.v = derive(p)
		a.cache.tagStreams.Add(int64(len(e.v.Streams)))
		a.cache.addBytes(a.self, e.v.approxBytes())
	})
	return e.v
}

// SizeDigester is implemented by datasets that precompute their size
// digest (dataset.Synthetic does, using the same FNV-1a formula as the
// generic path below), making warm digest-keyed lookups O(1).
type SizeDigester interface {
	SizeDigest() uint64
}

// SizerDigest hashes a dataset's full size table (FNV-1a over the count and
// every sample size). Two datasets with identical sizes produce identical
// placements, so they may safely share cached assignments even when they are
// distinct objects — which is exactly what sweep cells do when each cell
// materialises its own dataset from the same spec.
func SizerDigest(ds cachepolicy.Sizer) uint64 {
	if d, ok := ds.(SizeDigester); ok {
		return d.SizeDigest()
	}
	h := uint64(1469598103934665603)
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211
	}
	n := ds.Len()
	mix(uint64(n))
	for k := 0; k < n; k++ {
		mix(uint64(ds.Size(k)))
	}
	return h
}

// NodeDigest hashes the node's storage-class capacities — the only node
// inputs the placement builds consume.
func NodeDigest(node hwspec.Node) uint64 {
	h := uint64(1469598103934665603)
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211
	}
	mix(uint64(len(node.Classes)))
	for _, c := range node.Classes {
		mix(math.Float64bits(c.CapacityMB))
	}
	return h
}
