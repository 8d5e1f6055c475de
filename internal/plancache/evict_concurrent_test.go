package plancache

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/access"
)

// The eviction tier for concurrent, mixed-size workloads: PR 4's tests
// exercised the LRU bound serially with equal-size entries; sweeps hit the
// shared cache from many goroutines with plans whose artifact footprints
// differ by an order of magnitude.

// mixedPlans returns plans whose artifact sizes span ~8 KB to ~260 KB
// (size ≈ 2*E*F*4 + F*4 bytes).
func mixedPlans() []access.Plan {
	var plans []access.Plan
	for i, f := range []int{1000, 2000, 3000, 5000, 8000} {
		for e := 1; e <= 4; e++ {
			plans = append(plans, access.Plan{
				Seed: uint64(100*i + e), F: f, N: 1 + (i+e)%4, E: e, BatchPerWorker: 2,
			})
		}
	}
	return plans
}

// TestConcurrentMixedSizeEviction hammers a small cache from 8 goroutines
// with 20 mixed-size plans (aggregate footprint far beyond the bound):
// every returned artifact set must be correct regardless of eviction
// churn, the cache must end within its byte budget, and the hit/miss
// counters must account for every request.
func TestConcurrentMixedSizeEviction(t *testing.T) {
	const maxBytes = 300 << 10 // fits one large or a handful of small entries
	c := New(maxBytes, 0)
	plans := mixedPlans()

	const goroutines, rounds = 8, 30
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				p := plans[(3*g+i)%len(plans)]
				art := c.Artifacts(p)
				// Shape checks are cheap enough for the hot loop: the
				// artifacts must always describe their own plan, evicted or
				// not.
				if len(art.EpochOrders) != p.E || len(art.Streams) != p.N {
					t.Errorf("artifact shape wrong for %+v: %d orders, %d streams",
						p, len(art.EpochOrders), len(art.Streams))
					return
				}
				if len(art.EpochOrders[0]) != p.F {
					t.Errorf("epoch order length %d, want %d", len(art.EpochOrders[0]), p.F)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	st := c.Stats()
	if st.Bytes > st.MaxBytes {
		t.Errorf("cache over budget after settling: %d > %d bytes (%d entries)",
			st.Bytes, st.MaxBytes, st.Entries)
	}
	if st.Entries < 1 {
		t.Error("cache evicted everything")
	}
	if got, want := st.Hits+st.Misses, int64(goroutines*rounds); got != want {
		t.Errorf("hit+miss = %d, want %d (every request accounted)", got, want)
	}
	if st.Misses < int64(len(plans)) {
		t.Errorf("only %d misses for %d distinct plans", st.Misses, len(plans))
	}

	// Post-churn correctness: a surviving-or-rebuilt artifact set is
	// bit-identical to a fresh naive derivation.
	p := plans[7]
	art := c.Artifacts(p)
	for e := 0; e < p.E; e++ {
		want := p.EpochOrder(e)
		for i, k := range art.EpochOrders[e] {
			if k != want[i] {
				t.Fatalf("epoch %d order diverges at %d after eviction churn", e, i)
			}
		}
	}
}

// TestEvictionIsLRUUnderMixedSizes pins the recency rule with unequal
// entries: touching an old entry saves it, and the cold one goes first even
// when evicting it alone is not enough for the incoming large entry.
func TestEvictionIsLRUUnderMixedSizes(t *testing.T) {
	small1 := access.Plan{Seed: 1, F: 2000, N: 2, E: 2, BatchPerWorker: 4} // ~32 KB
	small2 := access.Plan{Seed: 2, F: 2000, N: 2, E: 2, BatchPerWorker: 4}
	large := access.Plan{Seed: 3, F: 8000, N: 2, E: 3, BatchPerWorker: 4} // ~192 KB

	c := New(240<<10, 0)
	c.Artifacts(small1)
	c.Artifacts(small2)
	c.Artifacts(small1) // refresh small1: small2 becomes LRU
	hits := c.Stats().Hits
	if hits != 1 {
		t.Fatalf("refresh not counted as hit: %+v", c.Stats())
	}
	// The large entry does not fit next to both smalls; small2 (LRU) must
	// go. Whether small1 also goes depends only on the byte arithmetic —
	// here small1+large fit, so it stays.
	c.Artifacts(large)
	if c.Stats().Bytes > c.Stats().MaxBytes {
		t.Fatalf("over budget: %+v", c.Stats())
	}
	// Re-requests reveal residency through the counters.
	before := c.Stats()
	c.Artifacts(small1)
	if c.Stats().Hits != before.Hits+1 {
		t.Error("recently-touched small1 was evicted before LRU small2")
	}
	before = c.Stats()
	c.Artifacts(small2)
	if c.Stats().Misses != before.Misses+1 {
		t.Error("LRU small2 survived while the cache was over budget")
	}
}

// TestTagStreamAccounting: a placement's tag stream is built once however
// many goroutines ask, its bytes are part of Stats().Bytes (what the cache
// reports must account for what the process holds), they leave with the plan
// entry, and a build that finishes after the entry was evicted is not
// charged.
func TestTagStreamAccounting(t *testing.T) {
	p1 := access.Plan{Seed: 1, F: 4000, N: 2, E: 4, BatchPerWorker: 4}
	p2 := access.Plan{Seed: 2, F: 4000, N: 2, E: 4, BatchPerWorker: 4}
	// Base artifacts are ~128 KB per plan: the bound admits one plan with its
	// tag streams, not two plans.
	c := New(200<<10, 0)
	ds, node := testDataset(t, p1.F), testNode(1, 0)
	a1 := c.Artifacts(p1)
	var builds atomic.Int64
	build := func(a *Artifacts, own bool) func() *TagStream {
		return func() *TagStream {
			builds.Add(1)
			ts := &TagStream{Stream: a.Streams[0], Tags: make([]byte, len(a.Streams[0]))}
			if own {
				ts.Stream, ts.OwnStream = append([]access.SampleID(nil), ts.Stream...), true
			}
			return ts
		}
	}

	base := c.Stats().Bytes
	var wg sync.WaitGroup
	got := make([]*TagStream, 8)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = a1.TagStream(FamilyNoPFS, ds, node, "plan", build(a1, false))
		}(i)
	}
	wg.Wait()
	for _, ts := range got {
		if ts != got[0] {
			t.Fatal("racing requests got different tag streams")
		}
	}
	if builds.Load() != 1 {
		t.Fatalf("%d racing requests built %d tag streams, want 1", len(got), builds.Load())
	}
	shared := got[0].approxBytes()
	if want := int64(len(a1.Streams[0])); shared < want || shared > want+64 {
		t.Fatalf("a tag stream over the plan's own stream reports %d bytes, want about one per position (%d)", shared, want)
	}
	if charged := c.Stats().Bytes - base; charged != shared {
		t.Fatalf("tag stream charged %d bytes, want %d", charged, shared)
	}
	// A reordered stream is the tag stream's own memory; another kind, family
	// or node is another entry.
	own := a1.TagStream(FamilyNoPFS, ds, node, "reordered", build(a1, true))
	if charged := c.Stats().Bytes - base - shared; charged != own.approxBytes() || charged < 5*int64(len(own.Stream)) {
		t.Fatalf("tag stream with its own stream charged %d bytes, reports %d, want at least 5 per position", charged, own.approxBytes())
	}
	a1.TagStream(FamilyShard, ds, node, "plan", build(a1, false))
	a1.TagStream(FamilyNoPFS, ds, testNode(2, 0), "plan", build(a1, false))
	if builds.Load() != 4 {
		t.Fatalf("distinct (family, node, kind) keys built %d tag streams, want 4", builds.Load())
	}

	a2 := c.Artifacts(p2) // evicts p1 together with its tag streams
	if st := c.Stats(); st.Entries != 1 || st.Bytes != a2.baseBytes() {
		t.Fatalf("after eviction: %+v, want 1 entry of %d bytes", st, a2.baseBytes())
	}
	a1.TagStream(FamilyFirstTouch, ds, node, "plan", build(a1, true)) // late build on the evicted entry
	if got := c.Stats().Bytes; got != a2.baseBytes() {
		t.Fatalf("evicted entry's tag stream charged the cache: %d -> %d bytes", a2.baseBytes(), got)
	}
}
