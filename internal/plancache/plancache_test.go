package plancache

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/access"
	"repro/internal/cachepolicy"
	"repro/internal/dataset"
	"repro/internal/hwspec"
)

// testPlans is the table shared by the equivalence tests: small plans
// covering drop-last, partial batches, single-worker, and many-epoch
// shapes.
func testPlans() []access.Plan {
	return []access.Plan{
		{Seed: 1, F: 200, N: 4, E: 3, BatchPerWorker: 8, DropLast: false},
		{Seed: 2, F: 203, N: 4, E: 3, BatchPerWorker: 8, DropLast: true},
		{Seed: 3, F: 97, N: 1, E: 5, BatchPerWorker: 4, DropLast: false},
		{Seed: 4, F: 512, N: 8, E: 10, BatchPerWorker: 2, DropLast: true},
	}
}

func testNode(ramMB, ssdMB float64) hwspec.Node {
	node := hwspec.Node{
		Staging:          hwspec.StorageClass{Name: "staging", CapacityMB: 100, Threads: 2, Read: hwspec.Flat(100), Write: hwspec.Flat(100)},
		InterconnectMBps: 100,
		Classes: []hwspec.StorageClass{
			{Name: "ram", CapacityMB: ramMB, Threads: 2, Read: hwspec.Flat(1000), Write: hwspec.Flat(1000)},
		},
	}
	if ssdMB > 0 {
		node.Classes = append(node.Classes,
			hwspec.StorageClass{Name: "ssd", CapacityMB: ssdMB, Threads: 1, Read: hwspec.Flat(300), Write: hwspec.Flat(200)})
	}
	return node
}

func testDataset(t testing.TB, f int) dataset.Dataset {
	t.Helper()
	ds, err := dataset.New(dataset.Spec{
		Name: "plancache-test", F: f, MeanSize: 4096, StddevSize: 1024, Classes: 10, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func eqStreams(t *testing.T, label string, got, want [][]access.SampleID) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d slices, want %d", label, len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s[%d]: len %d, want %d", label, i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("%s[%d][%d]: got %d want %d", label, i, j, got[i][j], want[i][j])
			}
		}
	}
}

// patternPlans is one plan per access preset plus a second elastic schedule
// (rank 0 leaves, a late joiner), numbered on from testPlans' seeds.
func patternPlans(t *testing.T) []access.Plan {
	t.Helper()
	specs := []string{"elastic:join=3@2,leave=0@1"}
	for _, pat := range access.Presets() {
		specs = append(specs, pat.Spec())
	}
	var plans []access.Plan
	for i, spec := range specs {
		p := access.Plan{Seed: uint64(5 + i), F: 211, N: 4, E: 4, BatchPerWorker: 4, DropLast: i%2 == 0, Access: spec}
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		plans = append(plans, p)
	}
	return plans
}

// TestArtifactsMatchNaivePlanPath asserts byte-identical epoch orders,
// streams and epoch ends between the cached/parallel path and the
// naive serial access.Plan derivations, under the uniform shuffle and every
// access pattern.
func TestArtifactsMatchNaivePlanPath(t *testing.T) {
	for _, p := range append(testPlans(), patternPlans(t)...) {
		p := p
		t.Run(fmt.Sprintf("seed%d", p.Seed), func(t *testing.T) {
			c := New(0, 4)
			art := c.Artifacts(p)

			// Epoch 0's order is kept; every epoch's order is rebuilt from
			// the streams up to the epoch limit.
			eqStreams(t, "EpochOrders", art.EpochOrders, [][]access.SampleID{p.EpochOrder(0)})
			rebuilt, wantOrders := make([][]access.SampleID, p.E), make([][]access.SampleID, p.E)
			for e := 0; e < p.E; e++ {
				rebuilt[e] = p.OrderFromStreams(art.Streams, art.EpochEnds, e, nil)
				wantOrders[e] = p.EpochOrder(e)[:p.EpochLimit()]
			}
			eqStreams(t, "rebuilt EpochOrders", rebuilt, wantOrders)
			wantStreams := make([][]access.SampleID, p.N)
			for w := range wantStreams {
				wantStreams[w] = p.WorkerStream(w)
			}
			eqStreams(t, "Streams", art.Streams, wantStreams)

			if len(art.EpochEnds) != p.N {
				t.Fatalf("EpochEnds has %d workers, want %d", len(art.EpochEnds), p.N)
			}
			for w, ends := range art.EpochEnds {
				want := 0
				for e := 0; e < p.E; e++ {
					want += len(p.WorkerEpoch(w, e))
					if ends[e] != want {
						t.Fatalf("EpochEnds[%d][%d]: got %d want %d", w, e, ends[e], want)
					}
				}
			}
		})
	}
}

// TestAssignmentEquivalence asserts the cached assignments are byte-identical
// to direct cachepolicy builds, for every family.
func TestAssignmentEquivalence(t *testing.T) {
	p := access.Plan{Seed: 9, F: 300, N: 4, E: 4, BatchPerWorker: 8, DropLast: true}
	ds := testDataset(t, p.F)
	node := testNode(0.3, 0.5)
	c := New(0, 0)
	art := c.Artifacts(p)

	direct := map[string]*cachepolicy.Assignment{
		FamilyNoPFS:      cachepolicy.BuildNoPFSFromStreams(&p, art.Streams, ds, node),
		FamilyRandom:     cachepolicy.RankStreams(&p, art.Streams, false).Fill(ds, node, false),
		FamilyFirstTouch: cachepolicy.BuildFirstTouchFromOrder(&p, p.EpochOrder(0), ds, node),
		FamilyShard:      cachepolicy.BuildShard(p.F, p.N, ds, node),
		FamilyPreload:    cachepolicy.BuildPreload(p.F, p.N, ds, node),
	}
	builds := map[string]func() *cachepolicy.Assignment{
		FamilyNoPFS: func() *cachepolicy.Assignment {
			return cachepolicy.BuildNoPFSFromStreams(&p, art.Streams, ds, node)
		},
		FamilyRandom: func() *cachepolicy.Assignment {
			return cachepolicy.RankStreams(&p, art.Streams, false).Fill(ds, node, false)
		},
		FamilyFirstTouch: func() *cachepolicy.Assignment {
			return cachepolicy.BuildFirstTouchFromOrder(&p, art.EpochOrders[0], ds, node)
		},
		FamilyShard: func() *cachepolicy.Assignment {
			return cachepolicy.BuildShard(p.F, p.N, ds, node)
		},
		FamilyPreload: func() *cachepolicy.Assignment {
			return cachepolicy.BuildPreload(p.F, p.N, ds, node)
		},
	}
	for family, build := range builds {
		got := art.assignment(family, ds, node, false, build)
		want := direct[family]
		for w := 0; w < p.N; w++ {
			for k := int32(0); int(k) < p.F; k++ {
				if got.Local(w, k) != want.Local(w, k) {
					t.Fatalf("%s: Local(%d,%d) got %d want %d", family, w, k, got.Local(w, k), want.Local(w, k))
				}
				if got.Local(w, k) >= 0 && got.LocalPos(w, k) != want.LocalPos(w, k) {
					t.Fatalf("%s: LocalPos(%d,%d) got %d want %d", family, w, k, got.LocalPos(w, k), want.LocalPos(w, k))
				}
			}
		}
		// Second lookup returns the same shared object (memoised).
		if again := art.assignment(family, ds, node, false, build); again != got {
			t.Fatalf("%s: assignment not memoised", family)
		}
		// A different node capacity is a different key.
		other := testNode(0.1, 0)
		if art.assignment(family, ds, other, false, func() *cachepolicy.Assignment {
			return cachepolicy.BuildShard(p.F, p.N, ds, other)
		}) == got {
			t.Fatalf("%s: distinct node shared an assignment", family)
		}
	}
}

// samePlacement compares two full placements through the accessors: where
// every sample sits on every worker, the best remote holder each worker
// would be pointed at, and what is available at every stream position.
func samePlacement(f int, streams [][]access.SampleID, got, want *cachepolicy.Assignment) error {
	for w, stream := range streams {
		for k := int32(0); int(k) < f; k++ {
			gc, gw := got.RemoteBest(w, k)
			wc, ww := want.RemoteBest(w, k)
			if got.Local(w, k) != want.Local(w, k) || got.LocalPos(w, k) != want.LocalPos(w, k) || gc != wc || gw != ww {
				return fmt.Errorf("worker %d sample %d: placed or held differently", w, k)
			}
		}
		for pos, k := range stream {
			gc, gw := got.RemoteAvail(w, k, int32(pos))
			wc, ww := want.RemoteAvail(w, k, int32(pos))
			if got.LocalAvail(w, k, int32(pos)) != want.LocalAvail(w, k, int32(pos)) || gc != wc || gw != ww {
				return fmt.Errorf("worker %d position %d: availability differs", w, pos)
			}
		}
	}
	return nil
}

// TestPlacementRanksOncePerFamily: Placement is the rank-once form of the
// NoPFS and random-placement builds — identical to the direct builders,
// memoised under the same key Assignment uses, and ranking the plan once per
// family however many node specs and layouts fill from it.
func TestPlacementRanksOncePerFamily(t *testing.T) {
	p := access.Plan{Seed: 9, F: 300, N: 4, E: 4, BatchPerWorker: 8, DropLast: true}
	ds := testDataset(t, p.F)
	c := New(0, 0)
	art := c.Artifacts(p)
	direct := map[string]bool{FamilyNoPFS: true, FamilyRandom: false} // family → by frequency
	nodes := []hwspec.Node{testNode(0.3, 0.5), testNode(0.1, 0), testNode(0.2, 0.2)}
	want := map[string][]*cachepolicy.Assignment{}
	for family, byFreq := range direct {
		for _, node := range nodes {
			want[family] = append(want[family], cachepolicy.RankStreams(&p, art.Streams, byFreq).Fill(ds, node, false))
		}
	}
	for family := range direct {
		for i, node := range nodes {
			got := art.Placement(family, ds, node, false)
			if art.Placement(family, ds, node, true) == got {
				t.Fatalf("%s: lean and full layouts share an entry", family)
			}
			if again := art.assignment(family, ds, node, false, func() *cachepolicy.Assignment {
				t.Fatalf("%s: Placement and assignment keys differ", family)
				return nil
			}); again != got {
				t.Fatalf("%s: placement not memoised", family)
			}
			if err := samePlacement(p.F, art.Streams, got, want[family][i]); err != nil {
				t.Fatalf("%s: differs from the direct build: %v", family, err)
			}
		}
	}
	if n := c.Stats().Ranks; n != int64(len(direct)) {
		t.Fatalf("%d placements ranked %d times, want once per family (%d)", 2*len(direct)*len(nodes), n, len(direct))
	}
}

// TestRankAccounting: a ranking's bytes are charged to its entry when it is
// built (once), leave the cache with the entry, and are not charged when a
// live holder of an evicted entry builds one. Stats.Ranks counts builds, not
// bytes: that late build still counts.
func TestRankAccounting(t *testing.T) {
	p1 := access.Plan{Seed: 1, F: 4000, N: 2, E: 4, BatchPerWorker: 4}
	p2 := access.Plan{Seed: 2, F: 4000, N: 2, E: 4, BatchPerWorker: 4}
	// Base artifacts are ~78 KB per plan and a ranking ~30 KB: the bound
	// admits one plan with its ranking, not two plans.
	c := New(120<<10, 0)
	a1 := c.Artifacts(p1)
	base := c.Stats().Bytes
	rank := a1.Rank(true)
	if rank.ApproxBytes() <= 0 {
		t.Fatalf("ranking reports %d bytes", rank.ApproxBytes())
	}
	if got := c.Stats().Bytes - base; got != rank.ApproxBytes() {
		t.Fatalf("ranking charged %d bytes, want %d", got, rank.ApproxBytes())
	}
	if a1.Rank(true) != rank || c.Stats().Bytes != base+rank.ApproxBytes() || c.Stats().Ranks != 1 {
		t.Fatalf("second request re-ranked or re-charged: %+v", c.Stats())
	}

	a2 := c.Artifacts(p2) // evicts p1 together with its ranking
	if st := c.Stats(); st.Entries != 1 || st.Bytes != a2.baseBytes() {
		t.Fatalf("after eviction: %+v, want 1 entry of %d bytes", st, a2.baseBytes())
	}
	a1.Rank(false) // lazy artifact on the evicted entry
	if got := c.Stats().Bytes; got != a2.baseBytes() {
		t.Fatalf("evicted entry's ranking charged the cache: %d -> %d bytes", a2.baseBytes(), got)
	}
	if n := c.Stats().Ranks; n != 2 {
		t.Fatalf("cache counts %d rankings after a build on an evicted entry, want 2", n)
	}
}

// TestSingleflight asserts concurrent requesters of one plan share a single
// computation and a single artifact object, and so do concurrent requesters
// of one ranking and one lean input: each is built, and counted, once. A
// second cache on the same plan builds and counts its own from zero.
func TestSingleflight(t *testing.T) {
	p := testPlans()[3]
	ds, node := testDataset(t, p.F), testNode(0.2, 0.3)
	c := New(0, 2)
	const goroutines = 16
	arts := make([]*Artifacts, goroutines)
	ranks := make([]*cachepolicy.Rank, goroutines)
	inputs := make([]*LeanInput, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			arts[i] = c.Artifacts(p)
			ranks[i] = arts[i].Rank(true)
			inputs[i] = arts[i].LeanInput(FamilyNoPFS, ds, node, func() *cachepolicy.Assignment {
				return arts[i].Rank(true).Fill(ds, node, true)
			}, func(a *cachepolicy.Assignment) *LeanInput {
				return &LeanInput{Streams: map[string]*TagStream{"": {Stream: arts[i].Streams[0], Tags: a.Tags(0, arts[i].Streams[0])}}}
			})
		}(i)
	}
	wg.Wait()
	for i := 1; i < goroutines; i++ {
		if arts[i] != arts[0] || ranks[i] != ranks[0] || inputs[i] != inputs[0] {
			t.Fatal("concurrent requesters got distinct artifact objects")
		}
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != goroutines-1 || st.Ranks != 1 || st.Placements != 1 || st.TagStreams != 1 {
		t.Fatalf("stats: %+v, want 1 miss / %d hits, 1 ranking, 1 placement, 1 tag stream", st, goroutines-1)
	}
	before := access.ShuffleCount()
	c.Artifacts(p)
	if access.ShuffleCount() != before {
		t.Fatal("warm lookup performed shuffle work")
	}

	other := New(0, 2)
	if other.Artifacts(p).Rank(true) == ranks[0] {
		t.Fatal("two caches share one ranking")
	}
	if st := other.Stats(); st.Ranks != 1 || st.Placements != 0 || st.TagStreams != 0 {
		t.Fatalf("second cache: %+v, want 1 ranking and no placement or tag stream", st)
	}
	if st := c.Stats(); st.Ranks != 1 || st.Placements != 1 || st.TagStreams != 1 {
		t.Fatalf("first cache after the second built: %+v, want its counts unchanged", st)
	}
}

// TestCacheRace hammers the cache from concurrent goroutines mixing plans,
// assignment lookups, and frequency materialisation — the shape of
// concurrent sweep cells. Run under -race in CI.
func TestCacheRace(t *testing.T) {
	c := New(1<<20, 0)
	plans := testPlans()
	ds := testDataset(t, 512)
	node := testNode(0.2, 0.3)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				p := plans[(g+i)%len(plans)]
				art := c.Artifacts(p)
				_ = art.Rank(true)
				if p.F <= ds.Len() {
					art.assignment(FamilyShard, ds, node, false, func() *cachepolicy.Assignment {
						return cachepolicy.BuildShard(p.F, p.N, ds, node)
					})
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestEviction verifies the size bound: inserting past MaxBytes evicts the
// least-recently-used entry, and evicted artifacts remain usable.
func TestEviction(t *testing.T) {
	p1 := access.Plan{Seed: 1, F: 4000, N: 2, E: 4, BatchPerWorker: 4}
	p2 := access.Plan{Seed: 2, F: 4000, N: 2, E: 4, BatchPerWorker: 4}
	// Each entry is ~(E+1)*F*4 = 78 KB (streams and epoch 0's order);
	// bound admits one, not two.
	c := New(120<<10, 0)
	a1 := c.Artifacts(p1)
	a2 := c.Artifacts(p2)
	st := c.Stats()
	if st.Entries != 1 {
		t.Fatalf("after overflow: %d entries, want 1 (stats %+v)", st.Entries, st)
	}
	if st.Bytes > st.MaxBytes {
		t.Fatalf("cache over budget after eviction: %+v", st)
	}
	// p1 was LRU and evicted; its artifacts must still be readable.
	if len(a1.Streams[0]) == 0 || len(a2.Streams[1]) == 0 {
		t.Fatal("evicted artifacts became unusable")
	}
	// Re-requesting p1 is a miss that rebuilds (and evicts p2).
	misses := c.Stats().Misses
	b1 := c.Artifacts(p1)
	if c.Stats().Misses != misses+1 {
		t.Fatal("re-request of evicted plan was not a miss")
	}
	eqStreams(t, "rebuilt", b1.Streams, a1.Streams)
}

// TestSizerAndNodeDigests pin the digest discrimination properties the
// assignment keys rely on.
func TestSizerAndNodeDigests(t *testing.T) {
	ds1 := testDataset(t, 128)
	ds2 := testDataset(t, 129)
	if SizerDigest(ds1) == SizerDigest(ds2) {
		t.Fatal("datasets of different length share a digest")
	}
	if SizerDigest(ds1) != SizerDigest(ds1) {
		t.Fatal("digest not deterministic")
	}
	n1 := testNode(1, 2)
	n2 := testNode(1, 3)
	n3 := testNode(1, 0)
	if NodeDigest(n1) == NodeDigest(n2) || NodeDigest(n1) == NodeDigest(n3) {
		t.Fatal("nodes of different capacities share a digest")
	}
}

// TestEvictedEntryDoesNotInflateBytes is the regression guard for lazy
// artifacts added after eviction: a live holder of an evicted entry that
// builds a placement must not charge the cache — those bytes could
// never be reclaimed and would permanently crowd out future entries.
func TestEvictedEntryDoesNotInflateBytes(t *testing.T) {
	p1 := access.Plan{Seed: 1, F: 4000, N: 2, E: 4, BatchPerWorker: 4}
	p2 := access.Plan{Seed: 2, F: 4000, N: 2, E: 4, BatchPerWorker: 4}
	c := New(120<<10, 0)
	a1 := c.Artifacts(p1)
	c.Artifacts(p2) // evicts p1
	before := c.Stats()
	if before.Entries != 1 {
		t.Fatalf("setup: want 1 entry, got %+v", before)
	}
	ds, node := testDataset(t, p1.F), testNode(1, 0)
	a1.assignment(FamilyShard, ds, node, false, func() *cachepolicy.Assignment { // lazy artifact on the evicted entry
		return cachepolicy.BuildShard(p1.F, p1.N, ds, node)
	})
	after := c.Stats()
	if after.Bytes != before.Bytes {
		t.Fatalf("evicted entry charged the cache: %d -> %d bytes", before.Bytes, after.Bytes)
	}
}

// plainSizer hides a dataset's SizeDigester fast path so the generic
// SizerDigest loop runs.
type plainSizer struct{ ds dataset.Dataset }

func (p plainSizer) Len() int          { return p.ds.Len() }
func (p plainSizer) Size(id int) int64 { return p.ds.Size(id) }

// TestSizeDigestFastPathMatchesGeneric guards the duplicated FNV-1a
// formula: Synthetic's precomputed digest and the generic full-table hash
// must agree, or datasets with identical sizes would silently stop sharing
// cached assignments depending on which path computed their key. The paper
// presets at full scale check that Size gives back every drawn size from
// the dataset's one (MB) size table.
func TestSizeDigestFastPathMatchesGeneric(t *testing.T) {
	check := func(ds dataset.Dataset) {
		if SizerDigest(ds) != SizerDigest(plainSizer{ds}) {
			t.Errorf("%s: Synthetic.SizeDigest diverges from the generic SizerDigest loop", ds.Name())
		}
	}
	check(testDataset(t, 257))
	for _, spec := range []dataset.Spec{ // one full-scale table live at a time
		dataset.MNISTSpec(), dataset.ImageNet1kSpec(), dataset.OpenImagesSpec(),
		dataset.ImageNet22kSpec(), dataset.CosmoFlowSpec(), dataset.CosmoFlow512Spec(),
	} {
		check(dataset.MustNew(spec))
	}
}

// TestArtifactsAllocateStreamsNotOrders guards the stream-first build: an
// F = 100k, E = 10 plan allocates its streams, epoch 0's order and one
// scratch order per pool worker that runs a later epoch, never an order per
// epoch; a pool as wide as E holds no more orders than E.
func TestArtifactsAllocateStreamsNotOrders(t *testing.T) {
	p := access.Plan{Seed: 3, F: 100_000, N: 4, E: 10, BatchPerWorker: 32}
	for _, workers := range []int{2, p.E} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		New(0, workers).Artifacts(p)
		runtime.ReadMemStats(&after)
		limit := uint64(4*p.E*p.F + 4*(1+min(workers, p.E-1))*p.F + 128<<10)
		got := after.TotalAlloc - before.TotalAlloc
		t.Logf("pool of %d: building the artifacts allocated %d bytes (bound %d)", workers, got, limit)
		if got > limit {
			t.Fatalf("pool of %d: building the artifacts allocated %d bytes, want at most %d", workers, got, limit)
		}
	}
}
