package access

import (
	"reflect"
	"testing"
)

// patternPlan returns a small plan carrying the given spec.
func patternPlan(spec string) Plan {
	return Plan{Seed: 42, F: 120, N: 4, E: 4, BatchPerWorker: 5, Access: spec}
}

// specSamples is one spec per kind plus presets, reused across tests.
var specSamples = []string{
	"", "uniform",
	"zipf:s=1.2", "zipf:s=1.1,drift=0.05",
	"boost:frac=0.1,factor=8", "boost:frac=0.25,factor=4,drift=0.1",
	"curriculum:buckets=4", "curriculum:buckets=3,shuffle=off",
	"mix:w=0.6/0.3/0.1", "mix:w=1/1",
	"elastic:join=1@1,leave=2@2", "elastic:leave=3@1",
	"zipf", "drifting-zipf", "hot-set", "curriculum", "mix", "elastic",
}

func TestParseAccessSpecRoundTrip(t *testing.T) {
	for _, spec := range specSamples {
		pat, err := ParseAccessSpec(spec)
		if err != nil {
			t.Fatalf("ParseAccessSpec(%q): %v", spec, err)
		}
		again, err := ParseAccessSpec(pat.Spec())
		if err != nil {
			t.Fatalf("re-parse of canonical %q (from %q): %v", pat.Spec(), spec, err)
		}
		// Canonical specs are a fixed point; preset names dissolve into
		// their spec on the round trip.
		pat.Name = ""
		if !reflect.DeepEqual(pat, again) {
			t.Errorf("%q: canonical round-trip drifted:\n got %+v\nwant %+v", spec, again, pat)
		}
		if again.Spec() != pat.Spec() {
			t.Errorf("%q: Spec not a fixed point: %q vs %q", spec, again.Spec(), pat.Spec())
		}
	}
}

func TestParseAccessSpecErrors(t *testing.T) {
	bad := []string{
		"bogus", "bogus:x=1",
		"zipf:", "zipf:s=0", "zipf:s=nope", "zipf:q=1",
		"boost:frac=0,factor=2", "boost:frac=2,factor=2", "boost:frac=0.1,factor=0.5",
		"curriculum:buckets=0", "curriculum:buckets=x", "curriculum:buckets=2,shuffle=maybe",
		"mix:w=1", "mix:w=1/0", "mix:w=1/-2", "mix:q=1/1",
		"elastic:", "elastic:join=1", "elastic:join=1@0", "elastic:join=-1@1",
		"elastic:join=1@1,join=1@2", "elastic:join=1@3,leave=1@2",
		"zipf:s=1,drift=-0.5",
	}
	for _, spec := range bad {
		if _, err := ParseAccessSpec(spec); err == nil {
			t.Errorf("ParseAccessSpec(%q): want error, got nil", spec)
		}
	}
}

func TestCanonicalSpec(t *testing.T) {
	for spec, want := range map[string]string{
		"":              "",
		"uniform":       "",
		"zipf":          "zipf:s=1.1",
		"zipf:s=1.1":    "zipf:s=1.1",
		"hot-set":       "boost:frac=0.1,factor=8",
		"drifting-zipf": "zipf:s=1.1,drift=0.05",
		"elastic":       "elastic:join=1@1,leave=2@2",
	} {
		got, err := CanonicalSpec(spec)
		if err != nil {
			t.Fatalf("CanonicalSpec(%q): %v", spec, err)
		}
		if got != want {
			t.Errorf("CanonicalSpec(%q) = %q, want %q", spec, got, want)
		}
	}
}

// TestUniformSpecKeepsLegacyOrders pins the opt-out guarantee: a plan with
// the uniform (or empty) spec produces exactly the orders, streams, and hash
// of a pattern-free plan.
func TestUniformSpecKeepsLegacyOrders(t *testing.T) {
	base := patternPlan("")
	uni := patternPlan("uniform")
	for e := 0; e < base.E; e++ {
		if !reflect.DeepEqual(base.EpochOrder(e), uni.EpochOrder(e)) {
			t.Fatalf("epoch %d: uniform spec changed the order", e)
		}
	}
	if !reflect.DeepEqual(base.AllWorkerStreams(), uni.AllWorkerStreams()) {
		t.Fatal("uniform spec changed the worker streams")
	}
}

// TestPatternOrdersDeterministic pins seed determinism and the parallel
// generation contract for every pattern kind.
func TestPatternOrdersDeterministic(t *testing.T) {
	for _, spec := range specSamples {
		p := patternPlan(spec)
		serial := make([][]SampleID, p.E)
		for e := range serial {
			serial[e] = p.EpochOrder(e)
		}
		for _, workers := range []int{1, 4} {
			if got := p.EpochOrders(workers); !reflect.DeepEqual(got, serial) {
				t.Errorf("%q: EpochOrders(%d) differs from serial EpochOrder loop", spec, workers)
			}
		}
		q := patternPlan(spec)
		for e := 0; e < p.E; e++ {
			if !reflect.DeepEqual(p.EpochOrder(e), q.EpochOrder(e)) {
				t.Errorf("%q: epoch %d order not a pure function of the plan", spec, e)
			}
		}
	}
}

// TestPermutationPatterns: curriculum, mix, elastic, and uniform orders must
// each be a permutation of [0,F); importance sampling draws with replacement
// and is exempt.
func TestPermutationPatterns(t *testing.T) {
	for _, spec := range []string{"", "curriculum:buckets=4", "curriculum:buckets=3,shuffle=off", "mix:w=0.6/0.3/0.1", "elastic:join=1@1"} {
		p := patternPlan(spec)
		for e := 0; e < p.E; e++ {
			seen := make([]bool, p.F)
			for _, id := range p.EpochOrder(e) {
				if seen[id] {
					t.Fatalf("%q epoch %d: sample %d repeated", spec, e, id)
				}
				seen[id] = true
			}
		}
	}
}

// TestZipfSkewsFrequencies: the head of the Zipf distribution must be drawn
// substantially more often than the tail across the run.
func TestZipfSkewsFrequencies(t *testing.T) {
	p := patternPlan("zipf:s=1.2")
	var head, tail int64
	for e := 0; e < p.E; e++ {
		for _, id := range p.EpochOrder(e) {
			if int(id) < p.F/10 {
				head++
			} else if int(id) >= p.F*9/10 {
				tail++
			}
		}
	}
	if head <= 2*tail {
		t.Fatalf("zipf head %d not dominating tail %d", head, tail)
	}
}

// TestBoostDriftMovesHotSet: with drift, the boosted window must rotate —
// later epochs concentrate on different samples than epoch 0.
func TestBoostDriftMovesHotSet(t *testing.T) {
	p := patternPlan("boost:frac=0.1,factor=16,drift=0.5")
	counts := func(e int) []int {
		c := make([]int, p.F)
		for _, id := range p.EpochOrder(e) {
			c[id]++
		}
		return c
	}
	hottest := func(c []int) int {
		best := 0
		for i, n := range c {
			if n > c[best] {
				best = i
			}
		}
		return best
	}
	h0, h2 := hottest(counts(0)), hottest(counts(2))
	if d := (h2 - h0 + p.F) % p.F; d < p.F/10 {
		t.Fatalf("drifted hot set did not move: hottest %d -> %d", h0, h2)
	}
}

// TestCurriculumBucketsPreserveDifficultyOrder: each bucket holds exactly
// its id range, so the epoch stays difficulty-ordered at bucket granularity.
func TestCurriculumBucketsPreserveDifficultyOrder(t *testing.T) {
	p := patternPlan("curriculum:buckets=4")
	b, f := 4, p.F
	for e := 0; e < p.E; e++ {
		order := p.EpochOrder(e)
		for k := 0; k < b; k++ {
			lo, hi := k*f/b, (k+1)*f/b
			for _, id := range order[lo:hi] {
				if int(id) < lo || int(id) >= hi {
					t.Fatalf("epoch %d: sample %d escaped bucket [%d,%d)", e, id, lo, hi)
				}
			}
		}
	}
	// shuffle=off is the identity order.
	q := patternPlan("curriculum:buckets=4,shuffle=off")
	order := q.EpochOrder(1)
	for i, id := range order {
		if int(id) != i {
			t.Fatalf("shuffle=off: position %d holds %d, want %d", i, id, i)
		}
	}
}

// TestMixInterleaveRates: parts must appear at roughly their mixture rates
// in every prefix (largest-remainder interleave, not front-loading).
func TestMixInterleaveRates(t *testing.T) {
	p := patternPlan("mix:w=0.5/0.3/0.2")
	order := p.EpochOrder(0)
	half := order[:p.F/2]
	counts := make([]int, 3)
	for _, id := range half {
		counts[MixPart(id, p.F, 3)]++
	}
	// Parts are near-equal in size (40 each of 120); the half-prefix at
	// rates 0.5/0.3/0.2 should exhaust none and keep ordering 0 >= 1 >= 2.
	if !(counts[0] >= counts[1] && counts[1] >= counts[2]) {
		t.Fatalf("prefix counts %v do not follow mixture weights", counts)
	}
	if counts[2] == 0 {
		t.Fatalf("light part starved in the first half: %v", counts)
	}
}

// TestMixPartInverse pins the contiguous-part accounting rule.
func TestMixPartInverse(t *testing.T) {
	for _, k := range []int{2, 3, 7} {
		for _, f := range []int{10, 120, 121} {
			if k > f {
				continue
			}
			for id := 0; id < f; id++ {
				part := MixPart(SampleID(id), f, k)
				lo, hi := part*f/k, (part+1)*f/k
				if id < lo || id >= hi {
					t.Fatalf("MixPart(%d, f=%d, k=%d) = %d but range is [%d,%d)", id, f, k, part, lo, hi)
				}
			}
		}
	}
}

// TestElasticPartitionExactlyOnce: each epoch's positions are partitioned
// exactly once among the epoch's active ranks, and inactive ranks get
// nothing.
func TestElasticPartitionExactlyOnce(t *testing.T) {
	p := patternPlan("elastic:join=1@1,leave=2@2")
	orders := p.EpochOrders(0)
	streams, ends := p.AllStreamsFromOrders(orders, 0)
	if ends == nil {
		t.Fatal("elastic plan returned nil epoch ends")
	}
	wantActive := [][]int{{0, 2, 3}, {0, 1, 2, 3}, {0, 1, 3}, {0, 1, 3}}
	for e := 0; e < p.E; e++ {
		if got := p.ActiveRanks(e); !reflect.DeepEqual(got, wantActive[e]) {
			t.Fatalf("epoch %d active ranks = %v, want %v", e, got, wantActive[e])
		}
		// Reassemble the epoch from the per-worker slices: the union must
		// be exactly the epoch order's consumed prefix as a multiset.
		seen := map[SampleID]int{}
		total := 0
		for w := 0; w < p.N; w++ {
			lo := 0
			if e > 0 {
				lo = ends[w][e-1]
			}
			seg := streams[w][lo:ends[w][e]]
			active := false
			for _, r := range wantActive[e] {
				if r == w {
					active = true
				}
			}
			if !active && len(seg) != 0 {
				t.Fatalf("epoch %d: inactive rank %d delivered %d samples", e, w, len(seg))
			}
			for _, id := range seg {
				seen[id]++
			}
			total += len(seg)
		}
		if total != p.EpochLimit() {
			t.Fatalf("epoch %d delivered %d samples, want %d", e, total, p.EpochLimit())
		}
		for _, id := range orders[e][:p.EpochLimit()] {
			if seen[id] != 1 {
				t.Fatalf("epoch %d: sample %d delivered %d times", e, id, seen[id])
			}
		}
	}
	// AllWorkerStreams must agree with the orders-based builder.
	if got := p.AllWorkerStreams(); !reflect.DeepEqual(got, streams) {
		t.Fatal("AllWorkerStreams disagrees with AllStreamsFromOrders")
	}
}

// TestStaticStreamsFromOrdersMatchLegacy: for non-elastic plans the
// concurrent builder must replicate the pos-mod-N partition exactly, and
// every worker's epoch ends are the multiples of SamplesPerEpoch.
func TestStaticStreamsFromOrdersMatchLegacy(t *testing.T) {
	for _, spec := range []string{"", "zipf:s=1.1", "mix:w=1/1"} {
		p := patternPlan(spec)
		orders := p.EpochOrders(0)
		streams, ends := p.AllStreamsFromOrders(orders, 0)
		for w := range ends {
			pe := p.SamplesPerEpoch(w)
			for e, end := range ends[w] {
				if end != (e+1)*pe {
					t.Fatalf("%q: worker %d epoch %d ends at %d, want %d", spec, w, e, end, (e+1)*pe)
				}
			}
			if len(ends[w]) != p.E {
				t.Fatalf("%q: worker %d has %d epoch ends, want %d", spec, w, len(ends[w]), p.E)
			}
		}
		if want := p.AllWorkerStreams(); !reflect.DeepEqual(streams, want) {
			t.Fatalf("%q: AllStreamsFromOrders disagrees with AllWorkerStreams", spec)
		}
	}
}

// TestElasticValidation pins the plan-dependent elastic checks.
func TestElasticValidation(t *testing.T) {
	p := patternPlan("elastic:join=7@1")
	if err := p.Validate(); err == nil {
		t.Error("rank out of range: want error")
	}
	q := Plan{Seed: 1, F: 40, N: 2, E: 3, BatchPerWorker: 2,
		Access: "elastic:join=0@1,join=1@2"}
	if err := q.Validate(); err == nil {
		t.Error("empty epoch-0 active set: want error")
	}
	r := patternPlan("elastic:join=1@1,leave=2@2")
	if err := r.Validate(); err != nil {
		t.Errorf("valid elastic plan rejected: %v", err)
	}
}

// TestHashCoversPattern: plans differing only in the access spec must not
// collide, and the empty spec must hash identically to the pre-pattern plan
// (the live digest allgather stays compatible).
func TestHashCoversPattern(t *testing.T) {
	base := patternPlan("")
	hashes := map[uint64]string{base.Hash(): ""}
	for _, spec := range []string{"zipf:s=1.1", "zipf:s=1.2", "curriculum:buckets=4", "elastic:join=1@1"} {
		p := patternPlan(spec)
		h := p.Hash()
		if prev, dup := hashes[h]; dup {
			t.Fatalf("hash collision between specs %q and %q", prev, spec)
		}
		hashes[h] = spec
	}
}

// TestWorkerFrequenciesMatchStreamsUnderPatterns: the frequency tables that
// drive placement must agree with the materialised streams for every kind.
func TestWorkerFrequenciesMatchStreamsUnderPatterns(t *testing.T) {
	for _, spec := range []string{"zipf:s=1.1", "boost:frac=0.2,factor=4", "curriculum:buckets=4", "mix:w=0.6/0.4", "elastic:join=1@1,leave=2@2"} {
		p := patternPlan(spec)
		streams := p.AllWorkerStreams()
		freqs := p.Frequencies()
		for w := 0; w < p.N; w++ {
			want := make([]int32, p.F)
			for _, id := range streams[w] {
				want[id]++
			}
			if !reflect.DeepEqual(freqs[w], want) {
				t.Fatalf("%q: worker %d frequencies disagree with stream", spec, w)
			}
			if wf := p.WorkerFrequencies(w); !reflect.DeepEqual(wf, want) {
				t.Fatalf("%q: WorkerFrequencies(%d) disagrees with stream", spec, w)
			}
		}
	}
}

// presetPlans is one plan per access preset, the uniform shuffle included,
// with and without the trailing partial batch (F is not a multiple of B).
func presetPlans(t *testing.T) []Plan {
	t.Helper()
	specs := []string{""}
	for _, pat := range Presets() {
		specs = append(specs, pat.Spec())
	}
	var plans []Plan
	for _, spec := range specs {
		for _, drop := range []bool{true, false} {
			p := Plan{Seed: 17, F: 127, N: 4, E: 4, BatchPerWorker: 5, DropLast: drop, Access: spec}
			if err := p.Validate(); err != nil {
				t.Fatalf("%q: %v", spec, err)
			}
			plans = append(plans, p)
		}
	}
	return plans
}

// TestBuildStreamsMatchesReferences: the stream-first builder equals the
// serial AllWorkerStreams and the orders-based AllStreamsFromOrders for
// every preset at every pool width, its ends are the cumulative per-epoch
// lengths, it keeps epoch 0's order, and it counts exactly E shuffles.
func TestBuildStreamsMatchesReferences(t *testing.T) {
	for _, p := range presetPlans(t) {
		want := p.AllWorkerStreams()
		wantEnds := make([][]int, p.N)
		for w := range wantEnds {
			n := 0
			for e := 0; e < p.E; e++ {
				n += len(p.WorkerEpoch(w, e))
				wantEnds[w] = append(wantEnds[w], n)
			}
		}
		for _, workers := range []int{1, 2, 8} {
			fromOrders, ordersEnds := p.AllStreamsFromOrders(p.EpochOrders(workers), workers)
			before := ShuffleCount()
			first, streams, ends := p.BuildStreams(workers)
			if n := ShuffleCount() - before; n != int64(p.E) {
				t.Errorf("%q drop=%v workers=%d: BuildStreams counted %d shuffles, want %d", p.Access, p.DropLast, workers, n, p.E)
			}
			if !reflect.DeepEqual(streams, want) || !reflect.DeepEqual(fromOrders, want) {
				t.Errorf("%q drop=%v workers=%d: streams differ from AllWorkerStreams", p.Access, p.DropLast, workers)
			}
			if !reflect.DeepEqual(ends, wantEnds) || !reflect.DeepEqual(ordersEnds, wantEnds) {
				t.Errorf("%q drop=%v workers=%d: ends %v, want %v", p.Access, p.DropLast, workers, ends, wantEnds)
			}
			if !reflect.DeepEqual(first, p.EpochOrder(0)) {
				t.Errorf("%q drop=%v workers=%d: first is not epoch 0's order", p.Access, p.DropLast, workers)
			}
		}
	}
}

// TestOrderFromStreamsRebuildsEveryEpoch: interleaving the streams gives
// back every epoch's order up to the epoch limit, for every preset, into
// one reused buffer.
func TestOrderFromStreamsRebuildsEveryEpoch(t *testing.T) {
	for _, p := range presetPlans(t) {
		_, streams, ends := p.BuildStreams(2)
		var buf []SampleID
		for e := 0; e < p.E; e++ {
			buf = p.OrderFromStreams(streams, ends, e, buf)
			if want := p.EpochOrder(e)[:p.EpochLimit()]; !reflect.DeepEqual(buf, want) {
				t.Errorf("%q drop=%v epoch %d: rebuilt order differs from EpochOrder", p.Access, p.DropLast, e)
			}
		}
	}
}
