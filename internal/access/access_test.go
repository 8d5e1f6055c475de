package access

import (
	"testing"
	"testing/quick"
)

func mkPlan(seed uint64, f, n, e, b int, drop bool) *Plan {
	return &Plan{Seed: seed, F: f, N: n, E: e, BatchPerWorker: b, DropLast: drop}
}

func TestValidate(t *testing.T) {
	good := mkPlan(1, 100, 4, 2, 8, false)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	bad := []*Plan{
		mkPlan(1, 0, 4, 2, 8, false),
		mkPlan(1, 100, 0, 2, 8, false),
		mkPlan(1, 100, 4, 0, 8, false),
		mkPlan(1, 100, 4, 2, 0, false),
		mkPlan(1, 10, 4, 2, 8, false), // global batch 32 > F=10
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad plan %d accepted: %+v", i, p)
		}
	}
}

func TestGlobalBatchAndIterations(t *testing.T) {
	p := mkPlan(1, 100, 4, 1, 8, false) // global batch 32
	if p.GlobalBatch() != 32 {
		t.Errorf("GlobalBatch = %d, want 32", p.GlobalBatch())
	}
	if got := p.IterationsPerEpoch(); got != 4 { // ceil(100/32)
		t.Errorf("iterations (keep last) = %d, want 4", got)
	}
	p.DropLast = true
	if got := p.IterationsPerEpoch(); got != 3 { // floor(100/32)
		t.Errorf("iterations (drop last) = %d, want 3", got)
	}
}

func TestEpochOrderIsPermutation(t *testing.T) {
	p := mkPlan(42, 1000, 4, 3, 8, false)
	for e := 0; e < p.E; e++ {
		order := p.EpochOrder(e)
		seen := make([]bool, p.F)
		for _, id := range order {
			if id < 0 || int(id) >= p.F || seen[id] {
				t.Fatalf("epoch %d order not a permutation (id %d)", e, id)
			}
			seen[id] = true
		}
	}
}

func TestEpochOrdersDiffer(t *testing.T) {
	p := mkPlan(42, 1000, 4, 2, 8, false)
	a, b := p.EpochOrder(0), p.EpochOrder(1)
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same > len(a)/10 {
		t.Errorf("epochs 0 and 1 share %d/%d positions; shuffles look identical", same, len(a))
	}
}

func TestClairvoyanceDeterminism(t *testing.T) {
	// Two independently constructed plans with the same seed must agree on
	// every worker's stream — this IS the paper's clairvoyance property.
	a := mkPlan(7, 500, 4, 3, 4, false)
	b := mkPlan(7, 500, 4, 3, 4, false)
	for w := 0; w < 4; w++ {
		sa, sb := a.WorkerStream(w), b.WorkerStream(w)
		if len(sa) != len(sb) {
			t.Fatalf("worker %d stream lengths differ: %d vs %d", w, len(sa), len(sb))
		}
		for i := range sa {
			if sa[i] != sb[i] {
				t.Fatalf("worker %d streams diverge at %d", w, i)
			}
		}
	}
	if a.Hash() != b.Hash() {
		t.Error("same-parameter plans have different hashes")
	}
}

func TestHashDetectsParameterDrift(t *testing.T) {
	base := mkPlan(7, 500, 4, 3, 4, false)
	variants := []*Plan{
		mkPlan(8, 500, 4, 3, 4, false),
		mkPlan(7, 501, 4, 3, 4, false),
		mkPlan(7, 500, 5, 3, 4, false),
		mkPlan(7, 500, 4, 4, 4, false),
		mkPlan(7, 500, 4, 3, 5, false),
		mkPlan(7, 500, 4, 3, 4, true),
	}
	for i, v := range variants {
		if v.Hash() == base.Hash() {
			t.Errorf("variant %d has same hash as base", i)
		}
	}
}

func TestWorkerStreamsPartitionEpoch(t *testing.T) {
	p := mkPlan(3, 997, 4, 1, 8, false) // F not divisible by batch; keep last
	seen := make([]int, p.F)
	total := 0
	for w := 0; w < p.N; w++ {
		for _, id := range p.WorkerEpoch(w, 0) {
			seen[id]++
			total++
		}
	}
	if total != p.F {
		t.Fatalf("workers consumed %d samples in epoch, want %d", total, p.F)
	}
	for id, c := range seen {
		if c != 1 {
			t.Fatalf("sample %d accessed %d times in one epoch, want 1", id, c)
		}
	}
}

func TestDropLastSkipsTail(t *testing.T) {
	p := mkPlan(3, 100, 4, 1, 8, true) // global batch 32, limit 96
	total := 0
	for w := 0; w < p.N; w++ {
		n := len(p.WorkerEpoch(w, 0))
		if n != 24 {
			t.Errorf("worker %d got %d samples, want 24", w, n)
		}
		total += n
	}
	if total != 96 {
		t.Errorf("epoch total = %d, want 96", total)
	}
}

func TestSamplesPerEpochMatchesStreams(t *testing.T) {
	f := func(seed uint64, fRaw, nRaw, bRaw uint8, drop bool) bool {
		n := int(nRaw%6) + 1
		b := int(bRaw%4) + 1
		f := int(fRaw%100) + n*b // ensure global batch fits
		p := mkPlan(seed, f, n, 2, b, drop)
		if p.Validate() != nil {
			return true
		}
		for w := 0; w < n; w++ {
			if p.SamplesPerEpoch(w) != len(p.WorkerEpoch(w, 0)) {
				return false
			}
			if p.StreamLen(w) != len(p.WorkerStream(w)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestFrequenciesMatchStreams(t *testing.T) {
	p := mkPlan(11, 300, 3, 4, 5, false)
	freqs := p.Frequencies()
	for w := 0; w < p.N; w++ {
		counted := make([]int32, p.F)
		for _, id := range p.WorkerStream(w) {
			counted[id]++
		}
		for k := 0; k < p.F; k++ {
			if counted[k] != freqs[w][k] {
				t.Fatalf("worker %d sample %d: stream count %d, Frequencies %d",
					w, k, counted[k], freqs[w][k])
			}
		}
		wf := p.WorkerFrequencies(w)
		for k := 0; k < p.F; k++ {
			if wf[k] != freqs[w][k] {
				t.Fatalf("WorkerFrequencies mismatch at worker %d sample %d", w, k)
			}
		}
	}
}

func TestTotalAccessInvariant(t *testing.T) {
	p := mkPlan(5, 256, 4, 6, 8, false) // F divisible by global batch
	freqs := p.Frequencies()
	if k, tot := TotalAccessInvariant(p, freqs); k != -1 {
		t.Fatalf("sample %d accessed %d times, want exactly %d", k, tot, p.E)
	}
	// With drop_last and non-divisible F, totals must stay <= E.
	p2 := mkPlan(5, 260, 4, 6, 8, true)
	freqs2 := p2.Frequencies()
	if k, tot := TotalAccessInvariant(p2, freqs2); k != -1 {
		t.Fatalf("drop_last: sample %d accessed %d times, exceeds E=%d", k, tot, p2.E)
	}
}

func TestTotalAccessInvariantDetectsCorruption(t *testing.T) {
	p := mkPlan(5, 64, 4, 3, 4, false)
	freqs := p.Frequencies()
	freqs[0][10]++ // corrupt
	if k, _ := TotalAccessInvariant(p, freqs); k != 10 {
		t.Fatalf("corruption not detected (got sample %d)", k)
	}
}

func TestLemma1Property(t *testing.T) {
	// Lemma 1 is a theorem about any frequency matrix where each sample's
	// total is exactly E; verify over random plans.
	f := func(seed uint64, nRaw, eRaw uint8) bool {
		n := int(nRaw%5) + 2
		e := int(eRaw%12) + 4
		p := mkPlan(seed, 128, n, e, 2, false)
		if p.Validate() != nil {
			return true
		}
		freqs := p.Frequencies()
		return Lemma1Violations(freqs, e, 0.5) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestFrequencyHistogram(t *testing.T) {
	h := FrequencyHistogram([]int32{0, 1, 1, 2, 5})
	if h.Total != 5 {
		t.Errorf("Total = %d, want 5", h.Total)
	}
	if h.Counts[1] != 2 || h.Counts[5] != 1 {
		t.Errorf("counts wrong: %v", h.Counts)
	}
}

func TestEpochOrderPanicsOutOfRange(t *testing.T) {
	p := mkPlan(1, 10, 2, 2, 2, false)
	defer func() {
		if recover() == nil {
			t.Fatal("EpochOrder(-1) did not panic")
		}
	}()
	p.EpochOrder(-1)
}

func BenchmarkEpochOrderImageNet1k(b *testing.B) {
	p := mkPlan(1, 1281167, 16, 90, 64, true)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = p.EpochOrder(i % p.E)
	}
}

func BenchmarkFrequencies(b *testing.B) {
	p := mkPlan(1, 100000, 8, 20, 16, true)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = p.Frequencies()
	}
}

// TestEpochOrdersMatchSerial verifies the parallel epoch-shuffle generation
// is bit-identical to the serial EpochOrder loop at every pool width.
func TestEpochOrdersMatchSerial(t *testing.T) {
	p := mkPlan(11, 400, 4, 6, 8, false)
	want := make([][]SampleID, p.E)
	for e := 0; e < p.E; e++ {
		want[e] = p.EpochOrder(e)
	}
	for _, workers := range []int{0, 1, 2, 3, 16} {
		got := p.EpochOrders(workers)
		if len(got) != p.E {
			t.Fatalf("workers=%d: %d orders, want %d", workers, len(got), p.E)
		}
		for e := range want {
			for i := range want[e] {
				if got[e][i] != want[e][i] {
					t.Fatalf("workers=%d epoch %d pos %d: got %d want %d",
						workers, e, i, got[e][i], want[e][i])
				}
			}
		}
	}
}

// TestShuffleCountProbe verifies the probe counts one shuffle per generated
// epoch order, including the parallel path.
func TestShuffleCountProbe(t *testing.T) {
	p := mkPlan(3, 100, 2, 4, 5, false)
	before := ShuffleCount()
	p.EpochOrder(0)
	if got := ShuffleCount() - before; got != 1 {
		t.Fatalf("EpochOrder counted %d shuffles, want 1", got)
	}
	before = ShuffleCount()
	p.EpochOrders(2)
	if got := ShuffleCount() - before; got != int64(p.E) {
		t.Fatalf("EpochOrders counted %d shuffles, want %d", got, p.E)
	}
}

// TestHashCoversLaterEpochs demonstrates the collision the per-epoch digest
// folding closes. The old Hash sampled only epoch 0's derived generator, so
// two workers whose epoch-stream derivation agrees for epoch 0 but diverges
// for a later epoch (version skew in the derivation code) exchanged equal
// digests while planning different access streams. With every epoch sampled,
// the digests differ.
func TestHashCoversLaterEpochs(t *testing.T) {
	p := mkPlan(7, 500, 4, 5, 4, false)
	healthy := p.epochSample
	// A drifted peer: identical epoch-0 stream, divergent epoch-3 stream.
	drifted := func(e int) uint64 {
		s := healthy(e)
		if e == 3 {
			return s ^ 0xdeadbeef
		}
		return s
	}
	// Old scheme: sample epoch 0 only (16 draws of the same generator fold
	// to a pure function of epochSample(0) for collision purposes — both
	// sides agree on epoch 0, so the old digests collide).
	oldHash := func(sample func(e int) uint64) uint64 {
		epoch0Only := func(e int) uint64 { return sample(0) }
		return p.hashWith(epoch0Only)
	}
	if oldHash(healthy) != oldHash(drifted) {
		t.Fatal("epoch-0-only digests should collide for epoch-3 drift (the old bug)")
	}
	if p.hashWith(healthy) == p.hashWith(drifted) {
		t.Fatal("full per-epoch digest must distinguish epoch-3 drift")
	}
	// And the production Hash is the healthy full digest.
	if p.Hash() != p.hashWith(healthy) {
		t.Fatal("Hash must sample every epoch's generator")
	}
}
