// Package access implements NoPFS's clairvoyant access-stream analysis
// (paper Secs. 2 and 3) and the workload patterns layered on it.
//
// Mini-batch SGD orders the dataset indices once per epoch and partitions
// each global batch among the N data-parallel workers. Because the order is
// a pure function of a PRNG seed, every worker can reconstruct the entire
// access stream R for every worker, for every epoch, before training starts.
// That reconstruction — the Plan — is the input to NoPFS's caching policy,
// the performance model, and the simulator.
//
// The default order is the paper's uniform Fisher-Yates epoch shuffle, but
// a Plan may carry an access pattern (Plan.Access, see pattern.go): Zipf or
// boost-set importance sampling, curriculum ordering, multi-dataset
// mixtures, or an elastic membership schedule that re-partitions positions
// as ranks join and leave. Every pattern remains a deterministic function
// of (Seed, Access spec), so clairvoyance is preserved.
package access

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/prng"
)

// shuffleCount counts epoch-order generations (full Fisher-Yates passes)
// executed by this package since process start. It is a test probe: the
// plan-artifact cache's contract is that warm grid cells perform *zero*
// shuffle work, and asserting this counter is flat across a warm run is how
// the tests verify it.
var shuffleCount atomic.Int64

// ShuffleCount returns the number of epoch shuffles generated so far.
func ShuffleCount() int64 { return shuffleCount.Load() }

// SampleID identifies a sample within a dataset. int32 keeps the large
// materialised streams (ImageNet-22k has 14.2M samples) compact.
type SampleID = int32

// Plan describes a training run's access pattern: it is the clairvoyant
// oracle. All methods are deterministic functions of the exported fields, so
// two workers constructing a Plan from the same values always agree.
type Plan struct {
	Seed uint64 // PRNG seed generating every epoch's shuffle
	F    int    // number of samples in the dataset
	N    int    // number of workers
	E    int    // number of epochs
	// BatchPerWorker is the per-worker mini-batch size b_i; the global
	// batch is B = N * BatchPerWorker.
	BatchPerWorker int
	// DropLast drops the final, smaller iteration when F is not a
	// multiple of the global batch (PyTorch drop_last semantics).
	DropLast bool
	// Access is the canonical access-pattern spec ("" = the uniform epoch
	// shuffle; see ParseAccessSpec for the grammar). Held as a string so
	// Plan stays a comparable map key for the plan-artifact cache.
	Access string
}

// Validate reports whether the plan's parameters are usable.
func (p *Plan) Validate() error {
	switch {
	case p.F <= 0:
		return errors.New("access: plan needs F > 0 samples")
	case p.N <= 0:
		return errors.New("access: plan needs N > 0 workers")
	case p.E <= 0:
		return errors.New("access: plan needs E > 0 epochs")
	case p.BatchPerWorker <= 0:
		return errors.New("access: plan needs BatchPerWorker > 0")
	case p.GlobalBatch() > p.F:
		return fmt.Errorf("access: global batch %d exceeds dataset size %d", p.GlobalBatch(), p.F)
	}
	pat, err := ParseAccessSpec(p.Access)
	if err != nil {
		return err
	}
	return pat.validateFor(p)
}

// Pattern returns the plan's parsed access pattern. It panics on a malformed
// spec — Validate (run by every entry path) reports that as an error first.
func (p *Plan) Pattern() Pattern {
	pat, err := ParseAccessSpec(p.Access)
	if err != nil {
		panic(err)
	}
	return pat
}

// Elastic reports whether the plan carries an elastic membership schedule
// (per-epoch worker counts differ; consumers must use per-worker epoch ends
// instead of the uniform SamplesPerEpoch arithmetic).
func (p *Plan) Elastic() bool { return p.Pattern().Elastic() }

// ActiveRanks returns epoch e's active rank set in ascending order. For
// non-elastic plans every rank is always active.
func (p *Plan) ActiveRanks(e int) []int {
	pat := p.Pattern()
	return pat.activeRanks(e, p.N)
}

// activeFor returns worker's ordinal within epoch e's active set and the
// active count; ordinal -1 when the worker sits the epoch out. The ordinal
// replaces the worker index in the pos-mod-N partition rule.
func (p *Plan) activeFor(pat Pattern, worker, e int) (ord, count int) {
	if !pat.Elastic() {
		return worker, p.N
	}
	active := pat.activeRanks(e, p.N)
	for i, r := range active {
		if r == worker {
			return i, len(active)
		}
	}
	return -1, len(active)
}

// GlobalBatch returns B = N * BatchPerWorker.
func (p *Plan) GlobalBatch() int { return p.N * p.BatchPerWorker }

// IterationsPerEpoch returns T, the number of iterations in one epoch:
// floor(F/B), or ceil(F/B) when the trailing partial batch is kept.
func (p *Plan) IterationsPerEpoch() int {
	b := p.GlobalBatch()
	t := p.F / b
	if !p.DropLast && p.F%b != 0 {
		t++
	}
	return t
}

// EpochLimit returns how many entries of the epoch-wide shuffled order are
// consumed in one epoch (F, or T*B when the partial batch is dropped).
func (p *Plan) EpochLimit() int { return p.epochLimit() }

// epochLimit returns how many entries of the epoch-wide shuffled order are
// consumed in one epoch (F, or T*B when the partial batch is dropped).
func (p *Plan) epochLimit() int {
	if p.DropLast {
		return (p.F / p.GlobalBatch()) * p.GlobalBatch()
	}
	return p.F
}

// SamplesPerEpoch returns how many samples worker i consumes per epoch
// under the static partition: workers are assigned positions p of the epoch
// order with p mod N == i, so counts differ by at most one when a partial
// batch is kept. For elastic plans the partition varies per epoch; use the
// per-worker epoch ends from AllStreamsFromOrders instead.
func (p *Plan) SamplesPerEpoch(worker int) int {
	limit := p.epochLimit()
	if worker >= limit%p.N {
		return limit / p.N
	}
	return limit/p.N + 1
}

// StreamLen returns the total length of worker i's access stream R.
func (p *Plan) StreamLen(worker int) int { return p.E * p.SamplesPerEpoch(worker) }

// epochGen returns the generator driving epoch e's shuffle. Each epoch gets
// an independently derived stream so any epoch's order can be produced
// without generating its predecessors.
func (p *Plan) epochGen(e int) *prng.Generator {
	return prng.New(p.Seed).Derive(uint64(e) + 1)
}

// EpochOrder returns the global sample order for epoch e (0-indexed): the
// uniform shuffle by default, the pattern's order otherwise. The returned
// slice is freshly allocated.
func (p *Plan) EpochOrder(e int) []SampleID {
	if e < 0 || e >= p.E {
		panic(fmt.Sprintf("access: epoch %d out of range [0,%d)", e, p.E))
	}
	pat := p.Pattern()
	shuffleCount.Add(1)
	order := make([]SampleID, p.F)
	pat.orderInto(p, e, order)
	return order
}

// EpochOrders materialises every epoch's order, generating epochs
// concurrently on a bounded pool (workers < 1 means GOMAXPROCS). Each epoch
// is driven by its own derived generator, so the result is bit-identical to
// calling EpochOrder(e) for e = 0..E-1 at any worker count.
func (p *Plan) EpochOrders(workers int) [][]SampleID {
	pat := p.Pattern()
	shuffleCount.Add(int64(p.E))
	if pat.uniformOrder() {
		return prng.ParallelPerms32(p.E, p.F, workers, p.epochGen)
	}
	out := make([][]SampleID, p.E)
	prng.ParallelFor(p.E, workers, func(e int) {
		out[e] = make([]SampleID, p.F)
		pat.orderInto(p, e, out[e])
	})
	return out
}

// WorkerEpochFromOrderAt extracts worker i's sequence for epoch e from a
// precomputed order, honouring the plan's pattern: under an elastic
// membership schedule the epoch's positions are partitioned among the
// active ranks only (an inactive worker gets nil).
func (p *Plan) WorkerEpochFromOrderAt(order []SampleID, worker, e int) []SampleID {
	pat := p.Pattern()
	ord, count := p.activeFor(pat, worker, e)
	if ord < 0 {
		return nil
	}
	limit := p.epochLimit()
	out := make([]SampleID, 0, limit/count+1)
	for pos := ord; pos < limit; pos += count {
		out = append(out, order[pos])
	}
	return out
}

// WorkerEpoch returns worker i's access sequence for epoch e.
func (p *Plan) WorkerEpoch(worker, e int) []SampleID {
	return p.WorkerEpochFromOrderAt(p.EpochOrder(e), worker, e)
}

// WorkerStream returns worker i's full access stream R across all epochs.
// For very large plans prefer iterating epochs with EpochOrder to bound
// memory; this materialises E*F/N entries.
func (p *Plan) WorkerStream(worker int) []SampleID {
	out := make([]SampleID, 0, p.StreamLen(worker))
	for e := 0; e < p.E; e++ {
		out = append(out, p.WorkerEpoch(worker, e)...)
	}
	return out
}

// AllWorkerStreams materialises every worker's access stream in one pass
// over the epochs. Total memory is E*F entries of 4 bytes, independent of N,
// which keeps large-N plans (e.g. 1024 workers) tractable where per-worker
// dense frequency tables would not be.
func (p *Plan) AllWorkerStreams() [][]SampleID {
	pat := p.Pattern()
	streams := make([][]SampleID, p.N)
	for w := range streams {
		streams[w] = make([]SampleID, 0, p.StreamLen(w))
	}
	for e := 0; e < p.E; e++ {
		order := p.EpochOrder(e)
		limit := p.epochLimit()
		active := epochOwners(p, pat, e)
		for pos := 0; pos < limit; pos++ {
			w := active[pos%len(active)]
			streams[w] = append(streams[w], order[pos])
		}
	}
	return streams
}

// AllStreamsFromOrders partitions precomputed epoch orders into per-worker
// streams, honouring the plan's pattern, building workers' streams
// concurrently on a bounded pool (workers < 1 means GOMAXPROCS). For
// elastic plans it also returns every worker's cumulative per-epoch end
// offsets (ends[w][e] = stream positions consumed through epoch e); for
// static partitions ends is nil — epochs are uniform and SamplesPerEpoch
// applies.
func (p *Plan) AllStreamsFromOrders(orders [][]SampleID, workers int) (streams [][]SampleID, ends [][]int) {
	pat := p.Pattern()
	streams = make([][]SampleID, p.N)
	if !pat.Elastic() {
		prng.ParallelFor(p.N, workers, func(w int) {
			s := make([]SampleID, 0, p.StreamLen(w))
			for _, order := range orders {
				limit := p.epochLimit()
				for pos := w; pos < limit; pos += p.N {
					s = append(s, order[pos])
				}
			}
			streams[w] = s
		})
		return streams, nil
	}
	ends = make([][]int, p.N)
	prng.ParallelFor(p.N, workers, func(w int) {
		s := make([]SampleID, 0, p.StreamLen(w))
		we := make([]int, p.E)
		for e, order := range orders {
			ord, count := p.activeFor(pat, w, e)
			if ord >= 0 {
				limit := p.epochLimit()
				for pos := ord; pos < limit; pos += count {
					s = append(s, order[pos])
				}
			}
			we[e] = len(s)
		}
		streams[w] = s
		ends[w] = we
	})
	return streams, ends
}

// epochOwners returns the worker owning each position ordinal of epoch e:
// owners[i] serves positions pos with pos mod len(owners) == i.
func epochOwners(p *Plan, pat Pattern, e int) []int {
	if !pat.Elastic() {
		owners := make([]int, p.N)
		for i := range owners {
			owners[i] = i
		}
		return owners
	}
	return pat.activeRanks(e, p.N)
}

// Frequencies returns, for every worker, the number of times that worker
// accesses each sample across all E epochs: freqs[worker][sample].
// This is the access-frequency disparity of Sec. 3.1 that drives NoPFS's
// cache placement — under a non-uniform pattern the disparity comes from
// the workload itself, not only the partition. One pass per epoch keeps
// peak memory at O(F).
func (p *Plan) Frequencies() [][]int32 {
	pat := p.Pattern()
	freqs := make([][]int32, p.N)
	for i := range freqs {
		freqs[i] = make([]int32, p.F)
	}
	for e := 0; e < p.E; e++ {
		order := p.EpochOrder(e)
		limit := p.epochLimit()
		active := epochOwners(p, pat, e)
		for pos := 0; pos < limit; pos++ {
			freqs[active[pos%len(active)]][order[pos]]++
		}
	}
	return freqs
}

// WorkerFrequencies returns the per-sample access counts for one worker.
func (p *Plan) WorkerFrequencies(worker int) []int32 {
	pat := p.Pattern()
	freq := make([]int32, p.F)
	for e := 0; e < p.E; e++ {
		ord, count := p.activeFor(pat, worker, e)
		if ord < 0 {
			continue
		}
		order := p.EpochOrder(e)
		limit := p.epochLimit()
		for pos := ord; pos < limit; pos += count {
			freq[order[pos]]++
		}
	}
	return freq
}

// Hash returns a deterministic full-parameter digest of the plan: every
// parameter plus a sample of every epoch's derived generator stream. In the
// live system workers exchange this digest instead of the full access
// streams: equality guarantees identical plans because every stream is a
// pure function of the parameters.
//
// Sampling *each* epoch's generator (not just epoch 0's, as this digest
// originally did) means two workers whose shuffle derivation agrees for the
// first epoch but drifts for later ones — e.g. a version skew in the
// per-epoch stream derivation — can no longer exchange colliding digests.
// The plan-artifact cache also keys shared immutable artifacts off this
// digest, so the collision would otherwise serve one plan's streams for
// another's.
func (p *Plan) Hash() uint64 {
	return p.hashWith(p.epochSample)
}

// epochSample folds two draws of epoch e's derived generator into one word —
// enough to detect any divergence in the epoch-stream derivation, since the
// generator state is itself a digest of (seed, e).
func (p *Plan) epochSample(e int) uint64 {
	g := p.epochGen(e)
	return g.Uint64() ^ rotl64(g.Uint64(), 32)
}

func rotl64(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// hashWith is Hash with the epoch-generator sampler injected, so tests can
// demonstrate the collision the per-epoch folding closes: a sampler that
// agrees on epoch 0 but diverges later collides under epoch-0-only
// sampling and is distinguished here.
func (p *Plan) hashWith(sample func(e int) uint64) uint64 {
	h := uint64(1469598103934665603) // FNV offset basis
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211
	}
	mix(p.Seed)
	mix(uint64(p.F))
	mix(uint64(p.N))
	mix(uint64(p.E))
	mix(uint64(p.BatchPerWorker))
	if p.DropLast {
		mix(1)
	} else {
		mix(2)
	}
	// Fold the access-pattern spec so two plans differing only in pattern
	// never exchange colliding digests (and the artifact cache never serves
	// one pattern's streams for another's). The uniform spec mixes nothing:
	// digests of pattern-free plans are unchanged.
	if p.Access != "" {
		mix(uint64(len(p.Access)))
		for _, b := range []byte(p.Access) {
			mix(uint64(b))
		}
	}
	// Fold in a sample of every epoch's derived stream so disagreement in
	// the shuffle derivation of any epoch — not only the first — is
	// detected.
	for e := 0; e < p.E; e++ {
		mix(sample(e))
	}
	return h
}
