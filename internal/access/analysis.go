package access

import (
	"math"

	"repro/internal/stats"
)

// FrequencyHistogram builds the Fig. 3 histogram: how many samples a single
// worker accesses exactly k times over the full training run.
func FrequencyHistogram(freq []int32) *stats.Histogram {
	maxF := int32(0)
	for _, f := range freq {
		if f > maxF {
			maxF = f
		}
	}
	h := stats.NewHistogram(int(maxF))
	for _, f := range freq {
		h.Add(int(f))
	}
	return h
}

// HeavyHitterReport compares the analytic binomial estimate of Sec. 3.1 with
// the measured count from an actual plan, for the "accessed more than
// (1+delta)*mu times" threshold.
type HeavyHitterReport struct {
	N, E, F   int
	Delta     float64
	Mu        float64 // E/N, mean accesses per worker
	Threshold int     // samples with count > Threshold are heavy hitters
	Analytic  float64 // F * P(X > threshold), X ~ Binomial(E, 1/N)
	Measured  int     // actual count from the plan's shuffles
}

// HeavyHitters evaluates the report for one worker of the given plan from
// the worker's access counts (its WorkerFrequencies, or its row of
// Frequencies).
func HeavyHitters(p *Plan, freq []int32, delta float64) HeavyHitterReport {
	mu := float64(p.E) / float64(p.N)
	threshold := int(math.Ceil((1+delta)*mu)) - 1
	measured := 0
	for _, f := range freq {
		if int(f) > threshold {
			measured++
		}
	}
	return HeavyHitterReport{
		N: p.N, E: p.E, F: p.F,
		Delta:     delta,
		Mu:        mu,
		Threshold: threshold,
		Analytic:  stats.ExpectedHeavyHitters(p.F, p.E, p.N, delta),
		Measured:  measured,
	}
}

// Lemma1Violations checks Lemma 1 of the paper over measured frequencies:
// if some worker accesses a sample at least ceil((1+delta) * E/N) times,
// then at least one other worker accesses it at most
// ceil((N-1-delta)/(N-1) * E/N) times. Returns the number of samples
// violating the bound (always 0 for valid frequencies — the lemma is a
// theorem, so a non-zero count indicates a bug in stream generation).
func Lemma1Violations(freqs [][]int32, E int, delta float64) int {
	n := len(freqs)
	if n < 2 {
		return 0
	}
	f := len(freqs[0])
	mu := float64(E) / float64(n)
	hi := int32(math.Ceil((1 + delta) * mu))
	low := int32(math.Ceil((float64(n) - 1 - delta) / float64(n-1) * mu))
	violations := 0
	for k := 0; k < f; k++ {
		anyHigh := false
		anyLow := false
		for w := 0; w < n; w++ {
			c := freqs[w][k]
			if c >= hi {
				anyHigh = true
			}
			if c <= low {
				anyLow = true
			}
		}
		if anyHigh && !anyLow {
			violations++
		}
	}
	return violations
}

// TotalAccessInvariant verifies that each sample is accessed exactly E times
// across all workers (the without-replacement property underpinning both
// Lemma 1 and the clairvoyant schedule). It returns the first offending
// sample ID and its total, or (-1, 0) when the invariant holds.
//
// When the plan drops partial batches, F - EpochLimit samples per epoch are
// legitimately skipped, so totals may fall below E; in that case the
// invariant checked is total <= E.
func TotalAccessInvariant(p *Plan, freqs [][]int32) (sample int, total int32) {
	exact := p.EpochLimit() == p.F
	for k := 0; k < p.F; k++ {
		var t int32
		for w := range freqs {
			t += freqs[w][k]
		}
		if exact && t != int32(p.E) {
			return k, t
		}
		if !exact && t > int32(p.E) {
			return k, t
		}
	}
	return -1, 0
}
