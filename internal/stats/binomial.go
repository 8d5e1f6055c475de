package stats

import "math"

// The access-frequency analysis of Sec. 3.1 models the number of times a
// fixed worker touches a fixed sample over E epochs as X ~ Binomial(E, 1/N).
// These helpers evaluate that distribution in log space so they stay exact
// for the paper's parameters (E up to hundreds) and beyond.

// logGamma is math.Lgamma without the sign return.
func logGamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

// LogChoose returns log(C(n, k)) for 0 <= k <= n.
func LogChoose(n, k int) float64 {
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	return logGamma(float64(n)+1) - logGamma(float64(k)+1) - logGamma(float64(n-k)+1)
}

// BinomialPMF returns P(X = k) for X ~ Binomial(n, p).
func BinomialPMF(n int, p float64, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	if p <= 0 {
		if k == 0 {
			return 1
		}
		return 0
	}
	if p >= 1 {
		if k == n {
			return 1
		}
		return 0
	}
	lp := LogChoose(n, k) + float64(k)*math.Log(p) + float64(n-k)*math.Log(1-p)
	return math.Exp(lp)
}

// BinomialTail returns P(X > k) = 1 - CDF(k), summed from the upper end for
// accuracy in the regime the paper cares about (rare heavy hitters).
func BinomialTail(n int, p float64, k int) float64 {
	if k >= n {
		return 0
	}
	if k < 0 {
		return 1
	}
	var s float64
	for i := k + 1; i <= n; i++ {
		s += BinomialPMF(n, p, i)
	}
	if s > 1 {
		s = 1
	}
	return s
}

// ExpectedHeavyHitters returns the paper's Sec. 3.1 estimate
// F * P(X > (1+delta)*mu) — the expected number of dataset samples a fixed
// worker will access more than (1+delta) times the mean over E epochs with N
// workers. For the paper's example (N=16, E=90, F=1,281,167, delta=0.8) this
// evaluates to ~31,635.
func ExpectedHeavyHitters(F, E, N int, delta float64) float64 {
	mu := float64(E) / float64(N)
	threshold := int(math.Ceil((1+delta)*mu)) - 1 // P(X > threshold) == P(X >= ceil((1+d)mu))
	return float64(F) * BinomialTail(E, 1/float64(N), threshold)
}
