package main

import "sort"

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// quartiles returns the first and third quartile of v exactly as Python's
// statistics.quantiles(v, n=4) does (the "exclusive" method), because that
// is the rule the driver applies to the benchmark's own spread. Fewer than
// two values have no spread: both quartiles are the value itself.
func quartiles(v []float64) (q1, q3 float64) {
	if len(v) == 0 {
		return 0, 0
	}
	if len(v) == 1 {
		return v[0], v[0]
	}
	s := sorted(v)
	ld := len(s)
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// tailLadder is the set of tail percentiles the harness reports from.
var tailLadder = []float64{50, 90, 99, 99.9, 99.99}

// tailPercentile picks the highest percentile of the ladder, no higher
// than limit, that still has at least ten samples beyond it — a tail
// estimated from fewer samples is noise. With fewer than twenty samples
// only the median qualifies.
func tailPercentile(n int, limit float64) float64 {
	best := tailLadder[0]
	for _, p := range tailLadder {
		if p > limit {
			break
		}
		if float64(n)*(100-p)/100 >= 10-1e-6 { // tolerate 99.9's binary rounding
			best = p
		}
	}
	return best
}

// ratio returns num/den, or 0 when den is 0, so a layer that did no work
// reports 0 instead of NaN.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
