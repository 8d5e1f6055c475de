package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestWelfordBasic(t *testing.T) {
	var w Welford
	data := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	for _, x := range data {
		w.Add(x)
	}
	if w.N() != len(data) {
		t.Fatalf("N = %d, want %d", w.N(), len(data))
	}
	if !almostEqual(w.Mean(), 5, 1e-12) {
		t.Errorf("Mean = %v, want 5", w.Mean())
	}
	// Sample variance of this classic dataset is 32/7.
	if !almostEqual(w.Variance(), 32.0/7.0, 1e-12) {
		t.Errorf("Variance = %v, want %v", w.Variance(), 32.0/7.0)
	}
	if w.Min() != 2 || w.Max() != 9 {
		t.Errorf("Min/Max = %v/%v, want 2/9", w.Min(), w.Max())
	}
}

func TestWelfordEmptyAndSingle(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Variance() != 0 || w.Stddev() != 0 {
		t.Error("empty Welford should report zeros")
	}
	w.Add(3)
	if w.Mean() != 3 || w.Variance() != 0 {
		t.Errorf("single-value Welford: mean=%v var=%v", w.Mean(), w.Variance())
	}
}

func TestWelfordMatchesBatch(t *testing.T) {
	f := func(seedVals []float64) bool {
		if len(seedVals) < 2 {
			return true
		}
		// Clamp crazy values to keep the batch formula stable.
		xs := make([]float64, 0, len(seedVals))
		for _, v := range seedVals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			xs = append(xs, math.Mod(v, 1e6))
		}
		if len(xs) < 2 {
			return true
		}
		var w Welford
		for _, x := range xs {
			w.Add(x)
		}
		m := Mean(xs)
		sd := Stddev(xs)
		return almostEqual(w.Mean(), m, 1e-6*(1+math.Abs(m))) &&
			almostEqual(w.Stddev(), sd, 1e-6*(1+sd))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 15}, {100, 50}, {50, 35}, {25, 20}, {75, 40},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almostEqual(got, c.want, 1e-9) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Error("Percentile(nil) should be 0")
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Error("Percentile mutated its input")
	}
}

func TestPercentileInterpolation(t *testing.T) {
	xs := []float64{0, 10}
	if got := Percentile(xs, 50); !almostEqual(got, 5, 1e-9) {
		t.Errorf("interpolated median = %v, want 5", got)
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = float64(i)
	}
	s := Summarize(xs)
	if s.N != 101 || s.Median != 50 || s.Min != 0 || s.Max != 100 {
		t.Errorf("Summary = %+v", s)
	}
	if s.P25 != 25 || s.P75 != 75 {
		t.Errorf("quartiles = %v, %v", s.P25, s.P75)
	}
	if s.CILow > s.Median || s.CIHigh < s.Median {
		t.Errorf("median CI [%v, %v] does not contain median %v", s.CILow, s.CIHigh, s.Median)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if s := Summarize(nil); s.N != 0 {
		t.Errorf("empty summary N = %d", s.N)
	}
}

func TestMedianCIOrdering(t *testing.T) {
	f := func(raw []float64) bool {
		xs := raw[:0]
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		sort.Float64s(xs)
		lo, hi := MedianCI95(xs)
		return lo <= hi && lo >= xs[0] && hi <= xs[len(xs)-1]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(5)
	for _, v := range []int{0, 1, 1, 2, 2, 2, 9} {
		h.Add(v)
	}
	if h.Total != 7 {
		t.Errorf("Total = %d, want 7", h.Total)
	}
	if h.Mode() != 2 {
		t.Errorf("Mode = %d, want 2", h.Mode())
	}
	if got := h.CountAbove(2); got != 1 {
		t.Errorf("CountAbove(2) = %d, want 1", got)
	}
	if got := h.CountAbove(100); got != 0 {
		t.Errorf("CountAbove(100) = %d, want 0", got)
	}
	if h.String() == "" {
		t.Error("String() empty")
	}
	h.Add(-3) // clamps to 0
	if h.Counts[0] != 2 {
		t.Errorf("negative value not clamped: Counts[0] = %d", h.Counts[0])
	}
}

func TestLinearRegressionExact(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	y := []float64{3, 5, 7, 9} // y = 1 + 2x
	a, b := LinearRegression(x, y)
	if !almostEqual(a, 1, 1e-9) || !almostEqual(b, 2, 1e-9) {
		t.Errorf("fit = (%v, %v), want (1, 2)", a, b)
	}
}

func TestLinearRegressionDegenerate(t *testing.T) {
	a, b := LinearRegression([]float64{2, 2, 2}, []float64{1, 3, 5})
	if b != 0 || !almostEqual(a, 3, 1e-9) {
		t.Errorf("vertical data fit = (%v, %v), want (3, 0)", a, b)
	}
	if a, b := LinearRegression([]float64{1}, []float64{1}); a != 0 || b != 0 {
		t.Errorf("single point fit = (%v, %v), want (0, 0)", a, b)
	}
}

func TestLinearRegressionPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on length mismatch")
		}
	}()
	LinearRegression([]float64{1, 2}, []float64{1})
}

func TestInterpolateMonotone(t *testing.T) {
	xs := []float64{1, 2, 4, 8}
	ys := []float64{330, 730, 1540, 2870}
	cases := []struct{ q, want float64 }{
		{1, 330}, {8, 2870}, {0.5, 330}, {16, 2870},
		{2, 730}, {3, 1135}, {6, 2205},
	}
	for _, c := range cases {
		if got := InterpolateMonotone(xs, ys, c.q); !almostEqual(got, c.want, 1e-9) {
			t.Errorf("Interpolate(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestInterpolatePanicsOnBadKnots(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on empty knots")
		}
	}()
	InterpolateMonotone(nil, nil, 1)
}

func TestBinomialPMFSumsToOne(t *testing.T) {
	for _, n := range []int{1, 10, 90} {
		for _, p := range []float64{0.0625, 0.25, 0.5} {
			var s float64
			for k := 0; k <= n; k++ {
				s += BinomialPMF(n, p, k)
			}
			if !almostEqual(s, 1, 1e-9) {
				t.Errorf("PMF(n=%d, p=%v) sums to %v", n, p, s)
			}
		}
	}
}

func TestBinomialPMFEdgeCases(t *testing.T) {
	if BinomialPMF(10, 0.5, -1) != 0 || BinomialPMF(10, 0.5, 11) != 0 {
		t.Error("out-of-range k should have probability 0")
	}
	if BinomialPMF(10, 0, 0) != 1 || BinomialPMF(10, 0, 1) != 0 {
		t.Error("p=0 degenerate case wrong")
	}
	if BinomialPMF(10, 1, 10) != 1 || BinomialPMF(10, 1, 9) != 0 {
		t.Error("p=1 degenerate case wrong")
	}
}

// binomialCDF is P(X <= k) for X ~ Binomial(n, p), summed from the lower
// end: an independent route to BinomialTail's complement.
func binomialCDF(n int, p float64, k int) float64 {
	var s float64
	for i := 0; i <= k && i <= n; i++ {
		s += BinomialPMF(n, p, i)
	}
	return s
}

func TestBinomialCDFTailComplement(t *testing.T) {
	n, p := 90, 1.0/16.0
	for k := -1; k <= n; k++ {
		c, tail := binomialCDF(n, p, k), BinomialTail(n, p, k)
		if !almostEqual(c+tail, 1, 1e-9) {
			t.Errorf("CDF(%d)+Tail(%d) = %v, want 1", k, k, c+tail)
		}
	}
}

// TestBinomialMean: the PMF's first moment is E[X] = n·p (5.625 for the
// paper's E=90, N=16).
func TestBinomialMean(t *testing.T) {
	n, p := 90, 1.0/16.0
	var m float64
	for k := 0; k <= n; k++ {
		m += float64(k) * BinomialPMF(n, p, k)
	}
	if !almostEqual(m, 5.625, 1e-9) {
		t.Errorf("mean = %v, want 5.625", m)
	}
}

func TestExpectedHeavyHittersPaperExample(t *testing.T) {
	// Paper Sec. 3.1: N=16, E=90, F=1,281,167, delta=0.8 -> ~31,635
	// expected samples accessed more than 10 times by a fixed worker.
	got := ExpectedHeavyHitters(1281167, 90, 16, 0.8)
	if got < 30000 || got > 33500 {
		t.Errorf("ExpectedHeavyHitters = %v, want ~31,635 (paper value)", got)
	}
}

func TestExpectedHeavyHittersMonotoneInDelta(t *testing.T) {
	prev := math.Inf(1)
	for _, d := range []float64{0.2, 0.4, 0.8, 1.6, 3.2} {
		v := ExpectedHeavyHitters(1281167, 90, 16, d)
		if v > prev {
			t.Errorf("heavy hitters not monotone: delta=%v gives %v > previous %v", d, v, prev)
		}
		prev = v
	}
}

func TestLogChoose(t *testing.T) {
	// C(5,2) = 10
	if got := math.Exp(LogChoose(5, 2)); !almostEqual(got, 10, 1e-9) {
		t.Errorf("C(5,2) = %v, want 10", got)
	}
	if !math.IsInf(LogChoose(5, 6), -1) {
		t.Error("C(5,6) should be log(0)")
	}
}

func BenchmarkSummarize(b *testing.B) {
	xs := make([]float64, 10000)
	for i := range xs {
		xs[i] = float64((i * 2654435761) % 100003)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Summarize(xs)
	}
}

func BenchmarkBinomialTail(b *testing.B) {
	for i := 0; i < b.N; i++ {
		BinomialTail(90, 1.0/16.0, 10)
	}
}
