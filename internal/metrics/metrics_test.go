package metrics

import (
	"strings"
	"sync"
	"testing"
)

// TestNilRegistryIsNoOp pins the off-switch contract: a nil registry hands
// out nil metrics, and every operation on them (and on the registry itself)
// is a safe no-op — instrumented code needs no guards when metrics are off.
func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total", "help")
	g := r.Gauge("x", "help")
	h := r.Histogram("x_seconds", "help", nil)
	c.Inc()
	c.Add(5)
	g.Set(3)
	g.Add(-1)
	h.Observe(0.5)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil metrics accumulated values")
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil || b.Len() != 0 {
		t.Errorf("nil registry rendered %q, err=%v", b.String(), err)
	}
}

// TestCounterGaugeValues covers basic accumulation and series identity: the
// same (name, labels) returns the same series regardless of label order.
func TestCounterGaugeValues(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hits_total", "h", L("tier", "ram"), L("rank", "0"))
	c.Inc()
	c.Add(2)
	c.Add(-7) // ignored: counters only go up
	if got := c.Value(); got != 3 {
		t.Errorf("counter = %v, want 3", got)
	}
	same := r.Counter("hits_total", "h", L("rank", "0"), L("tier", "ram"))
	if same != c {
		t.Error("label order created a distinct series")
	}
	other := r.Counter("hits_total", "h", L("rank", "1"), L("tier", "ram"))
	if other == c {
		t.Error("distinct labels shared a series")
	}
	g := r.Gauge("occupancy", "h")
	g.Set(10)
	g.Add(-4)
	if got := g.Value(); got != 6 {
		t.Errorf("gauge = %v, want 6", got)
	}
}

// TestHistogramBuckets checks cumulative bucket placement and sum/count.
func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "h", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("count = %d, want 5", h.Count())
	}
	if h.Sum() != 56.05 {
		t.Errorf("sum = %v, want 56.05", h.Sum())
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`lat_seconds_bucket{le="0.1"} 1`,
		`lat_seconds_bucket{le="1"} 3`,
		`lat_seconds_bucket{le="10"} 4`,
		`lat_seconds_bucket{le="+Inf"} 5`,
		`lat_seconds_count 5`,
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("exposition missing %q:\n%s", want, b.String())
		}
	}
}

// TestWritePrometheusFormat pins the exposition text: HELP/TYPE lines,
// label rendering with escaping, and deterministic ordering.
func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", "bees", L("k", `va"l\ue`)).Add(2)
	r.Gauge("a_bytes", "bytes held").Set(1.5)
	r.Counter("b_total", "bees", L("k", "other")).Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := "# HELP a_bytes bytes held\n" +
		"# TYPE a_bytes gauge\n" +
		"a_bytes 1.5\n" +
		"# HELP b_total bees\n" +
		"# TYPE b_total counter\n" +
		"b_total{k=\"other\"} 1\n" +
		"b_total{k=\"va\\\"l\\\\ue\"} 2\n"
	if b.String() != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", b.String(), want)
	}
	// Deterministic: a second render is byte-identical.
	var b2 strings.Builder
	r.WritePrometheus(&b2)
	if b.String() != b2.String() {
		t.Error("two renders differ")
	}
}

// TestConcurrentUse hammers one registry from many goroutines; run under
// -race this is the metrics layer's race-cleanliness proof, and the final
// totals check that no increment is lost.
func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	const workers, iters = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				r.Counter("ops_total", "ops", L("src", "a")).Inc()
				r.Gauge("level", "lvl").Add(1)
				r.Histogram("lat_seconds", "lat", nil, L("src", "a")).Observe(0.01)
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("ops_total", "ops", L("src", "a")).Value(); got != workers*iters {
		t.Errorf("counter = %v, want %d", got, workers*iters)
	}
	if got := r.Gauge("level", "lvl").Value(); got != workers*iters {
		t.Errorf("gauge = %v, want %d", got, workers*iters)
	}
	if got := r.Histogram("lat_seconds", "lat", nil, L("src", "a")).Count(); got != workers*iters {
		t.Errorf("histogram count = %d, want %d", got, workers*iters)
	}
}

// TestBatchMatchesObserve: a flushed batch leaves the histogram exactly as
// observing each value did, a second flush adds nothing, and a batch of a
// nil histogram ignores every call.
func TestBatchMatchesObserve(t *testing.T) {
	vals := []float64{0.0625, 0.5, 0.5, 4, 64, 1}
	render := func(observe func(h *Histogram)) string {
		r := NewRegistry()
		observe(r.Histogram("lat_seconds", "h", []float64{0.125, 1, 8}))
		var b strings.Builder
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	want := render(func(h *Histogram) {
		for _, v := range vals {
			h.Observe(v)
		}
	})
	got := render(func(h *Histogram) {
		b := h.Batch()
		for _, v := range vals {
			b.Observe(v)
		}
		if h.Count() != 0 {
			t.Errorf("count before Flush = %d, want 0", h.Count())
		}
		b.Flush()
		b.Flush()
	})
	if got != want {
		t.Errorf("batched exposition:\n%s\nwant:\n%s", got, want)
	}
	var h *Histogram
	b := h.Batch()
	b.Observe(1)
	b.Flush()
	var zero Batch
	zero.Observe(1)
	zero.Flush()
}

// TestBatchFlushWhileRendering: goroutines flush batches of one histogram
// while another renders the registry. Run under -race this is the batch's
// race-cleanliness proof; every render's count is a whole number of
// flushes, and the final count and sum lose no observation.
func TestBatchFlushWhileRendering(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "lat", nil)
	const workers, flushes, per = 4, 200, 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b := h.Batch()
			for i := 0; i < flushes; i++ {
				for k := 0; k < per; k++ {
					b.Observe(0.5)
				}
				b.Flush()
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			var b strings.Builder
			if err := r.WritePrometheus(&b); err != nil {
				t.Error(err)
				return
			}
			if h.Count()%per != 0 {
				t.Errorf("count %d is not a whole number of %d-observation flushes", h.Count(), per)
			}
			if h.Count() == workers*flushes*per {
				return
			}
		}
	}()
	wg.Wait()
	<-done
	if got, want := h.Count(), uint64(workers*flushes*per); got != want {
		t.Errorf("count = %d, want %d", got, want)
	}
	if got, want := h.Sum(), 0.5*workers*flushes*per; got != want {
		t.Errorf("sum = %v, want %v", got, want)
	}
}

// TestTypeMismatchPanics: one name, one type.
func TestTypeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as a gauge did not panic")
		}
	}()
	r := NewRegistry()
	r.Counter("x_total", "h")
	r.Gauge("x_total", "h")
}
