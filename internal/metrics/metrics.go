// Package metrics is a dependency-free instrumentation layer for the live
// middleware: counters, gauges, and histograms collected in a Registry and
// rendered in the Prometheus text exposition format (version 0.0.4).
//
// The package is built for optional instrumentation: every method is safe on
// a nil receiver and does nothing, so production code threads a possibly-nil
// *Registry through its hot paths without guards, and a run without a
// registry executes the exact uninstrumented code path. All metric
// operations are lock-free atomics and safe for concurrent use.
//
// Rendering is deterministic: families sort by name, series by label
// signature, so two registries holding the same values expose byte-identical
// text.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name=value pair attached to a series.
type Label struct {
	Name, Value string
}

// L is shorthand for constructing a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// Counter is a monotonically increasing value.
type Counter struct {
	bits atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds v (negative deltas are ignored: counters only go up).
func (c *Counter) Add(v float64) {
	if c == nil || v < 0 {
		return
	}
	addBits(&c.bits, v)
}

// Value returns the current count.
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}

// Gauge is a value that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adjusts the gauge by v (which may be negative).
func (g *Gauge) Add(v float64) {
	if g == nil {
		return
	}
	addBits(&g.bits, v)
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// addBits CAS-adds a float64 delta onto atomically stored float bits.
func addBits(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		if bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// DefBuckets are the default histogram bucket upper bounds, in seconds:
// 100 µs to 10 s, the span of one sample fetch on any tier this repo models.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram counts observations into cumulative buckets.
type Histogram struct {
	bounds  []float64 // upper bounds, strictly increasing; +Inf implicit
	buckets []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	if i < len(h.buckets) {
		h.buckets[i].Add(1)
	}
	h.count.Add(1)
	addBits(&h.sumBits, v)
}

// Batch holds one goroutine's observations of a histogram until Flush adds
// them to it, so Observe takes no atomic. The zero Batch ignores every call.
type Batch struct {
	h       *Histogram
	buckets []uint64 // one more than h's: the last is +Inf
	count   uint64
	sum     float64
}

// Batch returns an empty batch of h's observations (the zero Batch for nil).
func (h *Histogram) Batch() Batch {
	if h == nil {
		return Batch{}
	}
	return Batch{h: h, buckets: make([]uint64, len(h.buckets)+1)}
}

// Observe records one observation in the batch.
func (b *Batch) Observe(v float64) {
	if b.h != nil {
		b.buckets[sort.SearchFloat64s(b.h.bounds, v)]++
		b.count, b.sum = b.count+1, b.sum+v
	}
}

// Flush adds the batch's observations to its histogram and empties it.
func (b *Batch) Flush() {
	if b.count == 0 {
		return
	}
	for i := range b.h.buckets {
		if n := b.buckets[i]; n > 0 {
			b.h.buckets[i].Add(n)
		}
	}
	b.h.count.Add(b.count)
	addBits(&b.h.sumBits, b.sum)
	clear(b.buckets)
	b.count, b.sum = 0, 0
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// metric is the series interface the renderer consumes.
type metric interface {
	write(w io.Writer, name, labels string)
}

func (c *Counter) write(w io.Writer, name, labels string) {
	fmt.Fprintf(w, "%s%s %s\n", name, labels, formatFloat(c.Value()))
}

func (g *Gauge) write(w io.Writer, name, labels string) {
	fmt.Fprintf(w, "%s%s %s\n", name, labels, formatFloat(g.Value()))
}

func (h *Histogram) write(w io.Writer, name, labels string) {
	var cum uint64
	for i, b := range h.bounds {
		cum += h.buckets[i].Load()
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, mergeLabels(labels, `le="`+formatFloat(b)+`"`), cum)
	}
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, mergeLabels(labels, `le="+Inf"`), h.Count())
	fmt.Fprintf(w, "%s_sum%s %s\n", name, labels, formatFloat(h.Sum()))
	fmt.Fprintf(w, "%s_count%s %d\n", name, labels, h.Count())
}

// mergeLabels splices an extra label into a rendered {...} signature.
func mergeLabels(labels, extra string) string {
	if labels == "" {
		return "{" + extra + "}"
	}
	return labels[:len(labels)-1] + "," + extra + "}"
}

// formatFloat renders a sample value the way Prometheus clients do.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// family is one named group of series sharing a type and help string.
type family struct {
	name, help, typ string
	mu              sync.Mutex
	series          map[string]metric
}

// Registry collects metric families. The zero value is ready to use; a nil
// *Registry is a valid no-op sink (every constructor returns nil metrics
// whose operations do nothing).
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// family returns (creating if needed) the named family, enforcing one type
// per name.
func (r *Registry) family(name, help, typ string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.families == nil {
		r.families = map[string]*family{}
	}
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ, series: map[string]metric{}}
		r.families[name] = f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("metrics: %s registered as %s and %s", name, f.typ, typ))
	}
	return f
}

// renderLabels builds the canonical {...} signature (sorted by label name;
// empty for an unlabeled series).
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// lookup returns the family's series for labels, made by mk and registered
// on first use, or the zero M (a nil, no-op metric) on a nil registry.
func lookup[M metric](r *Registry, name, help, typ string, labels []Label, mk func() M) (m M) {
	if r == nil {
		return m
	}
	f := r.family(name, help, typ)
	f.mu.Lock()
	defer f.mu.Unlock()
	sig := renderLabels(labels)
	if old, ok := f.series[sig]; ok {
		return old.(M)
	}
	m = mk()
	f.series[sig] = m
	return m
}

// Counter returns the counter series for (name, labels), registering the
// family on first use. Returns nil (a no-op counter) on a nil registry.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return lookup(r, name, help, "counter", labels, func() *Counter { return &Counter{} })
}

// Gauge returns the gauge series for (name, labels).
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return lookup(r, name, help, "gauge", labels, func() *Gauge { return &Gauge{} })
}

// Histogram returns the histogram series for (name, labels) with the given
// bucket upper bounds (nil means DefBuckets). Bounds must match across calls
// for one name; the first registration wins.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	return lookup(r, name, help, "histogram", labels, func() *Histogram {
		return &Histogram{bounds: append([]float64(nil), buckets...), buckets: make([]atomic.Uint64, len(buckets))}
	})
}

// WritePrometheus renders every family in the text exposition format,
// deterministically ordered (families by name, series by label signature).
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.families[name])
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		f.mu.Lock()
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		sigs := make([]string, 0, len(f.series))
		for sig := range f.series {
			sigs = append(sigs, sig)
		}
		sort.Strings(sigs)
		for _, sig := range sigs {
			f.series[sig].write(&b, f.name, sig)
		}
		f.mu.Unlock()
	}
	_, err := io.WriteString(w, b.String())
	return err
}
