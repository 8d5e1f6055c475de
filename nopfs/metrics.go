package nopfs

import (
	"fmt"
	"io"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/metrics"
	"repro/internal/resilience"
	"repro/internal/storage"
	"repro/internal/transport"
)

// This file threads the optional observability layer (internal/metrics)
// through the live path. Outbound fabric calls are counted by an Endpoint
// decorator (instrumentFabric) that a nil Options.Metrics never installs.
// The rank counts its own events once, into its record: Job.Stats and the
// rank's counter series are both projections of it. jobMetrics folds the
// record into the series when the consumer enters a new epoch and in
// Job.Close, so the registry is exact after Close and lags a running job by
// at most one epoch. A staging thread flushes its fetch latencies into the
// histograms once per run and as it exits, so they lag it by at most one run.
// Only the trace line, circuit transitions, limiter waits and the fabric
// decorator stay per event. With metrics off newJobMetrics returns nil and
// every jobMetrics method is a no-op.
//
// Exported series (all prefixed nopfs_):
//
//	nopfs_fetches_total{rank,source}            staged fetches by source
//	nopfs_fetch_seconds{rank,source}            staged fetch latency histogram
//	nopfs_tier_hits_total{rank,tier}            local-class lookup hits
//	nopfs_tier_misses_total{rank,tier}          local-class lookup misses
//	nopfs_remote_false_positives_total{rank}    predicted remote hits that missed
//	nopfs_pfs_reads_total{rank,issuer}          filesystem reads completed (issuer = staging | class)
//	nopfs_pfs_coalesced_total{rank}             fetches served by another prefetcher's fetch
//	nopfs_stall_seconds_total{rank}             time Get waited on staging
//	nopfs_delivered_total{rank}                 samples handed to the trainer
//	nopfs_staging_bytes{rank}                   staging-buffer occupancy gauge (at each fold)
//	nopfs_limiter_wait_seconds_total{limiter}   bandwidth-limiter blocked time
//	nopfs_fabric_calls_total{rank,kind,ok}      outbound fabric calls
//	nopfs_fabric_call_seconds{rank}             outbound fabric call latency
//	nopfs_retries_total{rank}                   remote fetches retried (resilience)
//	nopfs_circuit_transitions_total{rank,peer,from,to}  breaker state changes
//	nopfs_peers_down_count{rank}                peers currently circuit-open
//	nopfs_redistributed_rounds_total{rank}      plan rounds absorbed from crashed peers
//
// (The peers-down gauge carries the _count unit suffix required by the
// metricnames analyzer.)

// MetricsRegistry is the metric sink threaded through a run (see
// WithMetrics); an alias so callers need not import internal packages.
type MetricsRegistry = metrics.Registry

// NewMetricsRegistry returns an empty registry to pass to WithMetrics and
// render with WritePrometheus. It is exact once RunCluster (or every Job's
// Close) has returned; during a run it lags each rank by at most one epoch.
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// Issuer rows of a record.
const (
	stagingRow = iota // the staging path
	classRow          // the class prefetchers
)

// Record slots past the local classes: a row holds one slot per local class
// (class c at slot c), then these, offset by the class count.
const (
	slotRemote = iota
	slotPFS
	slotCoalesced // served by another prefetcher's fetch, or the class's re-check
	slotsPastClasses
)

// record is the rank's one count of its own events: the fetch path and the
// consumer write it, Job.Stats and jobMetrics.fold read it.
type record struct {
	// served counts fetches by issuer row and by the slot that served them.
	// Each row is padded to whole 64-byte lines, so the staging threads and
	// the class prefetchers never write to one line.
	served                       [2][]atomic.Int64
	falsePos, delivered, retries atomic.Int64
}

// newRecord sizes a record's rows for the given local class count.
func newRecord(classes int) record {
	n := classes + slotsPastClasses
	row := func() []atomic.Int64 { return make([]atomic.Int64, (n+7)&^7)[:n] }
	return record{served: [2][]atomic.Int64{row(), row()}}
}

// sum adds up the fetches the given issuer rows served at slots [from, to).
func (r *record) sum(from, to int, rows ...int) (n int64) {
	for _, row := range rows {
		for i := from; i < to; i++ {
			n += r.served[row][i].Load()
		}
	}
	return n
}

// jobMetrics holds one rank's pre-resolved series. A nil *jobMetrics (the
// metrics-off case) accepts every call as a no-op.
type jobMetrics struct {
	fetchSec   [3]*metrics.Histogram // indexed by Source
	staging    *metrics.Gauge
	peersDownG *metrics.Gauge
	// mu serialises folds: Close may fold while the consumer does.
	mu       sync.Mutex
	counters []projection
	// reg is kept for the cold-path circuit-transition series, whose
	// from/to labels are resolved lazily (the registry memoises).
	reg *metrics.Registry
	// trace is Options.TraceFetches, which RunCluster serialises (syncWriter).
	trace io.Writer
	rank  int
}

// projection is a counter series, what it reads from the rank's Stats and
// record, and what it read at the last fold.
type projection struct {
	c    *metrics.Counter
	of   func(*Stats, *record) float64
	last float64
}

// newJobMetrics resolves rank's series, or returns nil when reg is nil.
// trace, when non-nil, receives one line per staged fetch.
func newJobMetrics(reg *metrics.Registry, rank int, classes []Class, trace io.Writer) *jobMetrics {
	if reg == nil && trace == nil {
		return nil
	}
	m := &jobMetrics{rank: rank, trace: trace}
	if reg == nil {
		return m
	}
	add := func(c *metrics.Counter, of func(*Stats, *record) float64) {
		m.counters = append(m.counters, projection{c: c, of: of})
	}
	r := metrics.L("rank", strconv.Itoa(rank))
	for _, src := range []Source{SourcePFS, SourceRemote, SourceLocal} {
		source := metrics.L("source", src.String())
		add(reg.Counter("nopfs_fetches_total", "Staged sample fetches by source.", r, source),
			func(s *Stats, _ *record) float64 { return float64(s.Fetches[src]) })
		m.fetchSec[src] = reg.Histogram("nopfs_fetch_seconds",
			"Staged sample fetch latency in seconds.", nil, r, source)
	}
	// A fetch served at slot c hit class c; one served past it missed c.
	end := len(classes) + slotsPastClasses
	for c, class := range classes {
		tier := metrics.L("tier", class.Name)
		add(reg.Counter("nopfs_tier_hits_total", "Local storage-class lookups that hit.", r, tier),
			func(_ *Stats, rec *record) float64 { return float64(rec.sum(c, c+1, stagingRow, classRow)) })
		add(reg.Counter("nopfs_tier_misses_total", "Local storage-class lookups that missed.", r, tier),
			func(_ *Stats, rec *record) float64 { return float64(rec.sum(c+1, end, stagingRow, classRow)) })
	}
	add(reg.Counter("nopfs_remote_false_positives_total",
		"Remote fetches the progress heuristic predicted would hit but missed.", r),
		func(s *Stats, _ *record) float64 { return float64(s.RemoteFalsePositives) })
	pfs := len(classes) + slotPFS
	for row, issuer := range []string{stagingRow: "staging", classRow: "class"} {
		add(reg.Counter("nopfs_pfs_reads_total",
			"Filesystem reads issued, by the prefetcher that issued them.", r, metrics.L("issuer", issuer)),
			func(_ *Stats, rec *record) float64 { return float64(rec.sum(pfs, pfs+1, row)) })
	}
	add(reg.Counter("nopfs_pfs_coalesced_total",
		"Fetches served by another prefetcher's in-flight fetch of the same sample.", r),
		func(s *Stats, _ *record) float64 { return float64(s.PFSCoalesced) })
	add(reg.Counter("nopfs_stall_seconds_total", "Total time Get waited on the staging buffer.", r),
		func(s *Stats, _ *record) float64 { return s.StallSeconds })
	add(reg.Counter("nopfs_delivered_total", "Samples handed to the trainer.", r),
		func(s *Stats, _ *record) float64 { return float64(s.Delivered) })
	add(reg.Counter("nopfs_retries_total", "Remote fetches retried under the resilience policy.", r),
		func(s *Stats, _ *record) float64 { return float64(s.Retries) })
	add(reg.Counter("nopfs_redistributed_rounds_total",
		"Plan rounds absorbed from crashed peers into this rank's stream.", r),
		func(s *Stats, _ *record) float64 { return float64(s.RedistributedRounds) })
	m.staging = reg.Gauge("nopfs_staging_bytes", "Staging-buffer occupancy in bytes.", r)
	m.peersDownG = reg.Gauge("nopfs_peers_down_count",
		"Peers this rank currently holds circuit-open (marked down).", r)
	m.reg = reg
	return m
}

// fold adds to each counter what j's record gained since the last fold, and
// samples the staging gauge.
func (m *jobMetrics) fold(j *Job) {
	if m == nil || m.reg == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	s := j.Stats()
	for i := range m.counters {
		p := &m.counters[i]
		v := p.of(&s, &j.rec)
		p.c.Add(v - p.last)
		p.last = v
	}
	m.staging.Set(float64(j.staging.Used()))
}

// circuitTransition records one per-peer breaker state change and keeps
// the peers-down gauge: a peer is down from the failure that opens its
// circuit until a probe closes it again. This is the cold path (transitions
// are rare), so the labeled series is resolved through the registry's
// memoising lookup on each call.
func (m *jobMetrics) circuitTransition(peer int, from, to resilience.BreakerState) {
	if m == nil || m.reg == nil {
		return
	}
	m.reg.Counter("nopfs_circuit_transitions_total",
		"Per-peer circuit-breaker state transitions.",
		metrics.L("rank", strconv.Itoa(m.rank)), metrics.L("peer", strconv.Itoa(peer)),
		metrics.L("from", from.String()), metrics.L("to", to.String())).Inc()
	switch {
	case from == resilience.Closed && to == resilience.Open:
		m.peersDownG.Add(1)
	case to == resilience.Closed:
		m.peersDownG.Add(-1)
	}
}

// fetchLatency is one staging thread's unflushed fetch latencies, by Source.
type fetchLatency [3]metrics.Batch

// latency returns an empty fetchLatency (inert when metrics are off).
func (m *jobMetrics) latency() (l fetchLatency) {
	if m != nil {
		for src, h := range m.fetchSec {
			l[src] = h.Batch()
		}
	}
	return l
}

func (l *fetchLatency) flush() {
	for src := range l {
		l[src].Flush()
	}
}

// stagedFetch records the staged fetch of position pos that began at t, in
// lat and its trace line, and returns the instant it ended, which begins the
// next fetch. A trace line's write is not charged to the next fetch; Fprintf
// writes it in one Write, so lines never interleave. Where the endpoint
// carries runs, which only an uninstrumented one can (Metrics off, a trace
// alone), a holder's one exchange of a staging window is timed at the
// holder's first position of the window, and its later positions take
// about 0 (settle):
//
//	rank=R pos=P sample=S epoch=E source=SRC bytes=B seconds=D
func (m *jobMetrics) stagedFetch(j *Job, lat *fetchLatency, t time.Time, pos int, src Source, bytes int) time.Time {
	if m == nil {
		return t
	}
	d := clock.Since(j.clock, t)
	lat[src].Observe(d.Seconds())
	if m.trace != nil {
		fmt.Fprintf(m.trace, "rank=%d pos=%d sample=%d epoch=%d source=%s bytes=%d seconds=%.6f\n",
			m.rank, pos, j.stream[pos], j.epochOf(pos), src, bytes, d.Seconds())
		d = clock.Since(j.clock, t)
	}
	return t.Add(d)
}

// syncWriter makes an arbitrary io.Writer safe for the cluster's concurrent
// rank traces: RunCluster wraps Options.TraceFetches in one syncWriter that
// every rank shares, so callers may pass a plain file or buffer.
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// kindNames labels the fabric request kinds the call counters count.
var kindNames = map[uint8]string{transport.KindFetch: "fetch", transport.KindValue: "value"}

// instrumentFabric wraps each endpoint so outbound calls feed the fabric
// counters; with a nil registry the endpoints are returned untouched.
func instrumentFabric(reg *metrics.Registry, nets []Endpoint) []Endpoint {
	if reg == nil {
		return nets
	}
	for rank := range nets {
		r := metrics.L("rank", strconv.Itoa(rank))
		hist := reg.Histogram("nopfs_fabric_call_seconds",
			"Outbound fabric call latency in seconds.", nil, r)
		// The four counter cells the hot path can hit, by (kind, ok).
		var calls [transport.KindValue + 1][2]*metrics.Counter
		for kind, name := range kindNames {
			for i, ok := range []string{"false", "true"} {
				calls[kind][i] = reg.Counter("nopfs_fabric_calls_total",
					"Outbound fabric calls by request kind and outcome.",
					r, metrics.L("kind", name), metrics.L("ok", ok))
			}
		}
		nets[rank] = transport.Instrument(nets[rank], func(req transport.Request, ok bool, seconds float64) {
			if int(req.Kind) >= len(calls) || calls[req.Kind][0] == nil {
				return
			}
			if ok {
				calls[req.Kind][1].Inc()
			} else {
				calls[req.Kind][0].Inc()
			}
			hist.Observe(seconds)
		})
	}
	return nets
}

// observeLimiter attaches a wait-time counter to a limiter (no-op when reg
// is nil). The label identifies the limiter ("pfs", "tier:ram", ...).
func observeLimiter(reg *metrics.Registry, lim *storage.Limiter, name string) {
	if reg == nil {
		return
	}
	c := reg.Counter("nopfs_limiter_wait_seconds_total",
		"Total time blocked in bandwidth limiters.", metrics.L("limiter", name))
	lim.SetObserver(c.Add)
}
