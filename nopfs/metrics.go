package nopfs

import (
	"fmt"
	"io"
	"strconv"
	"sync"

	"repro/internal/metrics"
	"repro/internal/resilience"
	"repro/internal/storage"
	"repro/internal/transport"
)

// This file threads the optional observability layer (internal/metrics)
// through the live path. Outbound fabric calls are counted by an Endpoint
// decorator (instrumentFabric) that a nil Options.Metrics never installs.
// The rank's own counters are inline calls on jobMetrics — a counting
// backend decorator would also count the reads served to peers — and cost
// a nil check when metrics are off: newJobMetrics returns nil, every
// jobMetrics method is nil-safe, and the hot paths guard their time.Now
// calls behind the same check.
//
// Exported series (all prefixed nopfs_):
//
//	nopfs_fetches_total{rank,source}            staged fetches by source
//	nopfs_fetch_seconds{rank,source}            staged fetch latency histogram
//	nopfs_tier_hits_total{rank,tier}            local-class lookup hits
//	nopfs_tier_misses_total{rank,tier}          local-class lookup misses
//	nopfs_remote_false_positives_total{rank}    predicted remote hits that missed
//	nopfs_pfs_reads_total{rank,issuer}          filesystem reads issued (issuer = staging | class)
//	nopfs_pfs_coalesced_total{rank}             fetches served by another prefetcher's read
//	nopfs_stall_seconds_total{rank}             time Get waited on staging
//	nopfs_delivered_total{rank}                 samples handed to the trainer
//	nopfs_staging_bytes{rank}                   staging-buffer occupancy gauge
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
// render with WritePrometheus after (or during) a run.
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// jobMetrics holds one rank's pre-resolved series. A nil *jobMetrics (the
// metrics-off case) accepts every call as a no-op.
type jobMetrics struct {
	fetches    [3]*metrics.Counter // indexed by Source
	fetchSec   [3]*metrics.Histogram
	tierHits   []*metrics.Counter // indexed by class
	tierMiss   []*metrics.Counter
	falsePos   *metrics.Counter
	readsStage *metrics.Counter // PFS reads by issuer: staging path,
	readsClass *metrics.Counter // class prefetchers
	coalescedC *metrics.Counter
	stallSec   *metrics.Counter
	delivered  *metrics.Counter
	staging    *metrics.Gauge
	retriesC   *metrics.Counter
	peersDownG *metrics.Gauge
	redistC    *metrics.Counter
	// reg is kept for the cold-path circuit-transition series, whose
	// from/to labels are resolved lazily (the registry memoises).
	reg   *metrics.Registry
	trace *traceWriter
	rank  int
}

// newJobMetrics resolves rank's series, or returns nil when reg is nil.
// trace, when non-nil, receives one line per staged fetch.
func newJobMetrics(reg *metrics.Registry, rank int, classes []Class, trace io.Writer) *jobMetrics {
	if reg == nil && trace == nil {
		return nil
	}
	m := &jobMetrics{rank: rank}
	if trace != nil {
		m.trace = &traceWriter{w: trace}
	}
	if reg == nil {
		return m
	}
	r := metrics.L("rank", strconv.Itoa(rank))
	for _, src := range []Source{SourcePFS, SourceRemote, SourceLocal} {
		s := metrics.L("source", src.String())
		m.fetches[src] = reg.Counter("nopfs_fetches_total",
			"Staged sample fetches by source.", r, s)
		m.fetchSec[src] = reg.Histogram("nopfs_fetch_seconds",
			"Staged sample fetch latency in seconds.", nil, r, s)
	}
	for _, c := range classes {
		tier := metrics.L("tier", c.Name)
		m.tierHits = append(m.tierHits, reg.Counter("nopfs_tier_hits_total",
			"Local storage-class lookups that hit.", r, tier))
		m.tierMiss = append(m.tierMiss, reg.Counter("nopfs_tier_misses_total",
			"Local storage-class lookups that missed.", r, tier))
	}
	m.falsePos = reg.Counter("nopfs_remote_false_positives_total",
		"Remote fetches the progress heuristic predicted would hit but missed.", r)
	pfsReads := func(issuer string) *metrics.Counter {
		return reg.Counter("nopfs_pfs_reads_total",
			"Filesystem reads issued, by the prefetcher that issued them.", r, metrics.L("issuer", issuer))
	}
	m.readsStage, m.readsClass = pfsReads("staging"), pfsReads("class")
	m.coalescedC = reg.Counter("nopfs_pfs_coalesced_total",
		"Fetches served by another prefetcher's in-flight filesystem read.", r)
	m.stallSec = reg.Counter("nopfs_stall_seconds_total",
		"Total time Get waited on the staging buffer.", r)
	m.delivered = reg.Counter("nopfs_delivered_total",
		"Samples handed to the trainer.", r)
	m.staging = reg.Gauge("nopfs_staging_bytes",
		"Staging-buffer occupancy in bytes.", r)
	m.retriesC = reg.Counter("nopfs_retries_total",
		"Remote fetches retried under the resilience policy.", r)
	m.peersDownG = reg.Gauge("nopfs_peers_down_count",
		"Peers this rank currently holds circuit-open (marked down).", r)
	m.redistC = reg.Counter("nopfs_redistributed_rounds_total",
		"Plan rounds absorbed from crashed peers into this rank's stream.", r)
	m.reg = reg
	return m
}

// retry counts one remote-fetch retry.
func (m *jobMetrics) retry() {
	if m == nil || m.retriesC == nil {
		return
	}
	m.retriesC.Inc()
}

// redistributedRounds records the plan rounds grafted onto this rank's
// stream at setup.
func (m *jobMetrics) redistributedRounds(n int) {
	if m == nil || m.redistC == nil || n <= 0 {
		return
	}
	m.redistC.Add(float64(n))
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

// stagedFetch records one staged fetch: counter, latency, and trace line.
func (m *jobMetrics) stagedFetch(pos int, id int32, epoch int, src Source, bytes int, seconds float64) {
	if m == nil {
		return
	}
	m.fetches[src].Inc()
	m.fetchSec[src].Observe(seconds)
	m.trace.line(m.rank, pos, id, epoch, src, bytes, seconds)
}

// tierLookup records one local-class probe (hit or miss).
func (m *jobMetrics) tierLookup(class int, hit bool) {
	if m == nil || class >= len(m.tierHits) {
		return
	}
	if hit {
		m.tierHits[class].Inc()
	} else {
		m.tierMiss[class].Inc()
	}
}

// falsePositive records one remote-fetch miss.
func (m *jobMetrics) falsePositive() {
	if m == nil {
		return
	}
	m.falsePos.Inc()
}

// pfsRead counts one filesystem read issued by the staging path (staged)
// or a class prefetcher.
func (m *jobMetrics) pfsRead(staged bool) {
	if m == nil {
		return
	}
	if staged {
		m.readsStage.Inc()
	} else {
		m.readsClass.Inc()
	}
}

// coalesced counts one fetch served by another prefetcher's read.
func (m *jobMetrics) coalesced() {
	if m == nil {
		return
	}
	m.coalescedC.Inc()
}

// stall accumulates consumer wait time.
func (m *jobMetrics) stall(seconds float64) {
	if m == nil {
		return
	}
	m.stallSec.Add(seconds)
}

// deliver counts one sample handed to the trainer.
func (m *jobMetrics) deliver() {
	if m == nil {
		return
	}
	m.delivered.Inc()
}

// stagingBytes updates the occupancy gauge from s.
func (m *jobMetrics) stagingBytes(s *storage.Staging) {
	if m == nil || m.staging == nil {
		return
	}
	m.staging.Set(float64(s.Used()))
}

// syncWriter makes an arbitrary io.Writer safe for the cluster's concurrent
// rank traces: RunCluster wraps Options.TraceFetches in one shared syncWriter
// so callers may pass a plain file or buffer.
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// traceWriter serialises per-fetch decision lines onto one shared writer.
// Each line is built in full and written in a single locked Write so lines
// from concurrent ranks and prefetcher threads never interleave.
type traceWriter struct {
	mu sync.Mutex
	w  io.Writer
}

// line appends one fetch decision record:
//
//	rank=R pos=P sample=S epoch=E source=SRC bytes=B seconds=D
func (t *traceWriter) line(rank, pos int, id int32, epoch int, src Source, bytes int, seconds float64) {
	if t == nil {
		return
	}
	line := fmt.Sprintf("rank=%d pos=%d sample=%d epoch=%d source=%s bytes=%d seconds=%.6f\n",
		rank, pos, id, epoch, src, bytes, seconds)
	t.mu.Lock()
	defer t.mu.Unlock()
	io.WriteString(t.w, line)
}

// kindName labels a fabric request kind for the call counter.
func kindName(kind uint8) string {
	switch kind {
	case transport.KindFetch:
		return "fetch"
	case transport.KindValue:
		return "value"
	default:
		return "other"
	}
}

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
		// Pre-resolve the four (kind, ok) counter cells the hot path can hit.
		calls := map[uint8][2]*metrics.Counter{}
		for _, kind := range []uint8{transport.KindFetch, transport.KindValue} {
			var cell [2]*metrics.Counter
			for i, ok := range []string{"false", "true"} {
				cell[i] = reg.Counter("nopfs_fabric_calls_total",
					"Outbound fabric calls by request kind and outcome.",
					r, metrics.L("kind", kindName(kind)), metrics.L("ok", ok))
			}
			calls[kind] = cell
		}
		nets[rank] = transport.Instrument(nets[rank], func(req transport.Request, ok bool, seconds float64) {
			cell, known := calls[req.Kind]
			if !known {
				return
			}
			if ok {
				cell[1].Inc()
			} else {
				cell[0].Inc()
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
