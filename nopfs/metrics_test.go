package nopfs

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/dataset"
)

// metricsDataset builds a small dataset for the instrumented-run tests.
func metricsDataset(t *testing.T) Dataset {
	t.Helper()
	ds, err := dataset.Cached(dataset.Spec{
		Name: "metrics-test", F: 128, MeanSize: 8 << 10, StddevSize: 2 << 10,
		Classes: 4, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// parseProm parses Prometheus text exposition into series keyed by
// "name{label=value,...}" with the labels sorted, so key construction in
// assertions is order-independent.
func parseProm(t *testing.T, text string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("unparseable exposition line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		out[normalizeSeries(line[:i])] = v
	}
	return out
}

// normalizeSeries sorts a series key's labels.
func normalizeSeries(s string) string {
	open := strings.IndexByte(s, '{')
	if open < 0 || !strings.HasSuffix(s, "}") {
		return s
	}
	labels := strings.Split(s[open+1:len(s)-1], ",")
	sort.Strings(labels)
	return s[:open] + "{" + strings.Join(labels, ",") + "}"
}

// series builds a normalized series key from name and label pairs.
func series(name string, kv ...string) string {
	var labels []string
	for i := 0; i < len(kv); i += 2 {
		labels = append(labels, fmt.Sprintf("%s=%q", kv[i], kv[i+1]))
	}
	sort.Strings(labels)
	return name + "{" + strings.Join(labels, ",") + "}"
}

// sumPrefix sums every series of one metric name.
func sumPrefix(vals map[string]float64, name string) float64 {
	var sum float64
	for k, v := range vals {
		if k == name || strings.HasPrefix(k, name+"{") {
			sum += v
		}
	}
	return sum
}

// TestMetricsConsistentWithStats runs an instrumented chan-fabric cluster
// and checks the exported series against the Stats the run returns: fetch
// and delivery counters exactly, stall within float tolerance, and the
// paper-relevant signals (per-tier hits, stall, limiter waits) non-zero.
func TestMetricsConsistentWithStats(t *testing.T) {
	ds := metricsDataset(t)
	reg := NewMetricsRegistry()
	var trace bytes.Buffer
	opts := NewOptions(
		WithSeed(5),
		WithEpochs(2),
		WithBatchPerWorker(8),
		WithStagingBuffer(1<<20),
		WithClasses(Class{Name: "ram", CapacityBytes: 1 << 20, Threads: 2}),
		WithPFSBandwidth(2), // I/O-bound epoch 0: guarantees stalls and limiter waits
		WithMetrics(reg),
		WithFetchTrace(&trace),
	)
	const workers = 2
	stats, err := RunCluster(context.Background(), ds, workers, opts, DrainAll(nil))
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	vals := parseProm(t, buf.String())

	var totalFetches int64
	for _, s := range stats {
		rank := strconv.Itoa(s.Rank)
		for _, src := range []Source{SourcePFS, SourceRemote, SourceLocal} {
			key := series("nopfs_fetches_total", "rank", rank, "source", src.String())
			if got, want := vals[key], float64(s.Fetches[src]); got != want {
				t.Errorf("%s = %v, want %v (Stats)", key, got, want)
			}
			totalFetches += s.Fetches[src]
			// The latency histogram's count must agree with the counter.
			hkey := series("nopfs_fetch_seconds_count", "rank", rank, "source", src.String())
			if got := vals[hkey]; got != float64(s.Fetches[src]) {
				t.Errorf("%s = %v, want %v", hkey, got, s.Fetches[src])
			}
		}
		dkey := series("nopfs_delivered_total", "rank", rank)
		if got, want := vals[dkey], float64(s.Delivered); got != want {
			t.Errorf("%s = %v, want %v", dkey, got, want)
		}
		skey := series("nopfs_stall_seconds_total", "rank", rank)
		if got := vals[skey]; math.Abs(got-s.StallSeconds) > 1e-3+0.01*s.StallSeconds {
			t.Errorf("%s = %v, Stats.StallSeconds = %v", skey, got, s.StallSeconds)
		}
		fkey := series("nopfs_remote_false_positives_total", "rank", rank)
		if got, want := vals[fkey], float64(s.RemoteFalsePositives); got != want {
			t.Errorf("%s = %v, want %v", fkey, got, want)
		}
		// Filesystem reads: the two issuers add up to Stats.PFSReads, and
		// the staging issuer's share is what Fetches[SourcePFS] counts.
		staging := vals[series("nopfs_pfs_reads_total", "rank", rank, "issuer", "staging")]
		class := vals[series("nopfs_pfs_reads_total", "rank", rank, "issuer", "class")]
		if staging+class != float64(s.PFSReads) || s.PFSReads == 0 {
			t.Errorf("nopfs_pfs_reads_total{rank=%s} = %v staging + %v class, want Stats.PFSReads = %d (> 0)",
				rank, staging, class, s.PFSReads)
		}
		if staging != float64(s.Fetches[SourcePFS]) {
			t.Errorf("nopfs_pfs_reads_total{rank=%s,issuer=staging} = %v, want Fetches[SourcePFS] = %d",
				rank, staging, s.Fetches[SourcePFS])
		}
		ckey := series("nopfs_pfs_coalesced_total", "rank", rank)
		if got, want := vals[ckey], float64(s.PFSCoalesced); got != want {
			t.Errorf("%s = %v, want %v (Stats)", ckey, got, want)
		}
	}

	// The acceptance signals: a live limited-PFS run must export non-zero
	// per-tier hits, stall, and limiter-wait series.
	if got := sumPrefix(vals, "nopfs_tier_hits_total"); got == 0 {
		t.Error("nopfs_tier_hits_total: all series zero, want ram hits after epoch 0")
	}
	if got := sumPrefix(vals, "nopfs_stall_seconds_total"); got == 0 {
		t.Error("nopfs_stall_seconds_total: all series zero, want stalls on a 2 MB/s PFS")
	}
	if got := vals[series("nopfs_limiter_wait_seconds_total", "limiter", "pfs")]; got == 0 {
		t.Error("nopfs_limiter_wait_seconds_total{limiter=\"pfs\"} = 0, want blocked time on a 2 MB/s PFS")
	}
	if got := sumPrefix(vals, "nopfs_fabric_calls_total"); got == 0 {
		t.Error("nopfs_fabric_calls_total: all series zero, want at least the startup allgather")
	}

	// The per-fetch decision trace: one line per staged fetch, parseable,
	// totals matching the counters.
	lines := strings.Split(strings.TrimSuffix(trace.String(), "\n"), "\n")
	if int64(len(lines)) != totalFetches {
		t.Fatalf("trace has %d lines, want %d (total fetches)", len(lines), totalFetches)
	}
	for _, line := range lines {
		var rank, pos, sample, epoch, bytesN int
		var src string
		var seconds float64
		if _, err := fmt.Sscanf(line, "rank=%d pos=%d sample=%d epoch=%d source=%s bytes=%d seconds=%f",
			&rank, &pos, &sample, &epoch, &src, &bytesN, &seconds); err != nil {
			t.Fatalf("unparseable trace line %q: %v", line, err)
		}
		if rank < 0 || rank >= workers || bytesN <= 0 {
			t.Fatalf("implausible trace line %q", line)
		}
	}
}

// TestMetricsCountAttemptsUnderRetries pins the endpoint wrappers' stacking
// order, resilience(instrument(chaos(raw))), on a live cluster under the
// flaky-fabric preset and the default policy: an injected drop is below the
// retry loop, so it is retried, and the call metrics are below it too, so
// they count attempts — every retry follows a call they saw fail. With
// resilience innermost a drop would surface as a false positive unretried;
// with the metrics outermost they would count fetches and (three drops in a
// row aside) never see a failure.
func TestMetricsCountAttemptsUnderRetries(t *testing.T) {
	profile, err := chaos.ParseProfile("flaky-fabric")
	if err != nil {
		t.Fatal(err)
	}
	reg := NewMetricsRegistry()
	opts := NewOptions(
		// The drop draw is a pure function of (seed, rank, call index): this
		// seed drops rank 0's call 1 and rank 1's call 6, and each rank makes
		// dozens (half the dataset is cached on the other rank).
		WithSeed(13),
		WithEpochs(3),
		WithBatchPerWorker(8),
		WithClasses(Class{Name: "ram", CapacityBytes: 512 << 10, Threads: 2}),
		WithChaos(profile),
		WithResilience(DefaultResilience()),
		WithMetrics(reg),
	)
	stats, err := RunCluster(context.Background(), metricsDataset(t), 2, opts, DrainAll(nil))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	vals := parseProm(t, buf.String())
	var retries int64
	for _, s := range stats {
		rank := strconv.Itoa(s.Rank)
		retries += s.Retries
		if got := vals[series("nopfs_retries_total", "rank", rank)]; got != float64(s.Retries) {
			t.Errorf("nopfs_retries_total{rank=%s} = %v, want Stats.Retries = %d", rank, got, s.Retries)
		}
		failed := vals[series("nopfs_fabric_calls_total", "rank", rank, "kind", "fetch", "ok", "false")]
		attempts := failed + vals[series("nopfs_fabric_calls_total", "rank", rank, "kind", "fetch", "ok", "true")]
		if want := float64(s.Fetches[SourceRemote] + s.Retries); attempts < want {
			t.Errorf("rank %s: %v fetch calls counted, want attempts >= %d remote fetches + %d retries",
				rank, attempts, s.Fetches[SourceRemote], s.Retries)
		}
		if failed < float64(s.Retries) {
			t.Errorf("rank %s: %v failed fetch calls counted under %d retries: the metrics sit above the retry loop",
				rank, failed, s.Retries)
		}
	}
	if retries == 0 {
		t.Error("no retries: the injected drops never reached the retry loop")
	}
}

// TestMetricsOffExportsNothing pins the metrics-off contract: a run without
// WithMetrics must leave a fresh registry empty (nothing is registered
// globally), and the run itself succeeds on the uninstrumented path.
func TestMetricsOffExportsNothing(t *testing.T) {
	ds := metricsDataset(t)
	opts := NewOptions(
		WithSeed(5),
		WithEpochs(1),
		WithBatchPerWorker(8),
		WithClasses(Class{Name: "ram", CapacityBytes: 1 << 20}),
	)
	if _, err := RunCluster(context.Background(), ds, 2, opts, DrainAll(nil)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := NewMetricsRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Errorf("fresh registry exposition = %q, want empty", buf.String())
	}
}

// TestMetricsTraceOnly exercises the trace-without-registry path (newJobMetrics
// must not require a registry for tracing).
func TestMetricsTraceOnly(t *testing.T) {
	ds := metricsDataset(t)
	var trace bytes.Buffer
	opts := NewOptions(
		WithSeed(5),
		WithEpochs(1),
		WithBatchPerWorker(8),
		WithFetchTrace(&trace),
	)
	stats, err := RunCluster(context.Background(), ds, 2, opts, DrainAll(nil))
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for _, s := range stats {
		for _, n := range s.Fetches {
			want += n
		}
	}
	got := int64(strings.Count(trace.String(), "\n"))
	if got != want {
		t.Errorf("trace-only run wrote %d lines, want %d", got, want)
	}
}
