package nopfs

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cachepolicy"
	"repro/internal/chaos"
	"repro/internal/clock"
	"repro/internal/dataset"
	"repro/internal/plancache"
	"repro/internal/storage"
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

// seriesKeys lists the rendered series keys with rank 1 spelled as rank 0
// and the histograms' bucket lines left out: one rank's series shape.
func seriesKeys(vals map[string]float64) []string {
	seen := map[string]bool{}
	for k := range vals {
		if !strings.Contains(k, "_bucket{") {
			seen[strings.Replace(k, `rank="1"`, `rank="0"`, 1)] = true
		}
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestMetricsConsistentWithStats runs an instrumented chan-fabric cluster
// over a two-class hierarchy and checks that the exported series are
// projections of the record Stats reads: every counter equals its Stats
// projection exactly (stall to 1e-9 s), a class's misses are the next
// class's hits and misses, and the rendered series set is the pinned one.
func TestMetricsConsistentWithStats(t *testing.T) {
	ds := metricsDataset(t)
	reg := NewMetricsRegistry()
	var trace bytes.Buffer
	opts := NewOptions(
		WithSeed(5),
		WithEpochs(2),
		WithBatchPerWorker(8),
		WithStagingBuffer(1<<20),
		WithClasses(
			Class{Name: "ram", CapacityBytes: 256 << 10, Threads: 2},
			Class{Name: "ssd", CapacityBytes: 512 << 10, Threads: 1},
		),
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
			// The latency histogram is per event; its count must agree.
			hkey := series("nopfs_fetch_seconds_count", "rank", rank, "source", src.String())
			if got := vals[hkey]; got != float64(s.Fetches[src]) {
				t.Errorf("%s = %v, want %v", hkey, got, s.Fetches[src])
			}
		}
		for name, want := range map[string]int64{
			"nopfs_delivered_total":              s.Delivered,
			"nopfs_remote_false_positives_total": s.RemoteFalsePositives,
			"nopfs_pfs_coalesced_total":          s.PFSCoalesced,
			"nopfs_retries_total":                s.Retries,
			"nopfs_redistributed_rounds_total":   s.RedistributedRounds,
		} {
			if got := vals[series(name, "rank", rank)]; got != float64(want) {
				t.Errorf("%s{rank=%s} = %v, want %d (Stats)", name, rank, got, want)
			}
		}
		skey := series("nopfs_stall_seconds_total", "rank", rank)
		if got := vals[skey]; math.Abs(got-s.StallSeconds) > 1e-9 {
			t.Errorf("%s = %v, Stats.StallSeconds = %v", skey, got, s.StallSeconds)
		}
		// Filesystem reads: the two issuers add up to Stats.PFSReads, and
		// the staging issuer's reads are the fetches Fetches[SourcePFS]
		// counts, one completed read each.
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
		// The tier chain: a lookup that missed ram went on to ssd.
		hits := func(tier string) float64 { return vals[series("nopfs_tier_hits_total", "rank", rank, "tier", tier)] }
		misses := func(tier string) float64 { return vals[series("nopfs_tier_misses_total", "rank", rank, "tier", tier)] }
		if misses("ram") != hits("ssd")+misses("ssd") {
			t.Errorf("rank %s: ram misses %v != ssd hits %v + ssd misses %v", rank, misses("ram"), hits("ssd"), misses("ssd"))
		}
		// Every fetch past the last class was remote, a PFS read or
		// coalesced; the class prefetchers' remote fetches are not in Stats.
		if past := float64(s.Fetches[SourceRemote] + s.PFSReads + s.PFSCoalesced); misses("ssd") < past {
			t.Errorf("rank %s: ssd misses %v < %v remote + pfs + coalesced fetches", rank, misses("ssd"), past)
		}
	}

	// The acceptance signals: a live limited-PFS run must export non-zero
	// per-tier hits, stall, and limiter-wait series.
	if got := sumPrefix(vals, "nopfs_tier_hits_total"); got == 0 {
		t.Error("nopfs_tier_hits_total: all series zero, want class hits after epoch 0")
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

	want := []string{
		`nopfs_delivered_total{rank="0"}`,
		`nopfs_fabric_call_seconds_count{rank="0"}`,
		`nopfs_fabric_call_seconds_sum{rank="0"}`,
		`nopfs_fabric_calls_total{kind="fetch",ok="false",rank="0"}`,
		`nopfs_fabric_calls_total{kind="fetch",ok="true",rank="0"}`,
		`nopfs_fabric_calls_total{kind="value",ok="false",rank="0"}`,
		`nopfs_fabric_calls_total{kind="value",ok="true",rank="0"}`,
		`nopfs_fetch_seconds_count{rank="0",source="local"}`,
		`nopfs_fetch_seconds_count{rank="0",source="pfs"}`,
		`nopfs_fetch_seconds_count{rank="0",source="remote"}`,
		`nopfs_fetch_seconds_sum{rank="0",source="local"}`,
		`nopfs_fetch_seconds_sum{rank="0",source="pfs"}`,
		`nopfs_fetch_seconds_sum{rank="0",source="remote"}`,
		`nopfs_fetches_total{rank="0",source="local"}`,
		`nopfs_fetches_total{rank="0",source="pfs"}`,
		`nopfs_fetches_total{rank="0",source="remote"}`,
		`nopfs_limiter_wait_seconds_total{limiter="pfs"}`,
		`nopfs_peers_down_count{rank="0"}`,
		`nopfs_pfs_coalesced_total{rank="0"}`,
		`nopfs_pfs_reads_total{issuer="class",rank="0"}`,
		`nopfs_pfs_reads_total{issuer="staging",rank="0"}`,
		`nopfs_redistributed_rounds_total{rank="0"}`,
		`nopfs_remote_false_positives_total{rank="0"}`,
		`nopfs_retries_total{rank="0"}`,
		`nopfs_staging_bytes{rank="0"}`,
		`nopfs_stall_seconds_total{rank="0"}`,
		`nopfs_tier_hits_total{rank="0",tier="ram"}`,
		`nopfs_tier_hits_total{rank="0",tier="ssd"}`,
		`nopfs_tier_misses_total{rank="0",tier="ram"}`,
		`nopfs_tier_misses_total{rank="0",tier="ssd"}`,
	}
	if got := seriesKeys(vals); strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("rendered series:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
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

// TestMetricsLagAtMostOneEpoch renders the registry from inside the
// training loop, at the first sample of every epoch e >= 1: the rank's
// delivered counter must already hold every sample of epochs before e.
func TestMetricsLagAtMostOneEpoch(t *testing.T) {
	reg := NewMetricsRegistry()
	opts := NewOptions(
		WithSeed(7),
		WithEpochs(4),
		WithBatchPerWorker(8),
		WithClasses(Class{Name: "ram", CapacityBytes: 512 << 10, Threads: 2}),
		WithMetrics(reg),
	)
	var checks atomic.Int64
	_, err := RunCluster(context.Background(), metricsDataset(t), 2, opts, func(ctx context.Context, j *Job) error {
		prefix := fmt.Sprintf("nopfs_delivered_total{rank=%q} ", strconv.Itoa(j.Rank()))
		epoch, before := 0, 0
		for s, err := range j.Samples(ctx) {
			if err != nil {
				return err
			}
			if s.Epoch != epoch {
				epoch = s.Epoch
				var buf bytes.Buffer
				if err := reg.WritePrometheus(&buf); err != nil {
					return err
				}
				var got float64
				for _, line := range strings.Split(buf.String(), "\n") {
					if v, ok := strings.CutPrefix(line, prefix); ok {
						got, _ = strconv.ParseFloat(v, 64)
					}
				}
				if got < float64(before) {
					return fmt.Errorf("epoch %d: %s%v, want >= %d delivered through epoch %d", epoch, prefix, got, before, epoch-1)
				}
				checks.Add(1)
			}
			before++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := checks.Load(); got != 2*3 {
		t.Errorf("%d epoch-boundary checks, want 6 (2 ranks x 3 epochs past the first)", got)
	}
}

// TestMetricsFoldWhileClosing closes each job from a second goroutine at
// its first epoch boundary, so Close's fold can overlap the consumer's. Once
// RunCluster has returned, the series must still equal Stats.
func TestMetricsFoldWhileClosing(t *testing.T) {
	reg := NewMetricsRegistry()
	opts := NewOptions(
		WithSeed(9),
		WithEpochs(6),
		WithBatchPerWorker(8),
		WithClasses(Class{Name: "ram", CapacityBytes: 512 << 10, Threads: 2}),
		WithMetrics(reg),
	)
	stats, err := RunCluster(context.Background(), metricsDataset(t), 2, opts, func(ctx context.Context, j *Job) error {
		var closing sync.WaitGroup
		defer closing.Wait()
		closed := false
		for s, err := range j.Samples(ctx) {
			if err != nil {
				return err
			}
			if s.Epoch == 1 && !closed {
				closed = true
				closing.Add(1)
				go func() {
					defer closing.Done()
					j.Close()
				}()
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	vals := parseProm(t, buf.String())
	for _, s := range stats {
		key := series("nopfs_delivered_total", "rank", strconv.Itoa(s.Rank))
		if got := vals[key]; got != float64(s.Delivered) {
			t.Errorf("%s = %v, want Stats.Delivered = %d", key, got, s.Delivered)
		}
	}
}

// TestMetricsHierarchyAtTagClassLimit runs a live cluster over the deepest
// hierarchy a source tag describes (cachepolicy.MaxTagClasses): every
// (epoch, sample) pair is delivered once, and the tier chain holds on all
// fifteen tiers. One class more is rejected, with the simulator's wording,
// rather than mis-tagged.
func TestMetricsHierarchyAtTagClassLimit(t *testing.T) {
	classes := make([]Class, cachepolicy.MaxTagClasses+1)
	for c := range classes {
		classes[c] = Class{Name: fmt.Sprintf("c%02d", c), CapacityBytes: 16 << 10}
	}
	ds := testDataset(t, 128)
	if err := NewOptions(WithClasses(classes...)).Validate(ds, 2); err == nil || !strings.Contains(err.Error(), "16 storage classes, at most 15") {
		t.Errorf("16 classes: got %v, want a storage-class error", err)
	}
	classes = classes[:cachepolicy.MaxTagClasses]
	reg := NewMetricsRegistry()
	opts := NewOptions(
		WithSeed(3),
		WithEpochs(2),
		WithBatchPerWorker(8),
		WithClasses(classes...),
		WithMetrics(reg),
		WithVerifySamples(true),
	)
	var mu sync.Mutex
	seen := map[[2]int]bool{}
	stats, err := RunCluster(context.Background(), ds, 2, opts, DrainAll(func(s Sample) error {
		mu.Lock()
		defer mu.Unlock()
		if seen[[2]int{s.Epoch, s.ID}] {
			return fmt.Errorf("epoch %d sample %d delivered twice", s.Epoch, s.ID)
		}
		seen[[2]int{s.Epoch, s.ID}] = true
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2*128 {
		t.Errorf("%d distinct (epoch, sample) pairs delivered, want 256", len(seen))
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	vals := parseProm(t, buf.String())
	for _, s := range stats {
		rank := strconv.Itoa(s.Rank)
		tier := func(name string, c int) float64 { return vals[series(name, "rank", rank, "tier", classes[c].Name)] }
		var hits float64
		for c := range classes {
			hits += tier("nopfs_tier_hits_total", c)
			if c > 0 && tier("nopfs_tier_misses_total", c-1) != tier("nopfs_tier_hits_total", c)+tier("nopfs_tier_misses_total", c) {
				t.Errorf("rank %s: tier chain broken at %s", rank, classes[c].Name)
			}
		}
		if hits == 0 {
			t.Errorf("rank %s: no tier hits across %d classes", rank, len(classes))
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
		// The drop draw is a pure function of (seed, rank, stream position,
		// attempt): this seed fails the first attempt at rank 1's positions
		// 97 and 172, two of the 29 it fetches from its peer for samples it
		// does not cache, so its staging path retries at least twice; class
		// fills, drawn at their samples' first access, may add more.
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

// TestMetricsLatencyFlushedOnExit ends ranks mid-run with metrics on: rank
// 0's trainer closes its job at its first sample, while its staging threads
// are mid-run, and rank 1 crashes at epoch 1 (crash:1@1). Each staging
// thread holds its latencies until a run is staged, so one that a Close
// stops mid-run must flush them as it exits: after the run every rank's
// nopfs_fetch_seconds_count equals Stats.Fetches, source by source.
func TestMetricsLatencyFlushedOnExit(t *testing.T) {
	crash, err := chaos.ParseProfile("crash:1@1")
	if err != nil {
		t.Fatal(err)
	}
	reg := NewMetricsRegistry()
	opts := NewOptions(
		WithSeed(5),
		WithEpochs(3),
		WithBatchPerWorker(32),
		WithStagingBuffer(1<<20),
		WithStagingThreads(2),
		WithClasses(Class{Name: "ram", CapacityBytes: 256 << 10, Threads: 1}),
		WithPFSBandwidth(2), // slow reads: rank 0's second run is mid-flight at its first sample
		WithChaos(crash),
		WithMetrics(reg),
	)
	stats, err := RunCluster(context.Background(), metricsDataset(t), 2, opts, func(ctx context.Context, j *Job) error {
		if j.Rank() != 0 {
			return DrainAll(nil)(ctx, j)
		}
		if _, _, err := j.Get(ctx); err != nil {
			return err
		}
		return j.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	vals := parseProm(t, buf.String())
	for _, s := range stats {
		rank := strconv.Itoa(s.Rank)
		for _, src := range []Source{SourcePFS, SourceRemote, SourceLocal} {
			key := series("nopfs_fetch_seconds_count", "rank", rank, "source", src.String())
			if got := vals[key]; got != float64(s.Fetches[src]) {
				t.Errorf("%s = %v, want Stats.Fetches[%s] = %d", key, got, src, s.Fetches[src])
			}
		}
	}
	if stats[0].Delivered == 0 || stats[0].Delivered >= int64(stats[0].Fetches[SourcePFS]+stats[0].Fetches[SourceRemote]+stats[0].Fetches[SourceLocal]) {
		t.Errorf("rank 0 delivered %d of %+v fetches, want a run ended mid-stream", stats[0].Delivered, stats[0].Fetches)
	}
}

// countingClock is the wall clock, counting its Now calls.
type countingClock struct{ reads atomic.Int64 }

func (c *countingClock) Now() time.Time {
	c.reads.Add(1)
	return clock.Real.Now()
}

func (c *countingClock) WaitUntil(ctx context.Context, t time.Time, wake <-chan struct{}) error {
	return clock.Real.WaitUntil(ctx, t, wake)
}

// TestMetricsClockReadsPerRun pins the instrumented staging path's clock
// cost on a 2-rank chan cluster with metrics on: a staging thread reads
// Job.clock once when it claims a run and once after each fetch, which ends
// that fetch's interval and starts the next. So a rank's reads are at least
// its staged fetches and at most those plus its runs.
func TestMetricsClockReadsPerRun(t *testing.T) {
	const workers = 2
	ds := metricsDataset(t)
	opts := NewOptions(
		WithSeed(5),
		WithEpochs(3),
		WithBatchPerWorker(8),
		WithClasses(Class{Name: "ram", CapacityBytes: 512 << 10, Threads: 2}),
		WithMetrics(NewMetricsRegistry()),
	).withDefaults()
	bg := context.Background()
	eps, err := chanFabric{}.Build(bg, workers, opts.InterconnectMBps)
	if err != nil {
		t.Fatal(err)
	}
	eps = instrumentFabric(opts.Metrics, eps)
	pfs, plans := storage.NewLimiter(opts.PFSAggregateMBps), plancache.New(0, 0)
	jobs := make([]*Job, workers)
	clocks := make([]countingClock, workers)
	for rank := range jobs {
		j, err := newJob(bg, ds, rank, workers, perRankOptions(opts, rank), eps[rank], pfs, plans)
		if err != nil {
			t.Fatal(err)
		}
		j.clock = &clocks[rank]
		jobs[rank] = j
	}
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for rank, j := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if errs[rank] = j.Start(bg); errs[rank] == nil {
				errs[rank] = DrainAll(nil)(bg, j)
			}
		}()
	}
	wg.Wait()
	for rank, j := range jobs {
		j.Close()
		if errs[rank] != nil {
			t.Fatalf("rank %d: %v", rank, errs[rank])
		}
		var fetches int64
		for _, n := range j.Stats().Fetches {
			fetches += n
		}
		b := opts.BatchPerWorker
		runs := int64((j.StreamLen() + b - 1) / b)
		reads := clocks[rank].reads.Load()
		if reads < fetches || reads > fetches+runs {
			t.Errorf("rank %d: %d clock reads for %d staged fetches in %d runs, want between %d and %d",
				rank, reads, fetches, runs, fetches, fetches+runs)
		}
		t.Logf("rank %d: %d clock reads, %d staged fetches, %d runs", rank, reads, fetches, runs)
	}
}
