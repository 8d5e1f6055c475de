package nopfs

// This file is the functional-options layer of the v1 API. Options remains
// an ordinary struct — existing literals keep working — and every Option is
// a pure mutation of it, so the two styles compose:
//
//	opts := nopfs.NewOptions(
//	        nopfs.WithSeed(42),
//	        nopfs.WithEpochs(3),
//	        nopfs.WithClasses(nopfs.Class{Name: "ram", CapacityBytes: 64 << 20}),
//	        nopfs.WithFabric(nopfs.FabricTCP),
//	)
//	stats, err := nopfs.RunCluster(ctx, ds, workers, opts, fn)

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Option mutates an Options value; see NewOptions.
type Option func(*Options)

// NewOptions builds an Options from functional options, applied in order
// over the zero value (unset fields take the usual defaults at run time).
func NewOptions(opts ...Option) Options {
	var o Options
	for _, apply := range opts {
		apply(&o)
	}
	return o
}

// WithOptions replaces the whole Options value — the bridge from
// struct-literal configuration into the functional style (later options
// still apply on top).
func WithOptions(base Options) Option {
	return func(o *Options) { *o = base }
}

// WithSeed sets the shuffle seed — the clairvoyance input.
func WithSeed(seed uint64) Option {
	return func(o *Options) { o.Seed = seed }
}

// WithEpochs sets the number of passes over the dataset.
func WithEpochs(n int) Option {
	return func(o *Options) { o.Epochs = n }
}

// WithBatchPerWorker sets the per-worker mini-batch size.
func WithBatchPerWorker(n int) Option {
	return func(o *Options) { o.BatchPerWorker = n }
}

// WithDropLast drops the trailing partial global batch each epoch.
func WithDropLast(drop bool) Option {
	return func(o *Options) { o.DropLast = drop }
}

// WithStagingBuffer sets the staging-buffer byte budget.
func WithStagingBuffer(bytes int64) Option {
	return func(o *Options) { o.StagingBytes = bytes }
}

// WithStagingThreads sets p0, the staging prefetcher width.
func WithStagingThreads(n int) Option {
	return func(o *Options) { o.StagingThreads = n }
}

// WithClasses replaces the storage-class hierarchy, fastest first.
func WithClasses(classes ...Class) Option {
	return func(o *Options) { o.Classes = append([]Class(nil), classes...) }
}

// WithClass appends one storage class to the hierarchy.
func WithClass(c Class) Option {
	return func(o *Options) { o.Classes = append(o.Classes, c) }
}

// WithPFSBandwidth emulates the shared filesystem's aggregate random-read
// bandwidth in MB/s (0 = unlimited).
func WithPFSBandwidth(mbps float64) Option {
	return func(o *Options) { o.PFSAggregateMBps = mbps }
}

// WithInterconnectBandwidth emulates the fabric bandwidth in MB/s
// (0 = unlimited).
func WithInterconnectBandwidth(mbps float64) Option {
	return func(o *Options) { o.InterconnectMBps = mbps }
}

// WithVerifySamples CRC-checks every delivered payload.
func WithVerifySamples(verify bool) Option {
	return func(o *Options) { o.VerifySamples = verify }
}

// WithFabric selects the cluster fabric by registry name (FabricChan,
// FabricTCP, or a custom RegisterFabric name).
func WithFabric(name string) Option {
	return func(o *Options) { o.Fabric = name }
}

// WithChaos injects a deterministic fault/degradation scenario into the run
// (see ChaosProfile). The empty profile injects nothing.
func WithChaos(p ChaosProfile) Option {
	return func(o *Options) { o.Chaos = p }
}

// WithAccessPattern sets the workload access pattern by preset name or spec
// ("zipf", "hot-set", "curriculum:buckets=8", "elastic:join=1@1", ...; see
// internal/access.ParseAccessSpec). The empty spec is the classic uniform
// per-epoch shuffle.
func WithAccessPattern(spec string) Option {
	return func(o *Options) { o.Access = spec }
}

// WithMembership declares an elastic membership schedule from explicit
// events: joins[rank] is the epoch the rank joins at (it delivers nothing
// earlier), leaves[rank] the epoch it leaves at (it delivers nothing from
// then on, but keeps serving its cached bytes to peers). Epochs count from
// 1 — every run needs one full-membership epoch. It overwrites any previous
// access pattern; empty maps reset to the uniform pattern.
func WithMembership(joins, leaves map[int]int) Option {
	return func(o *Options) {
		var parts []string
		for _, r := range sortedRanks(joins) {
			parts = append(parts, fmt.Sprintf("join=%d@%d", r, joins[r]))
		}
		for _, r := range sortedRanks(leaves) {
			parts = append(parts, fmt.Sprintf("leave=%d@%d", r, leaves[r]))
		}
		if len(parts) == 0 {
			o.Access = ""
			return
		}
		o.Access = "elastic:" + strings.Join(parts, ",")
	}
}

// sortedRanks returns the map's keys in ascending order, so the constructed
// spec is deterministic regardless of map iteration order.
func sortedRanks(events map[int]int) []int {
	ranks := make([]int, 0, len(events))
	for r := range events {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)
	return ranks
}

// WithResilience bounds the fetch path's fault handling — retry/backoff,
// per-call deadlines, per-peer circuit breaking (see ResiliencePolicy,
// DefaultResilience). The zero policy disables resilience.
func WithResilience(p ResiliencePolicy) Option {
	return func(o *Options) { o.Resilience = p }
}

// WithMetrics threads a metric registry through the run (see
// NewMetricsRegistry); render it after the run with WritePrometheus.
func WithMetrics(reg *MetricsRegistry) Option {
	return func(o *Options) { o.Metrics = reg }
}

// WithFetchTrace streams one decision line per staged fetch to w.
func WithFetchTrace(w io.Writer) Option {
	return func(o *Options) { o.TraceFetches = w }
}

// fabric resolves the run's Fabric from the registry; the empty name is
// FabricChan.
func (o Options) fabric() (Fabric, error) {
	if o.Fabric == "" {
		return FabricByName(FabricChan)
	}
	return FabricByName(o.Fabric)
}
