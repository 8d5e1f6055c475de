package main

// metricDef names one metric. The two lists below are the single source of
// the names, units and directions in BENCHMARK.json (a test compares them),
// and fix the order metrics are printed in.
type metricDef struct {
	name, unit, better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may get worse before a change is rejected.
	bound float64
}

// End-to-end metrics: what a user of the system sees, measured with
// tracing off, reported by every workload.
var (
	mSetup = metricDef{"setup_s", "s", "lower", 0.25}
	// mPerOp is the wall time of one repetition over its operations: grid
	// cells for sim_* (one grid through sweep.Runner.RunStream into the JSON
	// encoder), delivered samples for live_* (one RunCluster).
	//
	// It is the lower quartile of the timed repetitions — the median of the
	// faster half — not their median. The 2-core box has spells, seconds to
	// minutes long, in which everything runs up to 40% slower; a spell that
	// hits half of a run's repetitions moves the median by its full size
	// and the lower quartile hardly (measured on sim_fig8_warm, quiet vs
	// noisy run: median +21%, lower quartile +9%). The bound is still the
	// contract's maximum: in a noisy spell the run-to-run spread of the cold
	// workloads, whose every repetition is a fresh process, reaches 10-20%,
	// and the time cap leaves no room for more repetitions.
	mPerOp = metricDef{"us_per_op", "us", "lower", 0.25}
	// mPFSFrac is the share of sample fetches that cost a shared-filesystem
	// read, the paper's scarce resource: observed for live_*, simulated
	// (NoPFS cells) for sim_*.
	mPFSFrac = metricDef{"pfs_fetch_frac", "ratio", "lower", 0.10}
	mRSS     = metricDef{"peak_rss_mb", "MiB", "lower", 0.15}

	endToEnd = []metricDef{mSetup, mPerOp, mPFSFrac, mRSS}
)

// perLayer lists the metrics of single layers, named <layer>.<metric>. A
// workload that does not exercise a layer reports 0 for its metrics.
var perLayer = []metricDef{
	{name: "prng.perm_ns_per_elem", unit: "ns", better: "lower"},
	{name: "prng.perm_elems", unit: "count", better: "higher"},

	{name: "access.shuffle_count", unit: "count", better: "lower"},
	{name: "access.epoch_orders_s", unit: "s", better: "lower"},
	{name: "access.streams_s", unit: "s", better: "lower"},

	{name: "plancache.artifacts_cold_s", unit: "s", better: "lower"},
	{name: "plancache.artifacts_warm_ns", unit: "ns", better: "lower"},
	{name: "plancache.hits", unit: "count", better: "higher"},
	{name: "plancache.misses", unit: "count", better: "lower"},
	{name: "plancache.hit_ratio", unit: "ratio", better: "higher"},
	{name: "plancache.resident_mb", unit: "MiB", better: "lower"},
	{name: "plancache.live_artifacts_ms", unit: "ms", better: "lower"},

	{name: "dataset.config_s", unit: "s", better: "lower"},
	{name: "dataset.read_count", unit: "count", better: "lower"},
	{name: "dataset.read_s", unit: "s", better: "lower"},
	{name: "dataset.read_mb", unit: "MiB", better: "lower"},

	{name: "cachepolicy.build_s", unit: "s", better: "lower"},
	{name: "cachepolicy.build_count", unit: "count", better: "lower"},
	{name: "cachepolicy.build_ns_per_sample", unit: "ns", better: "lower"},
	{name: "cachepolicy.assign_mb", unit: "MiB", better: "lower"},
	{name: "cachepolicy.live_build_ms", unit: "ms", better: "lower"},

	{name: "perfmodel.compile_ns", unit: "ns", better: "lower"},
	{name: "perfmodel.best_ns", unit: "ns", better: "lower"},

	{name: "sim.run_s", unit: "s", better: "lower"},
	{name: "sim.simulate_count", unit: "count", better: "lower"},
	{name: "sim.fetches", unit: "count", better: "higher"},
	{name: "sim.failed_cells", unit: "count", better: "lower"},
	{name: "sim.ns_per_fetch", unit: "ns", better: "lower"},
	{name: "sim.nopfs_over_lb", unit: "ratio", better: "lower"},
	{name: "sim.nopfs_exec_s", unit: "s", better: "lower"},

	{name: "sweep.cells", unit: "count", better: "higher"},
	{name: "sweep.self_s", unit: "s", better: "lower"},
	{name: "sweep.encode_s", unit: "s", better: "lower"},
	{name: "sweep.parallel_speedup", unit: "ratio", better: "higher"},
	{name: "sweep.grid_wall_s", unit: "s", better: "lower"},

	{name: "limiter.wait_s", unit: "s", better: "lower"},
	{name: "limiter.pfs_utilisation", unit: "ratio", better: "higher"},
	{name: "limiter.wait_unlimited_ns", unit: "ns", better: "lower"},

	{name: "backend.get_count", unit: "count", better: "lower"},
	{name: "backend.get_hit_ratio", unit: "ratio", better: "higher"},
	{name: "backend.get_s", unit: "s", better: "lower"},
	{name: "backend.put_count", unit: "count", better: "lower"},
	{name: "backend.put_s", unit: "s", better: "lower"},
	{name: "backend.has_count", unit: "count", better: "lower"},
	{name: "backend.cached_mb", unit: "MiB", better: "higher"},

	{name: "staging.stall_s", unit: "s", better: "lower"},
	{name: "staging.stall_frac", unit: "ratio", better: "lower"},
	{name: "staging.pushpop_ns", unit: "ns", better: "lower"},

	{name: "transport.call_count", unit: "count", better: "lower"},
	{name: "transport.call_s", unit: "s", better: "lower"},
	{name: "transport.call_p50_us", unit: "us", better: "lower"},
	{name: "transport.call_p99_us", unit: "us", better: "lower"},
	{name: "transport.serve_s", unit: "s", better: "lower"},
	{name: "transport.self_s", unit: "s", better: "lower"},
	{name: "transport.miss_ratio", unit: "ratio", better: "lower"},
	{name: "transport.err_count", unit: "count", better: "lower"},
	{name: "transport.mb", unit: "MiB", better: "lower"},
	{name: "transport.allgather_ms", unit: "ms", better: "lower"},

	{name: "fetch.local_frac", unit: "ratio", better: "higher"},
	{name: "fetch.remote_frac", unit: "ratio", better: "higher"},
	{name: "fetch.false_positive_ratio", unit: "ratio", better: "lower"},
	{name: "fetch.retries", unit: "count", better: "lower"},
	{name: "fetch.self_s", unit: "s", better: "lower"},

	{name: "resilience.do_zero_ns", unit: "ns", better: "lower"},
	{name: "resilience.do_default_ns", unit: "ns", better: "lower"},

	{name: "metrics.overhead_frac", unit: "ratio", better: "lower"},
	{name: "metrics.counter_inc_ns", unit: "ns", better: "lower"},
	{name: "metrics.histogram_observe_ns", unit: "ns", better: "lower"},

	{name: "delivery.us_per_sample", unit: "us", better: "lower"},
	{name: "delivery.get_p50_us", unit: "us", better: "lower"},
	{name: "delivery.get_p99_us", unit: "us", better: "lower"},
	{name: "delivery.batch_p50_us", unit: "us", better: "lower"},
	{name: "delivery.batch_p99_us", unit: "us", better: "lower"},
	{name: "delivery.first_sample_ms", unit: "ms", better: "lower"},
	{name: "delivery.allocs_per_sample", unit: "count", better: "lower"},
	{name: "delivery.alloc_bytes_per_sample", unit: "count", better: "lower"},

	{name: "runtime.gc_pause_ms", unit: "ms", better: "lower"},
	{name: "runtime.gc_count", unit: "count", better: "lower"},

	{name: "tracing.overhead_frac", unit: "ratio", better: "lower"},
	{name: "tracing.attributed_frac", unit: "ratio", better: "higher"},
	{name: "tracing.spans", unit: "count", better: "lower"},
}
