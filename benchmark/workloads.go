package main

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/prng"
	"repro/internal/sweep"
	"repro/nopfs"
)

// kind says how a workload's repetitions are run.
type kind int

const (
	// simCold runs one grid per fresh process: the process-wide plan cache
	// has no reset, so a cold plan needs a cold process.
	simCold kind = iota
	// simWarm repeats one grid with one seed inside one process, so plan
	// artifacts and placements come from the plan cache.
	simWarm
	// live runs RunCluster repetitions with a fresh plan seed each.
	live
)

// workload is one set of inputs the benchmark runs. Everything the program
// receives (dataset.Spec, nopfs.Options, sweep.Grid) is generated here from
// the seed; the program never sees the seed's origin or the workload name.
type workload struct {
	name string
	kind kind
	// trials is the number of child processes a warm or live run is split
	// over; each sets up once, so it is also the set-up sample count.
	trials int
	grid   func(seed uint64, quick bool) *sweep.Grid
	live   func(seed uint64, quick bool) liveConfig
	// pair is the same cluster with the instrumentation the other way
	// round; the traced pass interleaves untraced repetitions of both, and
	// their ratio is metrics.overhead_frac.
	pair func(seed uint64, quick bool) liveConfig
}

// liveConfig is one live cluster set-up. The plan seed, and the metrics
// registry of the instrumented variant, are stamped per repetition.
type liveConfig struct {
	ranks int
	spec  dataset.Spec
	opts  nopfs.Options
	// instrumented attaches a fresh MetricsRegistry to every repetition
	// (the default resilience policy is already in opts).
	instrumented bool
}

// options returns the repetition's Options: a plan seed derived from the
// run seed and the repetition number, and the metrics registry if any.
func (c liveConfig) options(seed uint64, rep int) nopfs.Options {
	o := c.opts
	o.Seed = derive(seed, streamPlan+uint64(rep+1))
	if c.instrumented {
		o.Metrics = nopfs.NewMetricsRegistry()
	}
	return o
}

// Seed streams: every generated seed is derive(runSeed, stream).
const (
	streamDataset = 1
	streamGrid    = 2
	streamPlan    = 1000 // + 1 + repetition; repetition -1 is the verification pass
)

// derive maps (seed, stream) to an independent seed.
func derive(seed, stream uint64) uint64 {
	return prng.NewSplitMix64(seed ^ (stream * 0x9e3779b97f4a7c15)).Next()
}

// workloads lists the seven workloads in reporting order.
func workloads() []workload {
	return []workload{
		{name: "sim_fig8_cold", kind: simCold, grid: fig8Grid},
		{name: "sim_fig8_warm", kind: simWarm, trials: 3, grid: fig8Grid},
		{name: "sim_fig9_env", kind: simCold, grid: fig9Grid},
		{name: "live_chan", kind: live, trials: 3, live: liveChan, pair: liveChanInstrumented},
		{name: "live_tcp", kind: live, trials: 3, live: liveTCP},
		{name: "live_chan_instrumented", kind: live, trials: 3, live: liveChanInstrumented, pair: liveChan},
		{name: "live_pfs_bound", kind: live, trials: 2, live: livePFSBound},
	}
}

// workloadByName finds a workload.
func workloadByName(name string) (workload, error) {
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// fig8Grid is all six Fig. 8 panels x ten policies: what `nopfs sim -all`
// runs. 60 cells.
func fig8Grid(seed uint64, quick bool) *sweep.Grid {
	scale := 0.05
	if quick {
		scale = 0.005
	}
	return sweep.Fig8Grid(scale, derive(seed, streamGrid), 1)
}

// fig9Grid is the Fig. 9 environment study plus its staging preliminary:
// 29 NoPFS cells that share one plan and differ only in the node.
func fig9Grid(seed uint64, quick bool) *sweep.Grid {
	scale := 0.01
	if quick {
		scale = 0.0005
	}
	return sweep.Fig9FullGrid(scale, derive(seed, streamGrid), 1)
}

// liveChan is the CPU cost of the zero-policy fetch path: two ranks on the
// channel fabric, a cache that holds 3/4 of the dataset in aggregate so
// local, remote and PFS sources all serve, nothing throttled.
func liveChan(seed uint64, quick bool) liveConfig {
	c := liveConfig{
		ranks: 2,
		spec: dataset.Spec{
			Name: "bench-8k", F: 8192, MeanSize: 8 << 10, StddevSize: 2 << 10,
			Classes: 16, Seed: derive(seed, streamDataset),
		},
		opts: nopfs.NewOptions(
			nopfs.WithEpochs(24),
			nopfs.WithBatchPerWorker(16),
			nopfs.WithStagingBuffer(4<<20),
			nopfs.WithStagingThreads(2),
			nopfs.WithClasses(nopfs.Class{Name: "ram", CapacityBytes: 24 << 20, Threads: 1}),
			nopfs.WithFabric(nopfs.FabricChan),
		),
	}
	if quick {
		c.spec.F = 512
		c.opts.Epochs = 3
		c.opts.Classes[0].CapacityBytes = 1536 << 10
		c.opts.StagingBytes = 256 << 10
	}
	return c
}

// liveTCP is liveChan over loopback sockets with fewer epochs: per-call
// dials and the wire codec dominate.
func liveTCP(seed uint64, quick bool) liveConfig {
	c := liveChan(seed, quick)
	c.opts.Fabric = nopfs.FabricTCP
	if !quick {
		c.opts.Epochs = 6
	}
	return c
}

// liveChanInstrumented is liveChan with every metric call live and every
// remote fetch under the default resilience policy and a breaker.
func liveChanInstrumented(seed uint64, quick bool) liveConfig {
	c := liveChan(seed, quick)
	c.instrumented = true
	c.opts.Resilience = nopfs.DefaultResilience()
	return c
}

// livePFSBound is the paper's I/O-bound regime: four ranks share a 64 MB/s
// filesystem and sleep in the limiter for most of the wall time.
func livePFSBound(seed uint64, quick bool) liveConfig {
	c := liveConfig{
		ranks: 4,
		spec: dataset.Spec{
			Name: "bench-16k", F: 4096, MeanSize: 16 << 10, StddevSize: 4 << 10,
			Classes: 16, Seed: derive(seed, streamDataset),
		},
		opts: nopfs.NewOptions(
			nopfs.WithEpochs(3),
			nopfs.WithBatchPerWorker(16),
			nopfs.WithStagingBuffer(4<<20),
			nopfs.WithStagingThreads(2),
			nopfs.WithClasses(nopfs.Class{Name: "ram", CapacityBytes: 8 << 20, Threads: 1}),
			nopfs.WithFabric(nopfs.FabricChan),
			nopfs.WithPFSBandwidth(64),
		),
	}
	if quick {
		c.spec.F = 256
		c.opts.Epochs = 2
		c.opts.Classes[0].CapacityBytes = 512 << 10
		c.opts.StagingBytes = 256 << 10
		c.opts.PFSAggregateMBps = 512
	}
	return c
}
