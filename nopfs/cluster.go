package nopfs

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/chaos"
	"repro/internal/plancache"
	"repro/internal/storage"
)

// RankFunc is one worker's training loop: it consumes the Job's sample
// stream (Samples / GetBatch / Get) until done. ctx is the cluster's run
// context; passing it into the Job's consuming calls makes the loop unwind
// promptly on cancellation.
type RankFunc func(ctx context.Context, job *Job) error

// RunCluster executes an N-worker distributed training job in one process:
// it builds the fabric selected by the options (in-process channels by
// default; see WithFabric and RegisterFabric), wires every worker's Job,
// runs fn concurrently for each worker (the per-rank training loop), and
// returns per-worker stats.
//
// Canceling ctx (which must be non-nil) tears the whole cluster down in
// bounded time: prefetchers, bandwidth waits, fabric calls, and blocked
// consumers all unwind, every goroutine exits, and the context error is
// reported.
//
// Failures are aggregated: if several ranks fail, the returned error joins
// all of them (errors.Join), each wrapped with its rank.
//
// Every worker sees the dataset "at rest on a PFS" whose aggregate
// bandwidth is Options.PFSAggregateMBps, matching the paper's MLPerf-HPC
// starting condition.
func RunCluster(ctx context.Context, ds Dataset, workers int, opts Options, fn RankFunc) ([]Stats, error) {
	opts = opts.withDefaults()
	if err := opts.Validate(ds, workers); err != nil {
		return nil, err
	}
	fab, err := opts.fabric()
	if err != nil {
		return nil, err
	}
	if opts.TraceFetches != nil {
		// One shared serialising writer: per-rank trace lines must not
		// interleave even when the caller passes a plain file or buffer.
		opts.TraceFetches = &syncWriter{w: opts.TraceFetches}
	}
	pfs := storage.NewLimiter(opts.PFSAggregateMBps) // the shared filesystem
	if sched := opts.Chaos.Compile(opts.Seed); sched != nil {
		// Fault injection: wrap the fabric in the latency/failure decorator
		// (when the profile has fabric faults to inject) and throttle a
		// degraded PFS. The PFS degradation is cluster-wide state, so it
		// applies from startup (per-epoch ramping of a shared tier would
		// need a global epoch clock the live system does not have; the
		// simulator models the ramp exactly).
		if opts.Chaos.Fabric != (chaos.FabricFault{}) {
			fab = chaosFabric{inner: fab, sched: sched}
		}
		if factor := sched.MaxTierFactor(chaos.PFSTier); factor > 1 {
			base := opts.PFSAggregateMBps
			if base <= 0 {
				base = chaos.DefaultLiveTierMBps
			}
			pfs = storage.NewLimiter(base / factor)
		}
	}
	// Observe after any chaos rebuild so the counter follows the limiter
	// that actually paces the run.
	observeLimiter(opts.Metrics, pfs, "pfs")

	nets, err := fab.Build(ctx, workers, opts.InterconnectMBps)
	if err != nil {
		return nil, fmt.Errorf("nopfs: fabric %q: %w", fab.Name(), err)
	}
	if len(nets) != workers {
		for _, n := range nets {
			n.Close()
		}
		return nil, fmt.Errorf("nopfs: fabric %q built %d endpoints for %d workers", fab.Name(), len(nets), workers)
	}
	nets = instrumentFabric(opts.Metrics, nets)

	// The plan lives as long as the cluster: built once for the N ranks in a
	// cache of its own, so repeated clusters in one process do not accumulate
	// plans in plancache.Shared().
	plans := plancache.New(0, 0)
	jobs := make([]*Job, workers)
	for rank := 0; rank < workers; rank++ {
		j, err := newJob(ctx, ds, rank, workers, perRankOptions(opts, rank), nets[rank], pfs, plans)
		if err != nil {
			for r := 0; r < rank; r++ {
				jobs[r].Close()
			}
			for r := rank; r < workers; r++ {
				nets[r].Close()
			}
			return nil, fmt.Errorf("nopfs: rank %d: %w", rank, err)
		}
		jobs[rank] = j
	}
	// Start after all handlers are installed (the allgather needs every
	// endpoint serving), and barrier between Start and the training loops:
	// a rank whose chaos schedule crashes it early must not close its
	// endpoint while a slower peer is still mid-allgather. Real launchers
	// have the same property — initialisation completes collectively before
	// any rank trains. Every Start returns (success or error), so the
	// barrier cannot deadlock.
	errs := make([]error, workers)
	var wg, started sync.WaitGroup
	started.Add(workers)
	for rank := range jobs {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			err := jobs[rank].Start(ctx)
			started.Done()
			started.Wait()
			if err != nil {
				errs[rank] = err
				return
			}
			errs[rank] = fn(ctx, jobs[rank])
		}(rank)
	}
	wg.Wait()

	// Close joins the rank's prefetchers and then folds its record into the
	// metric series, so the Stats that follow are final and the series equal
	// them: a class prefetcher still mid-read when the trainer finished is
	// in both.
	stats := make([]Stats, workers)
	for rank, j := range jobs {
		j.Close()
		stats[rank] = j.Stats()
	}
	var failures []error
	for rank, err := range errs {
		if err != nil {
			failures = append(failures, fmt.Errorf("nopfs: rank %d: %w", rank, err))
		}
	}
	if len(failures) > 0 {
		return stats, errors.Join(failures...)
	}
	return stats, nil
}

// perRankOptions gives each rank its own filesystem-backed class directory
// (a shared Dir would make workers share one cache).
func perRankOptions(opts Options, rank int) Options {
	classes := make([]Class, len(opts.Classes))
	copy(classes, opts.Classes)
	for i := range classes {
		if classes[i].Dir != "" {
			classes[i].Dir = fmt.Sprintf("%s/rank%03d", classes[i].Dir, rank)
		}
	}
	opts.Classes = classes
	return opts
}

// DrainAll is a convenience training loop: it consumes the entire stream,
// calling onSample (if non-nil) for every delivered sample.
func DrainAll(onSample func(Sample) error) RankFunc {
	return func(ctx context.Context, j *Job) error {
		for s, err := range j.Samples(ctx) {
			if err != nil {
				return err
			}
			if onSample != nil {
				if err := onSample(s); err != nil {
					return err
				}
			}
		}
		return nil
	}
}
