package main

import (
	"context"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/nopfs"
)

// liveRun is what one RunCluster repetition produced.
type liveRun struct {
	wall time.Duration
	// expected is the sum of Job.StreamLen over ranks: the samples the plan
	// says the cluster must deliver.
	expected, delivered     int64
	pfs, remote, local      int64
	falsePositives, retries int64
	stallSeconds            float64
	cachedBytes             int64
	mallocs, allocBytes     uint64
	gcPauseNs               uint64
	gcCount                 uint32
}

// pfsFrac is the share of delivered samples that cost a PFS read.
func (r liveRun) pfsFrac() float64 { return ratio(float64(r.pfs), float64(r.delivered)) }

// batchLoop is the closed-loop consumer of the timed repetitions: the
// paper's training loop shape, one GetBatch after the other, the next
// issued only when the previous has returned.
func batchLoop(ctx context.Context, j *nopfs.Job) error {
	for {
		batch, err := j.GetBatch(ctx, 0)
		if err != nil {
			return err
		}
		if batch == nil {
			return nil
		}
	}
}

// runCluster runs one repetition and folds the per-rank stats. loop is the
// per-rank consumer; the wrapper only adds up Job.StreamLen.
func runCluster(ctx context.Context, ds nopfs.Dataset, ranks int, opts nopfs.Options, loop nopfs.RankFunc) (liveRun, error) {
	var run liveRun
	var expected atomic.Int64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	stats, err := nopfs.RunCluster(ctx, ds, ranks, opts, func(ctx context.Context, j *nopfs.Job) error {
		expected.Add(int64(j.StreamLen()))
		return loop(ctx, j)
	})
	run.wall = time.Since(start)
	runtime.ReadMemStats(&after)
	run.expected = expected.Load()
	run.mallocs = after.Mallocs - before.Mallocs
	run.allocBytes = after.TotalAlloc - before.TotalAlloc
	run.gcPauseNs = after.PauseTotalNs - before.PauseTotalNs
	run.gcCount = after.NumGC - before.NumGC
	for _, s := range stats {
		run.delivered += s.Delivered
		run.pfs += s.Fetches[nopfs.SourcePFS]
		run.remote += s.Fetches[nopfs.SourceRemote]
		run.local += s.Fetches[nopfs.SourceLocal]
		run.falsePositives += s.RemoteFalsePositives
		run.retries += s.Retries
		run.stallSeconds += s.StallSeconds
		run.cachedBytes += s.CachedBytes
	}
	return run, err
}

// tally counts deliveries per (epoch, sample) across ranks.
type tally struct {
	f      int
	counts []atomic.Uint32
}

func newTally(epochs, f int) *tally {
	return &tally{f: f, counts: make([]atomic.Uint32, epochs*f)}
}

// add records one delivery; it reports false for an (epoch, id) pair
// outside the plan.
func (t *tally) add(epoch, id int) bool {
	i := epoch*t.f + id
	if epoch < 0 || id < 0 || id >= t.f || i >= len(t.counts) {
		return false
	}
	t.counts[i].Add(1)
	return true
}

// check returns how many (epoch, sample) pairs were never delivered and how
// many deliveries were repeats: exactly-once means both are zero.
func (t *tally) check() (missing, duplicated int) {
	for i := range t.counts {
		switch n := t.counts[i].Load(); {
		case n == 0:
			missing++
		case n > 1:
			duplicated += int(n - 1)
		}
	}
	return missing, duplicated
}

// verifyLive is the live correctness pass: one repetition with payload
// verification on, tallying (epoch, id) so every sample is delivered exactly
// once per epoch across ranks and the delivered total matches the plan.
func verifyLive(ctx context.Context, ds nopfs.Dataset, cfg liveConfig, seed uint64, ck *checker) {
	opts := cfg.options(seed, -1)
	opts.VerifySamples = true
	t := newTally(opts.Epochs, ds.Len())
	var stray atomic.Int64
	run, err := runCluster(ctx, ds, cfg.ranks, opts, nopfs.DrainAll(func(s nopfs.Sample) error {
		if !t.add(s.Epoch, s.ID) {
			stray.Add(1)
		}
		return nil
	}))
	want := int64(opts.Epochs) * int64(ds.Len())
	ck.attempted += want
	if err != nil {
		ck.fail(want, "verification repetition: %v", err)
		return
	}
	missing, dup := t.check()
	if missing > 0 || dup > 0 || stray.Load() > 0 {
		ck.fail(int64(missing+dup)+stray.Load(),
			"verification repetition: %d samples missing, %d duplicated, %d outside the plan", missing, dup, stray.Load())
	}
	if run.delivered != run.expected || run.expected != want {
		ck.fail(1, "verification repetition: delivered %d, plan %d, epochs x samples %d", run.delivered, run.expected, want)
	}
}

// checkRun applies the cheap per-repetition checks of a timed run: no error
// and the delivered total equal to the plan's.
func checkRun(run liveRun, err error, want int64, ck *checker) {
	ck.attempted += want
	switch {
	case err != nil:
		ck.fail(want, "timed repetition: %v", err)
	case run.delivered != want || run.expected != want:
		short := want - run.delivered
		if short < 1 {
			short = 1
		}
		ck.fail(short, "timed repetition: delivered %d, plan %d, epochs x samples %d", run.delivered, run.expected, want)
	}
}

// liveTrial is one child process's share of an untraced live run: generate
// the dataset, verify (which is also the warm-up), then repeat RunCluster on
// the production path — built-in fabric and backend names, bare dataset —
// until the budget is spent.
func liveTrial(ctx context.Context, w workload, seed uint64, quick bool, budget time.Duration) (trialReport, error) {
	var rep trialReport
	var ck checker
	cfg := w.live(seed, quick)
	ds, err := dataset.New(cfg.spec)
	if err != nil {
		return rep, err
	}
	verifyLive(ctx, ds, cfg, seed, &ck)
	want := int64(cfg.opts.Epochs) * int64(ds.Len())
	for elapsed := time.Duration(0); len(rep.RepWallS) == 0 || elapsed < budget; {
		runtime.GC()
		run, err := runCluster(ctx, ds, cfg.ranks, cfg.options(seed, len(rep.RepWallS)), batchLoop)
		checkRun(run, err, want, &ck)
		rep.RepWallS = append(rep.RepWallS, run.wall.Seconds())
		rep.RepOps = append(rep.RepOps, want)
		rep.PFSFrac = append(rep.PFSFrac, run.pfsFrac())
		elapsed += run.wall
		if err != nil {
			break // already counted as failed; do not repeat a failing run
		}
	}
	rep.Attempted, rep.Failed, rep.Problems = ck.attempted, ck.failed, ck.problems
	return rep, nil
}
