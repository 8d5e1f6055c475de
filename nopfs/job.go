package nopfs

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/access"
	"repro/internal/cachepolicy"
	"repro/internal/chaos"
	"repro/internal/dataset"
	"repro/internal/hwspec"
	"repro/internal/plancache"
	"repro/internal/resilience"
	"repro/internal/storage"
	"repro/internal/transport"
)

// Job is one worker's handle on a distributed training run: the paper's
// Python `Job` class. It owns the worker's staging buffer, storage-class
// prefetchers, and fabric endpoint, and delivers samples in exact schedule
// order to one consumer goroutine, through Samples, GetBatch, or Get.
type Job struct {
	rank int
	opts Options
	ds   Dataset
	plan *access.Plan
	// digest is the plan's full-parameter hash, computed once: it is
	// exchanged in Start's allgather and served to peers on every
	// KindValue request.
	digest uint64

	assign   *cachepolicy.Assignment
	stream   []access.SampleID
	perEpoch int

	backends []StorageBackend
	staging  *storage.Staging
	net      Endpoint
	pfs      *storage.Limiter // the shared filesystem's bandwidth

	// chaosSched is the compiled fault schedule (nil for fault-free runs).
	chaosSched *chaos.Schedule

	// Crash recovery (all zero/nil without a crash profile): epochEnds
	// carries the redistributed stream's unequal cumulative epoch
	// boundaries (nil = the uniform legacy rule); crashEpoch is this
	// rank's own scheduled crash epoch (-1 = survivor); redistributed is
	// the plan-round count grafted from crashed peers.
	epochEnds     []int
	crashEpoch    int
	redistributed int64
	crashOnce     sync.Once

	// retries counts the remote-fetch attempts the resilience policy
	// retried (see withResilience).
	retries atomic.Int64

	// ctx is the job's lifetime context: derived in Start from the caller's
	// context, canceled by Close. Prefetchers block under it, so cancellation
	// of either kind unwinds every blocking layer.
	ctx    context.Context
	cancel context.CancelFunc

	progress atomic.Int64 // staging prefetch position (heuristic input)
	pos      atomic.Int64 // next stream position to claim

	fetches    [3]atomic.Int64 // staged fetches, indexed by Source
	falsePos   atomic.Int64
	delivered  atomic.Int64
	stallNanos atomic.Int64

	// inflight coalesces this rank's concurrent PFS reads of one sample
	// (see readPFS); pfsReads counts every read issued, staged or class
	// fill, and pfsCoalesced the fetches another prefetcher's read served.
	inflight     flights
	pfsReads     atomic.Int64
	pfsCoalesced atomic.Int64

	// met is the rank's resolved metric series (nil when observability is
	// off; every method is nil-safe).
	met *jobMetrics

	// fatalMu guards fatal: fail() can run on any prefetcher goroutine
	// concurrently with the consumer reading the error in Get.
	fatalMu sync.Mutex
	fatal   error

	// sources records the fetch source per stream position so Get can
	// report it alongside the sample. No lock: position p is written before
	// staging.Push(p) and read after staging.Pop returns p, and the staging
	// buffer's own mutex orders the two.
	sources []uint8

	held [][]byte // recycled buffers the consumer's last step delivered

	wg        sync.WaitGroup
	closed    chan struct{}
	closeOnce sync.Once
}

// newJob wires one worker. The caller provides the fabric endpoint, the
// shared PFS and the cluster's plan cache; placement is computed
// clairvoyantly from the options' seed. ctx bounds backend construction only
// — the job's lifetime context is derived later, in Start.
func newJob(ctx context.Context, ds Dataset, rank, workers int, opts Options, net Endpoint, pfs *storage.Limiter, plans *plancache.Cache) (*Job, error) {
	// Canonicalise the access spec before it enters the plan: every rank
	// (and the simulator) must derive the identical Plan value — and so the
	// identical digest — from equivalent spellings of the same pattern.
	spec, err := access.CanonicalSpec(opts.Access)
	if err != nil {
		return nil, fmt.Errorf("nopfs: %w", err)
	}
	plan := &access.Plan{
		Seed: opts.Seed, F: ds.Len(), N: workers, E: opts.Epochs,
		BatchPerWorker: opts.BatchPerWorker, DropLast: opts.DropLast,
		Access: spec,
	}
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	node := nodeFromClasses(opts.Classes)
	// Plan artifacts and the placement come from the cluster's plan cache:
	// the N ranks reconstruct the clairvoyant schedule once, not once per
	// rank, and it leaves with the cluster. The shared stream and assignment
	// are immutable; the job only reads them.
	art := plans.Artifacts(*plan)
	assign := art.Placement(plancache.FamilyNoPFS, ds, node, false)
	// Crash re-planning happens before the struct is wired: under a crash
	// profile every rank reshapes its delivery stream with the shared
	// redistribution rule (chaos.RedistributeStream — the same pure
	// function the simulator evaluates), so survivors absorb the crashed
	// ranks' orphaned plan rounds clairvoyantly and a crashed rank keeps
	// only its pre-crash prefix. Fault-free runs take art.Streams[rank]
	// untouched.
	sched := opts.Chaos.Compile(opts.Seed)
	stream := art.Streams[rank]
	var ends []int
	crashEpoch := sched.CrashEpoch(rank, workers)
	if sched.HasCrashes(workers) {
		stream, ends = sched.RedistributeStream(rank, workers, plan.E, stream,
			plan.SamplesPerEpoch,
			func(w int) []access.SampleID { return art.Streams[w] })
	} else if len(art.EpochEnds) > 0 {
		// Elastic plan: the per-epoch partition varies with the membership
		// schedule, so epoch/iteration accounting follows the precomputed
		// cumulative boundaries exactly as a crash-redistributed stream's
		// do. (Options.Validate rejects elastic × crash, so the branches
		// are exclusive.)
		ends = art.EpochEnds[rank]
	}
	j := &Job{
		rank: rank, opts: opts, ds: ds, plan: plan, digest: plan.Hash(),
		assign:        assign,
		stream:        stream,
		sources:       make([]uint8, len(stream)),
		perEpoch:      plan.SamplesPerEpoch(rank),
		epochEnds:     ends,
		crashEpoch:    crashEpoch,
		redistributed: int64(chaos.RedistributedRounds(art.Streams[rank], stream, ends)),
		staging:       storage.NewStaging(opts.StagingBytes),
		pfs:           pfs,
		chaosSched:    sched,
		//lint:ignore ctxfirst placeholder lifetime before Start(ctx) installs the caller's context; never waited on
		ctx:    context.Background(),
		closed: make(chan struct{}),
		met:    newJobMetrics(opts.Metrics, rank, opts.Classes, opts.TraceFetches),
	}
	j.met.redistributedRounds(int(j.redistributed))
	// The policies that act on one call decorate the seam it crosses and
	// are absent when unset: resilience on the endpoint, a degraded class's
	// throttle on its backend. The fetch path below knows neither.
	j.net = withResilience(net, opts.Resilience, opts.Seed, resilience.Hooks{
		OnRetry: func(int, error) {
			j.retries.Add(1)
			j.met.retry()
		},
	}, j.met.circuitTransition)
	progressEpoch := func() int { return j.epochOf(int(j.progress.Load())) }
	for ci, c := range opts.Classes {
		b, err := newClassBackend(ctx, rank, c)
		if err != nil {
			return nil, err
		}
		j.backends = append(j.backends, throttleDegraded(b, sched, ci, c, progressEpoch, opts.Metrics))
	}
	j.net.SetHandler(j.handle)
	return j, nil
}

// nodeFromClasses builds the hwspec view of the configured classes (the
// cache policy only consumes capacities).
func nodeFromClasses(classes []Class) hwspec.Node {
	node := hwspec.Node{
		Staging:          hwspec.StorageClass{Name: "staging", CapacityMB: 1, Threads: 1, Read: hwspec.Flat(1), Write: hwspec.Flat(1)},
		InterconnectMBps: 1,
	}
	for _, c := range classes {
		node.Classes = append(node.Classes, hwspec.StorageClass{
			Name:       c.Name,
			CapacityMB: float64(c.CapacityBytes) / (1 << 20),
			Threads:    c.Threads,
			Read:       hwspec.Flat(1),
			Write:      hwspec.Flat(1),
		})
	}
	return node
}

// Start verifies plan agreement with all peers (allgather of plan digests)
// and launches the prefetchers. It must be called once before consuming
// samples. The job's lifetime is bound to ctx, which must be non-nil:
// canceling it stops the prefetchers and unblocks any waiting consumer in
// bounded time.
func (j *Job) Start(ctx context.Context) error {
	j.ctx, j.cancel = context.WithCancel(ctx)
	// Tie context cancellation to the legacy shutdown signal so every
	// pre-context wait (the class prefetchers' pacing loop, the staging
	// buffer's drain semantics) observes it too.
	context.AfterFunc(j.ctx, j.shutdown)

	digests, err := transport.AllgatherValue(j.ctx, j.net, j.digest)
	if err != nil {
		return fmt.Errorf("nopfs: plan allgather: %w", err)
	}
	for rank, d := range digests {
		if d != j.digest {
			return fmt.Errorf("nopfs: rank %d derived a different access plan (digest %#x != %#x): seeds or parameters diverge",
				rank, d, j.digest)
		}
	}
	// Storage-class prefetchers: fill each class with its assigned
	// samples in first-access order (Rule 1).
	for c := range j.backends {
		fill := j.assign.FillOrder[j.rank][c]
		var next atomic.Int64
		threads := j.opts.Classes[c].Threads
		for t := 0; t < threads; t++ {
			j.wg.Add(1)
			go j.classPrefetcher(c, fill, &next)
		}
	}
	// Staging prefetchers: walk the access stream R in order.
	for t := 0; t < j.opts.StagingThreads; t++ {
		j.wg.Add(1)
		go j.stagingPrefetcher()
	}
	if len(j.stream) == 0 {
		// A rank outside its elastic membership window for the whole run
		// delivers nothing: close the staging buffer now so Get reports a
		// clean end of stream instead of blocking on prefetchers that have
		// nothing to stage. The endpoint stays open — the rank keeps
		// serving its cached bytes to peers until cluster teardown.
		j.staging.Close()
	}
	return nil
}

// errJobClosed aborts in-flight prefetch work during shutdown.
var errJobClosed = errors.New("nopfs: job closed")

// isClosed reports whether shutdown has begun (Close or context cancel).
func (j *Job) isClosed() bool {
	select {
	case <-j.closed:
		return true
	default:
		return false
	}
}

// shutdown flips the job into teardown: wake every waiter, stop stream
// claimers. Idempotent; runs on Close and on context cancellation.
func (j *Job) shutdown() {
	j.closeOnce.Do(func() { close(j.closed) })
	j.staging.Close()
	j.pos.Store(int64(len(j.stream))) // stop claimers
}

// fail handles the error that stopped a prefetcher: unless it is part of
// an orderly teardown, the first one is recorded as fatal and unblocks the
// consumer.
func (j *Job) fail(err error) {
	if err == errJobClosed || err == storage.ErrClosed || j.ctx.Err() != nil {
		return
	}
	j.fatalMu.Lock()
	first := j.fatal == nil
	if first {
		j.fatal = err
	}
	j.fatalMu.Unlock()
	if first {
		j.staging.Close()
	}
}

// fatalErr snapshots the first fatal error, if any.
func (j *Job) fatalErr() error {
	j.fatalMu.Lock()
	defer j.fatalMu.Unlock()
	return j.fatal
}

// handle serves peer requests: sample fetches from local caches and plan
// digest exchanges. ctx is the fabric endpoint's lifetime.
func (j *Job) handle(ctx context.Context, from int, req transport.Request) transport.Response {
	switch req.Kind {
	case transport.KindValue:
		return transport.Response{OK: true, Value: j.digest}
	case transport.KindFetch:
		for _, b := range j.backends {
			if data, ok, err := b.Get(ctx, req.Sample); err == nil && ok {
				return transport.Response{OK: true, Data: data}
			}
		}
		return transport.Response{OK: false}
	}
	return transport.Response{}
}

// prefetchLookahead is how far (in stream positions) a class prefetcher may
// run ahead of the staging position. Pacing keeps the class fill just ahead
// of the trainer, so the staging path usually finds the sample locally; it
// only narrows the window in which both miss the backend, it does not close
// it — under a throttled PFS the first read sits in the limiter for
// milliseconds and the other prefetcher arrives meanwhile (one read in ten
// on a 64 MB/s filesystem was such a duplicate). What makes "one PFS read
// per assigned sample per rank" true is the in-flight table in readPFS.
const prefetchLookahead = 512

// classPrefetcher fills one storage class with its assigned samples, in
// first-access order, pacing itself to stay a bounded window ahead of the
// trainer's stream position.
func (j *Job) classPrefetcher(class int, fill []access.SampleID, next *atomic.Int64) {
	defer j.wg.Done()
	backend := j.backends[class]
	for {
		i := next.Add(1) - 1
		if int(i) >= len(fill) {
			return
		}
		k := fill[i]
		fp := j.assign.LocalPos(j.rank, k)
		// Pace: wait until the trainer is within the lookahead window of
		// this sample's first access.
		for int64(fp) > j.progress.Load()+prefetchLookahead {
			if j.isClosed() {
				return
			}
			//lint:ignore goroutine 1ms pacing poll bounded by the isClosed check above; Close stops it within one tick
			time.Sleep(time.Millisecond)
		}
		if j.isClosed() {
			return
		}
		if backend.Has(k) {
			continue // the staging path self-healed it already
		}
		if int64(fp) < j.progress.Load() {
			// Staging already passed the first access; it either cached
			// the sample itself or will re-fetch on the next epoch.
			continue
		}
		data, src, err := j.fetchFrom(k, int(j.progress.Load()), false)
		if err == nil && src == SourceRemote {
			// A peer's bytes are the only ones not in the class yet: a PFS
			// read was stored by its flight (readPFS), a local hit was here.
			_, err = backend.Put(j.ctx, k, data)
		}
		if err != nil {
			j.fail(err)
			return
		}
	}
}

// stagingPrefetcher claims stream positions and stages samples in order.
func (j *Job) stagingPrefetcher() {
	defer j.wg.Done()
	for {
		if j.isClosed() {
			return
		}
		pos := int(j.pos.Add(1) - 1)
		if pos >= len(j.stream) {
			return
		}
		k := j.stream[pos]
		var fetchStart time.Time
		if j.met != nil {
			fetchStart = time.Now()
		}
		data, src, err := j.fetchFrom(k, pos, true)
		if err != nil {
			j.fail(err)
			return
		}
		j.fetches[src].Add(1)
		if j.met != nil {
			j.met.stagedFetch(pos, k, j.epochOf(pos), src, len(data), time.Since(fetchStart).Seconds())
		}
		j.sources[pos] = uint8(src)
		if err := j.staging.Push(j.ctx, pos, k, data); err != nil {
			j.fail(err)
			return
		}
		j.met.stagingBytes(j.staging)
		storeMax(&j.progress, int64(pos)) // threads finish out of order
	}
}

// storeMax raises a to v unless it is already there or past it.
func storeMax(a *atomic.Int64, v int64) {
	for cur := a.Load(); v > cur; cur = a.Load() {
		if a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// epochOf maps a stream position to its training epoch (clamped to the
// plan's final epoch for the tail of uneven streams). A redistributed
// stream carries unequal epoch boundaries (epochEnds), so the epoch is the
// first boundary past pos; fault-free streams keep the uniform division.
func (j *Job) epochOf(pos int) int {
	if j.epochEnds != nil {
		e := sort.SearchInts(j.epochEnds, pos+1)
		if e >= len(j.epochEnds) {
			e = len(j.epochEnds) - 1
		}
		return e
	}
	if j.perEpoch <= 0 {
		return 0
	}
	e := pos / j.perEpoch
	if e >= j.plan.E {
		e = j.plan.E - 1
	}
	return e
}

// epochIter maps a stream position to the (epoch, iteration) pair Get
// reports. The fault-free branch is the exact legacy arithmetic; a
// redistributed stream derives the iteration from the offset into its
// unequal epoch chunk.
func (j *Job) epochIter(pos int) (int, int) {
	if j.epochEnds == nil {
		return pos / j.perEpoch, (pos % j.perEpoch) / j.opts.BatchPerWorker
	}
	e := j.epochOf(pos)
	start := 0
	if e > 0 {
		start = j.epochEnds[e-1]
	}
	return e, (pos - start) / j.opts.BatchPerWorker
}

// chaosSleep pauses the fetch path for the straggler pacing delay,
// interruptible by shutdown.
func (j *Job) chaosSleep(d time.Duration) {
	if d <= 0 {
		return
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
	case <-j.closed:
	case <-j.ctx.Done():
	}
}

// fetchFrom retrieves sample k for stream position pos (see fetchSource),
// applying the straggler fault pacing: on a straggler rank, every fetch is
// stretched to Factor× its measured duration, slowing the whole prefetch
// pipeline the way a slow node's I/O path would.
func (j *Job) fetchFrom(k access.SampleID, pos int, staged bool) ([]byte, Source, error) {
	if j.chaosSched == nil {
		return j.fetchSource(k, pos, staged)
	}
	epoch := j.epochOf(pos)
	start := time.Now()
	data, src, err := j.fetchSource(k, pos, staged)
	if err == nil {
		if factor := j.chaosSched.Slowdown(j.rank, epoch, j.plan.N); factor > 1 {
			j.chaosSleep(time.Duration(float64(time.Since(start)) * (factor - 1)))
		}
	}
	return data, src, err
}

// fetchSource retrieves sample k for stream position pos by the paper's
// source rule (Sec. 5.2): a local class if cached, else the best peer
// estimated to hold it (symmetric-progress heuristic), else the PFS
// (readPFS) — which also takes every remote miss (Sec. 5.2.2). staged tells
// the staging path's fetches from the class prefetchers' in the read counts.
func (j *Job) fetchSource(k access.SampleID, pos int, staged bool) ([]byte, Source, error) {
	if j.isClosed() {
		return nil, SourcePFS, errJobClosed
	}
	// Local storage classes, fastest first.
	for ci, b := range j.backends {
		if data, ok, err := b.Get(j.ctx, k); err != nil {
			return nil, SourceLocal, err
		} else if ok {
			j.met.tierLookup(ci, true)
			return data, SourceLocal, nil
		}
		j.met.tierLookup(ci, false)
	}
	// Best remote holder per the clairvoyant placement + progress
	// heuristic. A holder the schedule says has crashed by this epoch is
	// demoted to the PFS without a call — the simulator's crashed-holder
	// reroute (sim.chaosAdjust), which never counts a false positive.
	if _, holder := j.assign.RemoteAvail(j.rank, k, int32(pos)); holder >= 0 &&
		!j.chaosSched.CrashedAt(holder, j.epochOf(pos), j.plan.N) {
		resp, err := j.net.Call(j.ctx, holder, transport.Request{Kind: transport.KindFetch, Sample: k})
		switch {
		case err == nil && resp.OK:
			return resp.Data, SourceRemote, nil
		case err != nil && j.ctx.Err() != nil:
			// Our own context ended: abort the fetch, never mask the
			// cancellation as a miss (it would double-count a PFS fallback
			// and stall against a tearing-down run).
			return nil, SourceRemote, errJobClosed
		case !errors.Is(err, resilience.ErrCircuitOpen):
			// Heuristic false positive: the holder has not cached it yet, or
			// the call to it failed (peer gone, injected drop, expired
			// deadline, retries spent). An open circuit never reached the
			// fabric, so it demotes to the PFS uncounted.
			j.falsePos.Add(1)
			j.met.falsePositive()
		}
	}
	if j.isClosed() {
		return nil, SourcePFS, errJobClosed
	}
	return j.readPFS(k, staged)
}

// crashNow enacts this rank's scheduled node crash: the job flips into
// teardown and the fabric endpoint closes, so peers observe a genuinely
// unreachable rank (refused dials on TCP, unreachable signal on the chan
// fabric) — not a polite shutdown handshake. Idempotent; the later
// Job.Close re-runs both steps harmlessly (endpoint Close is idempotent on
// every built-in fabric).
func (j *Job) crashNow() {
	j.crashOnce.Do(func() {
		j.shutdown()
		if j.cancel != nil {
			j.cancel()
		}
		j.net.Close()
	})
}

// Get returns the next sample of this worker's schedule. It blocks until
// the sample is staged and returns false when the run is complete. A fatal
// prefetch error surfaces as err; canceling ctx (which must be non-nil)
// unblocks the call with ctx's error. It releases the last step's samples.
func (j *Job) Get(ctx context.Context) (Sample, bool, error) {
	j.release()
	return j.next(ctx)
}

// release returns the last step's recycled buffers to the free list.
func (j *Job) release() {
	j.staging.Release(j.held...)
	j.held = j.held[:0]
}

// next is the one delivery body behind Get, GetBatch and Samples.
func (j *Job) next(ctx context.Context) (Sample, bool, error) {
	e, ok := j.staging.TryPop(ctx)
	var err error
	if !ok { // only a Pop that blocks reads the clock
		start := time.Now()
		e, err = j.staging.Pop(ctx)
		stalled := time.Since(start)
		j.stallNanos.Add(int64(stalled))
		j.met.stall(stalled.Seconds())
	}
	if err != nil {
		if fatal := j.fatalErr(); fatal != nil {
			return Sample{}, false, fatal
		}
		if err != storage.ErrClosed {
			return Sample{}, false, err // ctx cancellation
		}
		return Sample{}, false, nil // clean end of stream (or Close)
	}
	j.delivered.Add(1)
	j.met.deliver()
	j.met.stagingBytes(j.staging)
	src := Source(j.sources[e.Pos])
	if src == SourcePFS && j.recycles(e.ID) {
		j.held = append(j.held, e.Data)
	}
	if j.opts.VerifySamples {
		if err := dataset.VerifySample(int(e.ID), e.Data); err != nil {
			return Sample{}, false, err
		}
	}
	epoch, iter := j.epochIter(e.Pos)
	s := Sample{
		ID:        int(e.ID),
		Label:     j.ds.Label(int(e.ID)),
		Data:      e.Data,
		Epoch:     epoch,
		Iteration: iter,
		Source:    src,
	}
	if e.Pos == len(j.stream)-1 {
		j.staging.Close()
		if j.crashEpoch >= 0 {
			// This rank's schedule ends at its crash: enact it now, so
			// peers see a dead endpoint rather than a rank idling at a
			// barrier until teardown.
			j.crashNow()
		}
	}
	return s, true, nil
}

// Samples returns the worker's sample stream as a range-over-func iterator:
//
//	for s, err := range job.Samples(ctx) {
//	        if err != nil { return err }
//	        train(s)
//	}
//
// The sequence ends when the schedule is exhausted; a fatal prefetch error
// or a context cancellation is yielded once as the final element's err.
// Each step releases the last one's sample. The iterator is single-use and
// not safe for concurrent iteration (each worker owns one Job).
func (j *Job) Samples(ctx context.Context) iter.Seq2[Sample, error] {
	return func(yield func(Sample, error) bool) {
		for {
			s, ok, err := j.Get(ctx)
			if err != nil {
				yield(Sample{}, err)
				return
			}
			if !ok || !yield(s, nil) {
				return
			}
		}
	}
}

// GetBatch pulls up to n samples (n <= 0 means the configured
// BatchPerWorker) — the per-worker minibatch shape of the paper's training
// loop. The final batch of a run may be short; a nil, nil return means the
// schedule is exhausted. On error the samples delivered before the failure
// are returned alongside it. It releases the last step's samples.
func (j *Job) GetBatch(ctx context.Context, n int) ([]Sample, error) {
	if n <= 0 {
		n = j.opts.BatchPerWorker // at least 1 (Options.withDefaults)
	}
	j.release()
	batch := make([]Sample, 0, n)
	for len(batch) < n {
		s, ok, err := j.next(ctx)
		if err != nil {
			return batch, err
		}
		if !ok {
			break
		}
		batch = append(batch, s)
	}
	if len(batch) == 0 {
		return nil, nil
	}
	return batch, nil
}

// StreamLen returns the total number of samples this worker will consume.
func (j *Job) StreamLen() int { return len(j.stream) }

// IterationsPerEpoch returns the worker's batches per epoch.
func (j *Job) IterationsPerEpoch() int { return j.perEpoch / j.opts.BatchPerWorker }

// Rank returns this worker's rank in the cluster.
func (j *Job) Rank() int { return j.rank }

// Stats snapshots the worker's counters.
func (j *Job) Stats() Stats {
	var cached int64
	for _, b := range j.backends {
		cached += b.Used()
	}
	return Stats{
		Rank: j.rank,
		Fetches: map[Source]int64{
			SourcePFS:    j.fetches[SourcePFS].Load(),
			SourceRemote: j.fetches[SourceRemote].Load(),
			SourceLocal:  j.fetches[SourceLocal].Load(),
		},
		RemoteFalsePositives: j.falsePos.Load(),
		StallSeconds:         float64(j.stallNanos.Load()) / 1e9,
		Delivered:            j.delivered.Load(),
		CachedBytes:          cached,
		PFSReads:             j.pfsReads.Load(),
		PFSCoalesced:         j.pfsCoalesced.Load(),
		Retries:              j.retries.Load(),
		RedistributedRounds:  j.redistributed,
	}
}

// Close stops the prefetchers, cancels the job's lifetime context, and
// releases the fabric endpoint. Safe to call after the stream is exhausted
// or mid-run; it returns only after every prefetcher goroutine has exited.
//
//lint:ignore ctxfirst idiomatic io.Closer: shutdown()+cancel above the Wait stop every prefetcher, so the join is bounded
func (j *Job) Close() error {
	j.shutdown()
	if j.cancel != nil {
		j.cancel()
	}
	j.wg.Wait()
	return j.net.Close()
}
