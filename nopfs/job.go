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
	"repro/internal/clock"
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

	assign *cachepolicy.Assignment
	// stream is the rank's delivery stream and epochEnds its cumulative
	// epoch ends: the plan's own, or a crash redistribution's unequal ones.
	// tags is the placement's source tag of every stream position
	// (cachepolicy.Tags): the fetch path follows it, as the simulator does.
	stream    []access.SampleID
	epochEnds []int
	tags      []byte

	backends []StorageBackend
	chunks   []chunks // per class: where a flight's payload is carved
	staging  *storage.Staging
	net      Endpoint
	pfs      *storage.Limiter // the shared filesystem's bandwidth

	// chaosSched is the compiled fault schedule (nil for fault-free runs).
	chaosSched *chaos.Schedule

	// Crash recovery: crashEpoch is this rank's own scheduled crash epoch
	// (-1 = survivor); redistributed is the plan-round count grafted from
	// crashed peers.
	crashEpoch    int
	redistributed int64
	crashOnce     sync.Once

	// ctx is the job's lifetime context: derived in Start from the caller's
	// context, canceled by Close. Prefetchers block under it, so cancellation
	// of either kind unwinds every blocking layer.
	ctx    context.Context
	cancel context.CancelFunc
	// unwatch deregisters Start's context.AfterFunc. Close calls it before
	// cancel: a cancel that fires the func starts a goroutine holding the
	// job, and with it every cache, past the end of RunCluster.
	unwatch func() bool

	progress atomic.Int64 // staging prefetch position (heuristic input)
	pos      atomic.Int64 // next stream position to claim

	rec record // the rank's own events, counted once; Stats and met read it
	// inflight coalesces this rank's concurrent fetches of one assigned
	// sample (see fetchSource).
	inflight flights

	// met is the rank's resolved metric series (nil when observability is
	// off; every method is nil-safe). epoch is the consumer's current
	// epoch: entering a new one folds rec into met.
	met   *jobMetrics
	epoch int

	// fatalMu guards fatal: fail() can run on any prefetcher goroutine
	// concurrently with the consumer reading the error in Get.
	fatalMu sync.Mutex
	fatal   error

	// sources records the fetch source per stream position so Get can
	// report it alongside the sample, with the recycled bit set when the
	// payload is in a staging free-list buffer. No lock: position p is
	// written before staging.Push(p) and read after staging.Pop returns p,
	// and the staging buffer's own mutex orders the two.
	sources []uint8

	held  [][]byte // recycled buffers the consumer's last step delivered
	batch []Sample // GetBatch's slice, overwritten by the next call

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
	// The delivery stream is the plan's, reshaped by the shared crash
	// redistribution rule (chaos.RedistributeStream — the same pure
	// function the simulator evaluates), so survivors absorb the crashed
	// ranks' orphaned plan rounds clairvoyantly and a crashed rank keeps
	// only its pre-crash prefix. Without a crash it is the plan's stream
	// and ends, untouched.
	sched := opts.Chaos.Compile(opts.Seed)
	stream, ends := sched.RedistributeStream(rank, workers,
		art.Streams[rank], art.EpochEnds[rank],
		func(w int) ([]access.SampleID, []int) { return art.Streams[w], art.EpochEnds[w] })
	j := &Job{
		rank: rank, opts: opts, ds: ds, plan: plan, digest: plan.Hash(),
		assign:        assign,
		chunks:        make([]chunks, len(opts.Classes)),
		stream:        stream,
		epochEnds:     ends,
		tags:          assign.Tags(rank, stream),
		sources:       make([]uint8, len(stream)),
		crashEpoch:    sched.CrashEpoch(rank, workers),
		redistributed: int64(chaos.RedistributedRounds(art.Streams[rank], stream)),
		staging:       storage.NewStaging(opts.StagingBytes),
		rec:           newRecord(len(opts.Classes)),
		pfs:           pfs,
		chaosSched:    sched,
		//lint:ignore ctxfirst placeholder lifetime before Start(ctx) installs the caller's context; never waited on
		ctx:    context.Background(),
		closed: make(chan struct{}),
		met:    newJobMetrics(opts.Metrics, rank, opts.Classes, opts.TraceFetches),
	}
	// The policies that act on one call decorate the seam it crosses and
	// are absent when unset: resilience on the endpoint, a degraded class's
	// throttle on its backend. The fetch path below knows neither.
	j.net = withResilience(net, opts.Resilience, opts.Seed, resilience.Hooks{
		OnRetry: func(int, error) { j.rec.retries.Add(1) },
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
	j.unwatch = context.AfterFunc(j.ctx, j.shutdown)

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
	if len(j.stream) == 0 && j.crashEpoch >= 0 {
		// The schedule crashes this rank before its first sample (say, an
		// elastic rank that would join at its crash epoch): it launches no
		// prefetcher, so it reads and caches nothing. Its endpoint closes
		// at the consumer's first Get (next), after the cluster's start
		// barrier, not here, where a peer may still be mid-allgather.
		j.shutdown()
		return nil
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
// digest exchanges. ctx is the fabric's (transport.Handler): on the chan
// fabric it is the caller's, so the throttled class reads and limiter waits
// below end when the calling rank gives up.
func (j *Job) handle(ctx context.Context, from int, req transport.Request) transport.Response {
	switch req.Kind {
	case transport.KindValue:
		return transport.Response{OK: true, Value: j.digest}
	case transport.KindFetch:
		// Only the class the placement assigns a sample to ever holds it.
		if k := req.Sample; k >= 0 && int(k) < j.plan.F {
			if c := j.assign.Local(j.rank, k); c >= 0 {
				if data, ok, err := j.backends[c].Get(ctx, k); err == nil && ok {
					return transport.Response{OK: true, Data: data}
				}
			}
		}
		return transport.Response{OK: false}
	}
	return transport.Response{}
}

// prefetchLookahead is how far (in stream positions) a class prefetcher may
// run ahead of the staging position, so the staging path usually finds an
// assigned sample in its class. Pacing only narrows the window in which both
// miss it (under a throttled PFS the first read sits in the limiter for
// milliseconds); the in-flight table in fetchSource makes them fetch it once.
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
			continue // staging passed the first access, and its fetch stores it
		}
		if _, _, _, err := j.fetchFrom(k, int(j.progress.Load()), fillTag, classRow); err != nil {
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
		data, src, recycled, err := j.fetchFrom(k, pos, j.tags[pos], stagingRow)
		if err != nil {
			j.fail(err)
			return
		}
		if j.met != nil {
			j.met.stagedFetch(pos, k, j.epochOf(pos), src, len(data), time.Since(fetchStart).Seconds())
		}
		j.sources[pos] = uint8(src)
		if recycled {
			j.sources[pos] |= recycledBit
		}
		if err := j.staging.Push(j.ctx, pos, k, data); err != nil {
			j.fail(err)
			return
		}
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

// epochOf maps a stream position to its training epoch: the first epoch
// whose end is past pos (clamped to the last epoch the stream has).
func (j *Job) epochOf(pos int) int {
	e := sort.SearchInts(j.epochEnds, pos+1)
	if e >= len(j.epochEnds) {
		e = len(j.epochEnds) - 1
	}
	return e
}

// epochIter maps a stream position to the (epoch, iteration) pair Get
// reports: the iteration is the offset into the epoch's chunk of the stream
// over the batch size.
func (j *Job) epochIter(pos int) (int, int) {
	e := j.epochOf(pos)
	start := 0
	if e > 0 {
		start = j.epochEnds[e-1]
	}
	return e, (pos - start) / j.opts.BatchPerWorker
}

// fetchFrom retrieves sample k for stream position pos (see fetchSource),
// applying the straggler fault pacing: on a straggler rank, every fetch is
// stretched to Factor× its measured duration, slowing the whole prefetch
// pipeline the way a slow node's I/O path would. The stretch waits on j.ctx,
// which every teardown that stops a running prefetcher cancels.
func (j *Job) fetchFrom(k access.SampleID, pos int, tag byte, issuer int) ([]byte, Source, bool, error) {
	if j.chaosSched == nil {
		return j.fetchSource(k, pos, tag, issuer)
	}
	epoch := j.epochOf(pos)
	start := time.Now()
	data, src, recycled, err := j.fetchSource(k, pos, tag, issuer)
	if err == nil {
		if factor := j.chaosSched.Slowdown(j.rank, epoch, j.plan.N); factor > 1 {
			_ = clock.Sleep(j.ctx, clock.Real, time.Duration(float64(time.Since(start))*(factor-1)))
		}
	}
	return data, src, recycled, err
}

// fetchSource retrieves sample k for stream position pos by the paper's
// source rule (Sec. 5.2), as the placement's tag for pos states it
// (cachepolicy.Tags; the simulator reads the same tags): the local class the
// low nibble names, else the holder the high nibble promises, else the PFS,
// which also takes every remote miss (Sec. 5.2.2). A class fill passes
// fillTag. The slot that serves a fetch counts it in the issuer's row.
//
// A sample this rank is assigned to cache has two would-be fetchers, its
// class prefetcher and the staging path, so its miss is one flight in the
// in-flight table: the leader re-checks the class (a fill that ran ahead of
// a first touch, or a flight that retired since the caller's probe, left it
// there), else fetches from the holder or the PFS into a slice carved from
// the class's chunks and stores what it got before it retires the flight.
// The re-check's hit and the callers who joined meanwhile count as
// coalesced locals. For recycled, see landed.
func (j *Job) fetchSource(k access.SampleID, pos int, tag byte, issuer int) ([]byte, Source, bool, error) {
	if j.isClosed() {
		return nil, SourcePFS, false, errJobClosed
	}
	slot, data, recycled, err := j.locate(k, pos, tag)
	if err != nil {
		return nil, SourcePFS, false, err // fail ignores it if our own context ended
	}
	j.rec.served[issuer][slot].Add(1)
	switch slot - len(j.backends) {
	case slotRemote:
		return data, SourceRemote, recycled, nil
	case slotPFS:
		return data, SourcePFS, recycled, nil
	}
	return data, SourceLocal, false, nil
}

// fillTag is a class fill's source tag: its class has missed already, and a
// peer that holds a copy by the staging position may serve it.
const fillTag = 0xf0

// locate is fetchSource's rule; it returns the record slot that served k.
func (j *Job) locate(k access.SampleID, pos int, tag byte) (int, []byte, bool, error) {
	if c := int(tag&0x0f) - 1; c >= 0 {
		if data, ok, err := j.backends[c].Get(j.ctx, k); err != nil || ok {
			return c, data, false, err
		}
	}
	// A holder the schedule says has crashed by this epoch is demoted to the
	// PFS without a call: the simulator's crashed-holder reroute
	// (sim.chaosAdjust), which never counts a false positive.
	holder := -1
	if tag>>4 != 0 {
		if _, h := j.assign.RemoteAvail(j.rank, k, int32(pos)); h >= 0 && !j.chaosSched.CrashedAt(h, j.epochOf(pos), j.plan.N) {
			holder = h
		}
	}
	c := j.assign.Local(j.rank, k)
	size := int(j.ds.Size(int(k)))
	if c < 0 { // only the staging path fetches an unassigned sample
		buf := j.staging.Buffer(size)
		slot, data, err := j.fetch(k, holder, buf)
		return slot, data, j.landed(data, buf, nil), err
	}
	slot := len(j.backends) + slotCoalesced
	f, leader := j.inflight.join(k)
	if !leader {
		data, err := f.wait(j.ctx)
		return slot, data, false, err
	}
	data, ok, err := j.backends[c].Get(j.ctx, k)
	if err == nil && !ok {
		b := j.backends[c]
		buf := j.chunks[c].carve(size, b.Capacity()-b.Used())
		slot, data, err = j.fetch(k, holder, buf)
		j.landed(data, buf, &j.chunks[c])
		if err == nil {
			_, err = b.Put(j.ctx, k, data)
		}
	}
	j.inflight.retire(k, data, err)
	return slot, data, false, err
}

// recycledBit marks a sources entry whose payload is in a staging
// free-list buffer (see landed).
const recycledBit = 0x80

// landed reports whether data was read into buf, the destination a fetch
// was given, and otherwise hands buf back: a carve to its class's chunks a,
// which retract it, or a staging buffer (a == nil) to the free list.
func (j *Job) landed(data, buf []byte, a *chunks) bool {
	if len(data) > 0 && cap(buf) > 0 && &data[0] == &buf[:1][0] {
		return true
	}
	if a != nil {
		a.retract(buf)
	} else {
		j.staging.Release(buf)
	}
	return false
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
		j.rec.stallNanos.Add(int64(time.Since(start)))
	}
	if err != nil {
		if fatal := j.fatalErr(); fatal != nil {
			return Sample{}, false, fatal
		}
		if err != storage.ErrClosed {
			return Sample{}, false, err // ctx cancellation
		}
		if j.crashEpoch >= 0 {
			j.crashNow() // already enacted at the last sample, unless none (see Start)
		}
		return Sample{}, false, nil // clean end of stream (or Close)
	}
	j.rec.delivered.Add(1)
	src := Source(j.sources[e.Pos] &^ recycledBit)
	if j.sources[e.Pos]&recycledBit != 0 {
		j.held = append(j.held, e.Data)
	}
	if j.opts.VerifySamples {
		if err := dataset.VerifySample(int(e.ID), e.Data); err != nil {
			return Sample{}, false, err
		}
	}
	epoch, iter := j.epochIter(e.Pos)
	if epoch != j.epoch {
		j.epoch = epoch
		j.met.fold(j)
	}
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
// are returned alongside it. It releases the last step's samples. The slice,
// like each Sample.Data, is valid until the next step: the next call
// overwrites it.
func (j *Job) GetBatch(ctx context.Context, n int) ([]Sample, error) {
	if n <= 0 {
		n = j.opts.BatchPerWorker // at least 1 (Options.withDefaults)
	}
	j.release()
	j.batch = j.batch[:0]
	for len(j.batch) < n {
		s, ok, err := j.next(ctx)
		if err != nil {
			return j.batch, err
		}
		if !ok {
			break
		}
		j.batch = append(j.batch, s)
	}
	if len(j.batch) == 0 {
		return nil, nil
	}
	return j.batch, nil
}

// StreamLen returns the total number of samples this worker will consume.
func (j *Job) StreamLen() int { return len(j.stream) }

// IterationsPerEpoch returns the worker's batches per epoch of the plan, a
// kept partial last batch included: the highest Sample.Iteration of an epoch
// plus one. Epochs of an elastic membership schedule or of a crash
// redistribution are unequal; for those it is the uniform plan's count.
func (j *Job) IterationsPerEpoch() int {
	return (j.plan.SamplesPerEpoch(j.rank) + j.opts.BatchPerWorker - 1) / j.opts.BatchPerWorker
}

// Rank returns this worker's rank in the cluster.
func (j *Job) Rank() int { return j.rank }

// Stats projects the worker's record.
func (j *Job) Stats() Stats {
	var cached int64
	for _, b := range j.backends {
		cached += b.Used()
	}
	c := len(j.backends)
	staged := func(slot int) int64 { return j.rec.sum(slot, slot+1, stagingRow) }
	return Stats{
		Rank: j.rank,
		Fetches: map[Source]int64{
			SourcePFS:    staged(c + slotPFS),
			SourceRemote: staged(c + slotRemote),
			SourceLocal:  j.rec.sum(0, c, stagingRow) + staged(c+slotCoalesced),
		},
		RemoteFalsePositives: j.rec.falsePos.Load(),
		StallSeconds:         float64(j.rec.stallNanos.Load()) / 1e9,
		Delivered:            j.rec.delivered.Load(),
		CachedBytes:          cached,
		PFSReads:             j.rec.sum(c+slotPFS, c+slotPFS+1, stagingRow, classRow),
		PFSCoalesced:         j.rec.sum(c+slotCoalesced, c+slotCoalesced+1, stagingRow, classRow),
		Retries:              j.rec.retries.Load(),
		RedistributedRounds:  j.redistributed,
	}
}

// Close stops the prefetchers, cancels the job's lifetime context, folds the
// record, and releases the fabric endpoint. Safe to call after the stream is
// exhausted or mid-run; it returns only after every prefetcher has exited.
//
//lint:ignore ctxfirst idiomatic io.Closer: shutdown()+cancel above the Wait stop every prefetcher, so the join is bounded
func (j *Job) Close() error {
	j.shutdown()
	if j.cancel != nil {
		j.unwatch()
		j.cancel()
	}
	j.wg.Wait()
	j.met.fold(j)
	return j.net.Close()
}
