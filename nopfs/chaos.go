package nopfs

import (
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/internal/clock"
	"repro/internal/storage"
	"repro/internal/transport"
)

// This file is the live middleware's half of the fault-injection contract
// (internal/chaos). Each fault that acts on one call is a decorator on the
// seam that call already crosses; the Job's fetch path knows none of them:
//
//   - chaosFabric decorates the run's Fabric, adding deterministic-rate
//     latency/jitter and transient fetch failures to every remote call;
//   - throttledBackend decorates a degraded class's StorageBackend, pacing
//     its reads through a storage.Limiter whose rate follows the schedule
//     epoch by epoch.
//
// The two faults that act on a rank's whole pipeline stay in the Job: it
// paces straggler ranks by stretching each fetch to Factor× its measured
// duration, and it enacts node crashes — the crashed rank delivers only
// its pre-crash prefix and then closes its fabric endpoint, while survivors
// absorb its orphaned plan rounds via the shared chaos.RedistributeStream
// rule (see Job's crash handling in job.go).
//
// The empty profile installs none of this: no schedule is compiled and no
// decorator is built (TestChaosEmptyProfileInstallsNothing).

// errChaosDrop is the injected transient fabric failure. Jobs classify it
// as transient: with a resilience policy it is retried with backoff, and
// on exhaustion (or with the zero policy, immediately) the fetch falls
// back to the PFS, so a dropped fetch degrades throughput without failing
// the run.
var errChaosDrop = errors.New("nopfs: chaos: injected transient fabric failure")

// chaosFabric wraps a fabric so every built endpoint injects faults.
type chaosFabric struct {
	inner Fabric
	sched *chaos.Schedule
}

// Name reports the inner fabric's registry name: fault injection is a
// decorator, not a different transport.
func (f chaosFabric) Name() string { return f.inner.Name() }

func (f chaosFabric) Build(ctx context.Context, workers int, interconnectMBps float64) ([]Endpoint, error) {
	eps, err := f.inner.Build(ctx, workers, interconnectMBps)
	if err != nil {
		return nil, err
	}
	out := make([]Endpoint, len(eps))
	for i, ep := range eps {
		out[i] = &chaosEndpoint{Network: ep, sched: f.sched}
	}
	return out, nil
}

// chaosEndpoint injects per-call latency/jitter and transient failures. The
// fault draw is the schedule's stateless function of (rank, call index); the
// call index is a local counter, so the live failure *rate* matches the
// profile while the exact failing calls vary with scheduling — live runs
// measure wall-clock effects, not schedules.
type chaosEndpoint struct {
	transport.Network
	sched *chaos.Schedule
	calls atomic.Uint64
}

func (e *chaosEndpoint) Call(ctx context.Context, to int, req transport.Request) (transport.Response, error) {
	delay, fail := e.sched.FabricCall(e.Rank(), e.calls.Add(1)-1)
	if err := clock.Sleep(ctx, clock.Real, time.Duration(delay*float64(time.Second))); err != nil {
		return transport.Response{}, err
	}
	// Only sample fetches fail transiently: the setup allgather is control
	// plane (real launchers retry it to death), and failing it would turn a
	// degraded-performance scenario into a failed run.
	if fail && req.Kind == transport.KindFetch {
		return transport.Response{}, errChaosDrop
	}
	return e.Network.Call(ctx, to, req)
}

// throttledBackend paces reads from one degraded storage class: hits wait
// on a storage.Limiter at base/factor MB/s, so the rank's own reads and the
// reads it serves to peers pay the degradation in one place — the class's
// bandwidth is degraded, not just the owner's view of it. A class with no
// configured bandwidth is throttled against chaos.DefaultLiveTierMBps.
//
// The backend has no stream position, so a read pays the schedule's factor
// at the epoch of the rank's staging progress (progressEpoch). A staged
// fetch that runs ahead of that progress across an epoch boundary therefore
// pays the ending epoch's factor: at most StagingThreads fetches per
// boundary, in runs whose chaos timing is wall-clock and asserted only as
// envelopes.
type throttledBackend struct {
	StorageBackend
	sched         *chaos.Schedule
	class         int
	progressEpoch func() int
	baseMBps      float64
	lim           *storage.Limiter
	// mu couples the factor check with the rate update: concurrent fetches
	// straddling an epoch boundary must not leave the limiter's rate
	// disagreeing with the recorded factor.
	mu  sync.Mutex
	cur float64
}

// throttleDegraded wraps class ci's backend in the schedule's degradation;
// a class the schedule never degrades (or a nil schedule) gets b itself
// back.
func throttleDegraded(b StorageBackend, sched *chaos.Schedule, ci int, class Class,
	progressEpoch func() int, reg *MetricsRegistry) StorageBackend {
	if !slices.Contains(sched.DegradedClasses(), ci) {
		return b
	}
	base := class.ReadMBps
	if base <= 0 {
		base = chaos.DefaultLiveTierMBps
	}
	t := &throttledBackend{StorageBackend: b, sched: sched, class: ci, progressEpoch: progressEpoch,
		baseMBps: base, lim: storage.NewLimiter(base)}
	observeLimiter(reg, t.lim, "tier:"+class.Name)
	return t
}

// Get reads through to the class and paces a hit at the current degraded
// rate. factor <= 1 passes unthrottled (the limiter at base rate would
// still pace runs whose class declared no bandwidth at all, changing
// fault-free behaviour).
func (t *throttledBackend) Get(ctx context.Context, id int32) ([]byte, bool, error) {
	data, ok, err := t.StorageBackend.Get(ctx, id)
	if err != nil || !ok {
		return data, ok, err
	}
	factor := t.sched.TierFactor(t.class, t.progressEpoch())
	if factor <= 1 {
		return data, true, nil
	}
	t.mu.Lock()
	if factor != t.cur {
		t.cur = factor
		t.lim.SetRate(t.baseMBps / factor)
	}
	t.mu.Unlock()
	if err := t.lim.Wait(ctx, int64(len(data))); err != nil {
		return nil, false, err
	}
	return data, true, nil
}
