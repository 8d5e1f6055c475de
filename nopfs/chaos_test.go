package nopfs

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/access"
	"repro/internal/chaos"
	"repro/internal/metrics"
	"repro/internal/plancache"
	"repro/internal/storage"
	"repro/internal/transport"
)

// chaosProfile is the standard live fault mix: a straggler rank, a degraded
// RAM tier, a degraded PFS, and a flaky fabric. (No crashes: those are
// simulator-only and ignored live.)
func chaosProfile() ChaosProfile {
	return ChaosProfile{
		Name:       "live-test",
		Stragglers: []chaos.Straggler{{Worker: 1, Factor: 2, FromEpoch: 1}},
		Tiers: []chaos.TierDegradation{
			{Class: 0, Factor: 3, FromEpoch: 1},
			{Class: chaos.PFSTier, Factor: 2},
		},
		Fabric: chaos.FabricFault{LatencySeconds: 0.0002, JitterSeconds: 0.0003, FailRate: 0.05},
	}
}

// TestChaosClusterDeliversExactSchedule pins the core chaos contract on the
// live path: under stragglers, degraded tiers, and a flaky fabric, every
// worker still receives exactly its clairvoyant stream — faults degrade
// timing, never correctness.
func TestChaosClusterDeliversExactSchedule(t *testing.T) {
	ds := testDataset(t, 96)
	opts := baseOptions()
	opts.Chaos = chaosProfile()
	const workers = 3
	delivered, stats := runAndCollect(t, ds, workers, opts)

	plan := &access.Plan{
		Seed: opts.Seed, F: ds.Len(), N: workers, E: opts.Epochs,
		BatchPerWorker: opts.BatchPerWorker, DropLast: opts.DropLast,
	}
	for w := 0; w < workers; w++ {
		want := plan.WorkerStream(w)
		if len(delivered[w]) != len(want) {
			t.Fatalf("worker %d delivered %d samples under chaos, want %d", w, len(delivered[w]), len(want))
		}
		for i := range want {
			if delivered[w][i] != int(want[i]) {
				t.Fatalf("worker %d position %d: got %d, want %d", w, i, delivered[w][i], want[i])
			}
		}
	}
	for _, s := range stats {
		if s.StallSeconds < 0 {
			t.Errorf("rank %d negative stall under chaos", s.Rank)
		}
	}
}

// TestChaosFabricDropsFallBackToPFS checks injected transient fabric
// failures surface as remote-miss fallbacks, not run failures.
func TestChaosFabricDropsFallBackToPFS(t *testing.T) {
	ds := testDataset(t, 96)
	opts := baseOptions()
	opts.Epochs = 4
	opts.Chaos = ChaosProfile{
		Fabric: chaos.FabricFault{FailRate: 0.5},
	}
	delivered, stats := runAndCollect(t, ds, 3, opts)
	for w := range delivered {
		if len(delivered[w]) == 0 {
			t.Fatalf("worker %d starved under fabric drops", w)
		}
	}
	var falsePos int64
	for _, s := range stats {
		falsePos += s.RemoteFalsePositives
	}
	if falsePos == 0 {
		t.Error("a 50% fabric drop rate produced no remote-miss fallbacks")
	}
}

// TestChaosStragglerSlowsOnlyItsRank compares a clean run against one with
// a heavily straggling rank: the run still completes and the straggler's
// pacing does not corrupt any other rank's schedule.
func TestChaosStragglerSlowsOnlyItsRank(t *testing.T) {
	ds := testDataset(t, 48)
	opts := baseOptions()
	opts.Epochs = 2
	opts.Chaos = ChaosProfile{
		Stragglers: []chaos.Straggler{{Worker: 1, Factor: 3}},
	}
	delivered, _ := runAndCollect(t, ds, 2, opts)
	total := 0
	for _, ids := range delivered {
		total += len(ids)
	}
	if total != 48*2 {
		t.Fatalf("delivered %d samples, want 96", total)
	}
}

// builtBackends records what the "test-recording" backend kind returned, by
// class name, so a test can tell the factory's own value from a decorator
// around it. Registered once: the kind registry refuses duplicates and
// `make test-race` runs this file -count=5.
var builtBackends sync.Map

func init() {
	RegisterBackend("test-recording", func(_ context.Context, _ int, c Class) (StorageBackend, error) {
		b := storage.NewMemory(c.Name, c.CapacityBytes, nil, nil)
		builtBackends.Store(c.Name, b)
		return b, nil
	})
}

// TestChaosEmptyProfileInstallsNothing pins "absent when the policy is
// zero" as identities, not prose: with the empty chaos profile, the zero
// resilience policy and no registry, the job's endpoint is the very value
// handed to newJob and each class backend is the very value its factory
// returned — nothing is compiled, wrapped or throttled. The converse rows
// pin that each policy wraps exactly its own seam.
func TestChaosEmptyProfileInstallsNothing(t *testing.T) {
	ds := testDataset(t, 32)
	for _, c := range []struct {
		name       string
		chaos      string
		resilience ResiliencePolicy
		netWrapped bool
		throttled  [2]bool
	}{
		{name: "all zero"},
		{name: "default resilience", resilience: DefaultResilience(), netWrapped: true},
		{name: "degraded class 0", chaos: "tier:0x4@1", throttled: [2]bool{true, false}},
	} {
		t.Run(c.name, func(t *testing.T) {
			profile, err := chaos.ParseProfile(c.chaos)
			if err != nil {
				t.Fatal(err)
			}
			opts := baseOptions()
			opts.Classes = []Class{
				{Name: t.Name() + "/ram", CapacityBytes: 64 << 10, Threads: 1, Backend: "test-recording"},
				{Name: t.Name() + "/ssd", CapacityBytes: 64 << 10, Threads: 1, Backend: "test-recording"},
			}
			opts.Chaos, opts.Resilience = profile, c.resilience
			opts = opts.withDefaults()
			ep := &nullEndpoint{}
			j, err := newJob(bg, ds, 0, 1, opts, ep, nil, plancache.New(0, 0))
			if err != nil {
				t.Fatal(err)
			}
			if (j.chaosSched != nil) != (c.chaos != "") {
				t.Errorf("chaosSched = %v under profile %q", j.chaosSched, c.chaos)
			}
			if re, wrapped := j.net.(*resilientEndpoint); wrapped != c.netWrapped {
				t.Errorf("Job.net is a %T, want wrapped = %v", j.net, c.netWrapped)
			} else if wrapped && re.Network != Endpoint(ep) {
				t.Error("the resilience decorator does not wrap the endpoint passed to newJob")
			} else if !wrapped && j.net != Endpoint(ep) {
				t.Error("Job.net is not the endpoint passed to newJob")
			}
			for i, b := range j.backends {
				built, _ := builtBackends.Load(opts.Classes[i].Name)
				if tb, wrapped := b.(*throttledBackend); wrapped != c.throttled[i] {
					t.Errorf("backend %d is a %T, want throttled = %v", i, b, c.throttled[i])
				} else if wrapped && tb.StorageBackend != built {
					t.Errorf("backend %d's throttle does not wrap the factory's value", i)
				} else if !wrapped && b != built {
					t.Errorf("backend %d is not the value its factory returned", i)
				}
			}
		})
	}
	var p ChaosProfile
	if p.Compile(1234) != nil {
		t.Error("empty profile compiled")
	}
}

// nullEndpoint satisfies Endpoint for single-worker job construction tests.
// It has a field so that two of them are two distinct pointers.
type nullEndpoint struct{ _ int }

func (*nullEndpoint) Rank() int                    { return 0 }
func (*nullEndpoint) Size() int                    { return 1 }
func (*nullEndpoint) SetHandler(transport.Handler) {}
func (*nullEndpoint) Close() error                 { return nil }
func (*nullEndpoint) Call(context.Context, int, transport.Request) (transport.Response, error) {
	return transport.Response{}, transport.ErrClosed
}

// TestChaosCancelTearsDownCleanly verifies the chaos decorators (fabric
// sleeps, tier throttles, straggler pacing) all honour cancellation: no
// goroutine outlives a canceled chaotic cluster.
func TestChaosCancelTearsDownCleanly(t *testing.T) {
	before := runtime.NumGoroutine()
	ds := testDataset(t, 96)
	opts := baseOptions()
	opts.Epochs = 4
	opts.PFSAggregateMBps = 4 // park prefetchers in limiter waits
	opts.Chaos = chaosProfile()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := RunCluster(ctx, ds, 3, opts, func(ctx context.Context, j *Job) error {
			n := 0
			for _, err := range j.Samples(ctx) {
				if err != nil {
					return err
				}
				if n++; n == 5 {
					cancel()
				}
			}
			return nil
		})
		done <- err
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("canceled chaotic cluster did not tear down in bounded time")
	}
	goroutinesSettle(t, before+2)
}

// ctxBlindBackend keeps a cancelled context away from the store underneath,
// so a test of the throttle's own wait is not answered by the store's.
type ctxBlindBackend struct{ StorageBackend }

func (b ctxBlindBackend) Get(_ context.Context, id int32) ([]byte, bool, error) {
	return b.StorageBackend.Get(bg, id)
}

// TestThrottledBackend pins what the degraded-tier decorator charges: only
// hits, only while the schedule's factor at the rank's progress epoch
// exceeds 1, at base/factor MB/s. Blocked time is read from the limiter's
// own wait counter, which reports a wait only if the caller really slept.
func TestThrottledBackend(t *testing.T) {
	const (
		baseMBps = 1.0
		size     = 4 << 10 // 3.9 ms at base rate, 15.6 ms at base/4
	)
	sched := ChaosProfile{Tiers: []chaos.TierDegradation{{Class: 0, Factor: 4, FromEpoch: 1}}}.Compile(1)
	class := Class{Name: "ram", ReadMBps: baseMBps}
	epoch := 0
	reg := NewMetricsRegistry()
	inner := ctxBlindBackend{storage.NewMemory(class.Name, 1<<20, nil, nil)}
	b := throttleDegraded(inner, sched, 0, class, func() int { return epoch }, reg)
	if _, ok := b.(*throttledBackend); !ok {
		t.Fatalf("degraded class 0 got a %T", b)
	}
	if other := throttleDegraded(inner, sched, 1, class, func() int { return epoch }, reg); other != StorageBackend(inner) {
		t.Fatalf("undegraded class 1 got a %T, want the backend itself", other)
	}
	waited := reg.Counter("nopfs_limiter_wait_seconds_total", "", metrics.L("limiter", "tier:ram")).Value

	epoch = 1 // factor 4 from here on
	if stored, err := b.Put(bg, 7, make([]byte, size)); err != nil || !stored {
		t.Fatalf("Put = (%v, %v)", stored, err)
	}
	if !b.Has(7) || b.Has(8) {
		t.Fatal("Has does not read through")
	}
	if _, ok, err := b.Get(bg, 8); ok || err != nil {
		t.Fatalf("miss = (ok %v, %v)", ok, err)
	}
	if w := waited(); w != 0 {
		t.Fatalf("Put, Has and a miss waited %gs, want none", w)
	}

	epoch = 0 // factor 1: a hit passes unpaced, even with a base rate set
	if data, ok, err := b.Get(bg, 7); !ok || err != nil || len(data) != size {
		t.Fatalf("hit at factor 1 = (%d bytes, ok %v, %v)", len(data), ok, err)
	}
	if w := waited(); w != 0 {
		t.Fatalf("a hit at factor 1 waited %gs, want none", w)
	}

	epoch = 1
	canceled, cancel := context.WithCancel(bg)
	cancel()
	if data, ok, err := b.Get(canceled, 7); data != nil || ok || !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled wait = (%d bytes, ok %v, %v), want (nil, false, context.Canceled)", len(data), ok, err)
	}
	if data, ok, err := b.Get(bg, 7); !ok || err != nil || len(data) != size {
		t.Fatalf("hit at factor 4 = (%d bytes, ok %v, %v)", len(data), ok, err)
	}
	// size bytes at base/4 take 15.6 ms; the limiter forgives its last 2 ms.
	if w, atBase := waited(), float64(size)/(baseMBps*(1<<20)); w < 3*atBase {
		t.Fatalf("a hit at factor 4 waited %gs, want about %gs (base/4), not %gs (base)", w, 4*atBase, atBase)
	}
}

// manualClock is a clock.Clock that moves only when the test advances it.
// A wait that has to wait parks: it reports its release instant, as an
// offset from the clock's start, on parked and returns once the clock
// reaches that instant or its context ends.
type manualClock struct {
	mu      sync.Mutex
	start   time.Time
	now     time.Time
	waiters map[chan struct{}]time.Time
	parked  chan time.Duration
}

func newManualClock() *manualClock {
	t0 := time.Unix(1_000_000, 0)
	return &manualClock{start: t0, now: t0, waiters: map[chan struct{}]time.Time{}, parked: make(chan time.Duration, 1)}
}

func (c *manualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *manualClock) WaitUntil(ctx context.Context, t time.Time, wake <-chan struct{}) error {
	c.mu.Lock()
	if !t.After(c.now) {
		c.mu.Unlock()
		return nil
	}
	done := make(chan struct{})
	c.waiters[done] = t
	c.mu.Unlock()
	c.parked <- t.Sub(c.start)
	select {
	case <-done:
		return nil
	case <-wake:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// advance moves the clock by d and releases every waiter it reaches.
func (c *manualClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
	for done, t := range c.waiters {
		if !t.After(c.now) {
			close(done)
			delete(c.waiters, done)
		}
	}
}

// TestChaosDelayWaitsOnTheFabricClock: a chaos endpoint waits out its
// injected delay on the clock its fabric was built with. A fetch parks at
// the delay the schedule draws for its position and attempt, is still
// parked 1 ns short of it, and goes through once the clock reaches it.
func TestChaosDelayWaitsOnTheFabricClock(t *testing.T) {
	sched := ChaosProfile{Fabric: chaos.FabricFault{LatencySeconds: 0.004, JitterSeconds: 0.003}}.Compile(5)
	clk := newManualClock()
	eps, err := chaosFabric{inner: chanFabric{}, sched: sched, clock: clk}.Build(bg, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer eps[0].Close()
	defer eps[1].Close()
	eps[1].SetHandler(func(context.Context, int, transport.Request) transport.Response {
		return transport.Response{OK: true}
	})
	const pos, attempt = 17, 2
	delay, _ := sched.FabricCall(0, pos, attempt)
	want := time.Duration(delay * float64(time.Second))
	done := make(chan error, 1)
	go func() {
		_, err := eps[0].Call(bg, 1, transport.Request{Kind: transport.KindFetch, Sample: 3, Value: pos | attempt<<attemptShift})
		done <- err
	}()
	select {
	case d := <-clk.parked:
		if d != want {
			t.Fatalf("the fetch parked for %v, its drawn delay is %v", d, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the fetch never parked on the fabric's clock")
	}
	clk.advance(want - 1)
	select {
	case err := <-done:
		t.Fatalf("the fetch returned (%v) 1 ns before its delay", err)
	default:
	}
	clk.advance(1)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("the fetch failed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the fetch stayed parked past its delay")
	}
}
