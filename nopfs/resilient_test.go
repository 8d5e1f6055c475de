package nopfs

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/resilience"
	"repro/internal/transport"
)

// scriptedEndpoint is a 3-rank fake fabric endpoint (this is rank 0) whose
// Call answers from reply and logs what reached it.
type scriptedEndpoint struct {
	nullEndpoint
	reply func(ctx context.Context, to int, req transport.Request) (transport.Response, error)
	mu    sync.Mutex
	calls []string // "<kind>→<peer>" per call that reached this endpoint
}

func (e *scriptedEndpoint) Size() int { return 3 }

func (e *scriptedEndpoint) Call(ctx context.Context, to int, req transport.Request) (transport.Response, error) {
	e.mu.Lock()
	e.calls = append(e.calls, fmt.Sprintf("%s→%d", kindName(req.Kind), to))
	e.mu.Unlock()
	return e.reply(ctx, to, req)
}

// resilientHarness wraps a scripted endpoint in policy p with free backoff
// sleeps, and records every observer event.
type resilientHarness struct {
	inner       *scriptedEndpoint
	ep          Endpoint
	mu          sync.Mutex // the observers run on the callers' goroutines
	retries     []int      // the failed attempt number of each retry
	sleeps      []time.Duration
	transitions []string // "<peer>:<from>><to>"
}

func newResilientHarness(p ResiliencePolicy, reply func(context.Context, int, transport.Request) (transport.Response, error)) *resilientHarness {
	h := &resilientHarness{inner: &scriptedEndpoint{reply: reply}}
	h.ep = withResilience(h.inner, p, 42, resilience.Hooks{
		OnRetry: func(attempt int, _ error) {
			h.mu.Lock()
			defer h.mu.Unlock()
			h.retries = append(h.retries, attempt)
		},
		Clock: sleepLog{h},
	}, func(peer int, from, to resilience.BreakerState) {
		h.mu.Lock()
		defer h.mu.Unlock()
		h.transitions = append(h.transitions, fmt.Sprintf("%d:%s>%s", peer, from, to))
	})
	return h
}

// sleepLog is the harness's backoff clock: it stands still, and each wait
// returns at once, logging its duration.
type sleepLog struct{ h *resilientHarness }

func (sleepLog) Now() time.Time { return time.Unix(0, 0) }

func (c sleepLog) WaitUntil(ctx context.Context, t time.Time, _ <-chan struct{}) error {
	c.h.mu.Lock()
	defer c.h.mu.Unlock()
	c.h.sleeps = append(c.h.sleeps, t.Sub(time.Unix(0, 0)))
	return ctx.Err()
}

var fetch7 = transport.Request{Kind: transport.KindFetch, Sample: 7}

func TestResilientEndpointRetriesTransientThenSurfaces(t *testing.T) {
	flaky := errors.New("flaky")
	h := newResilientHarness(ResiliencePolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond, Multiplier: 2},
		func(context.Context, int, transport.Request) (transport.Response, error) {
			return transport.Response{}, flaky
		})
	if _, err := h.ep.Call(bg, 1, fetch7); err != flaky {
		t.Fatalf("err = %v, want the transient error once the attempts are spent", err)
	}
	if got := fmt.Sprint(h.inner.calls); got != "[fetch→1 fetch→1 fetch→1]" {
		t.Errorf("inner calls = %s, want MaxAttempts = 3 fetches", got)
	}
	if got := fmt.Sprint(h.retries); got != "[0 1]" {
		t.Errorf("retry observer saw attempts %s, want exactly [0 1]", got)
	}
	if got := fmt.Sprint(h.sleeps); got != "[1ms 2ms]" {
		t.Errorf("backoff sleeps = %s, want [1ms 2ms]", got)
	}
	if len(h.transitions) != 0 {
		t.Errorf("transitions without a breaker threshold: %v", h.transitions)
	}
}

func TestResilientEndpointNeverRetriesAMiss(t *testing.T) {
	h := newResilientHarness(DefaultResilience(),
		func(context.Context, int, transport.Request) (transport.Response, error) {
			return transport.Response{OK: false}, nil
		})
	resp, err := h.ep.Call(bg, 2, fetch7)
	if err != nil || resp.OK {
		t.Fatalf("miss = (%+v, %v), want (OK=false, nil)", resp, err)
	}
	if len(h.inner.calls) != 1 || len(h.retries) != 0 || len(h.transitions) != 0 {
		t.Errorf("a miss cost %d calls, %d retries, transitions %v; want 1, 0, none",
			len(h.inner.calls), len(h.retries), h.transitions)
	}
}

// TestResilientEndpointOpensCircuitPerPeer: the threshold's worth of
// unreachable answers opens that peer's circuit — observed once — after
// which a fetch to it fails fast without reaching the fabric, while other
// peers, and the control plane to the same peer, still get through.
func TestResilientEndpointOpensCircuitPerPeer(t *testing.T) {
	p := ResiliencePolicy{MaxAttempts: 3, BreakerThreshold: 3, BreakerCooldown: time.Hour}
	h := newResilientHarness(p, func(_ context.Context, to int, req transport.Request) (transport.Response, error) {
		if to == 1 && req.Kind == transport.KindFetch {
			return transport.Response{}, transport.ErrUnreachable
		}
		return transport.Response{OK: true, Value: 99}, nil
	})
	for i := 0; i < p.BreakerThreshold; i++ {
		if _, err := h.ep.Call(bg, 1, fetch7); !errors.Is(err, transport.ErrUnreachable) {
			t.Fatalf("call %d: err = %v, want ErrUnreachable", i, err)
		}
	}
	if len(h.inner.calls) != p.BreakerThreshold || len(h.retries) != 0 {
		t.Fatalf("%d inner calls and %d retries; an unreachable peer fails fast: want %d and 0",
			len(h.inner.calls), len(h.retries), p.BreakerThreshold)
	}
	if _, err := h.ep.Call(bg, 1, fetch7); !errors.Is(err, resilience.ErrCircuitOpen) {
		t.Fatalf("err = %v on an open circuit, want ErrCircuitOpen", err)
	}
	if len(h.inner.calls) != p.BreakerThreshold {
		t.Error("a call on an open circuit reached the inner endpoint")
	}
	if got := fmt.Sprint(h.transitions); got != "[1:closed>open]" {
		t.Errorf("transitions = %s, want exactly [1:closed>open]", got)
	}
	if resp, err := h.ep.Call(bg, 2, fetch7); err != nil || !resp.OK {
		t.Errorf("peer 2 behind peer 1's open circuit: (%+v, %v)", resp, err)
	}
	if resp, err := h.ep.Call(bg, 1, transport.Request{Kind: transport.KindValue}); err != nil || resp.Value != 99 {
		t.Errorf("allgather to a circuit-open peer: (%+v, %v), want it to pass through", resp, err)
	}
}

// TestResilientEndpointConcurrentCallers: the staging threads share one
// decorator. However their failures interleave, the peer's circuit opens
// once, and no call admitted before it opened is lost or doubled.
func TestResilientEndpointConcurrentCallers(t *testing.T) {
	const callers, each = 8, 20
	p := ResiliencePolicy{MaxAttempts: 2, BreakerThreshold: 3, BreakerCooldown: time.Hour}
	h := newResilientHarness(p, func(context.Context, int, transport.Request) (transport.Response, error) {
		return transport.Response{}, transport.ErrUnreachable
	})
	var wg sync.WaitGroup
	var reached, refused atomic.Int64
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				switch _, err := h.ep.Call(bg, 1, fetch7); {
				case errors.Is(err, resilience.ErrCircuitOpen):
					refused.Add(1)
				case errors.Is(err, transport.ErrUnreachable):
					reached.Add(1)
				default:
					t.Errorf("err = %v", err)
				}
			}
		}()
	}
	wg.Wait()
	if got := fmt.Sprint(h.transitions); got != "[1:closed>open]" {
		t.Errorf("transitions = %s, want exactly [1:closed>open]", got)
	}
	if n := int64(len(h.inner.calls)); n != reached.Load() || n < int64(p.BreakerThreshold) || reached.Load()+refused.Load() != callers*each {
		t.Errorf("%d calls reached the fabric, %d returned its error, %d were refused; want reached = returned >= %d and all %d accounted for",
			n, reached.Load(), refused.Load(), p.BreakerThreshold, callers*each)
	}
}

// TestResilientEndpointPassesControlPlaneThrough: a KindValue call is
// neither retried nor fed to the breaker.
func TestResilientEndpointPassesControlPlaneThrough(t *testing.T) {
	flaky := errors.New("flaky")
	h := newResilientHarness(ResiliencePolicy{MaxAttempts: 3, BreakerThreshold: 1, BreakerCooldown: time.Hour},
		func(_ context.Context, _ int, req transport.Request) (transport.Response, error) {
			if req.Kind == transport.KindValue {
				return transport.Response{}, flaky
			}
			return transport.Response{OK: true}, nil
		})
	for i := 0; i < 2; i++ {
		if _, err := h.ep.Call(bg, 1, transport.Request{Kind: transport.KindValue}); err != flaky {
			t.Fatalf("err = %v, want the inner error untouched", err)
		}
	}
	if got := fmt.Sprint(h.inner.calls); got != "[value→1 value→1]" {
		t.Errorf("inner calls = %s, want one per KindValue call", got)
	}
	if len(h.retries) != 0 || len(h.transitions) != 0 {
		t.Errorf("control-plane failures fed the policy: retries %v, transitions %v", h.retries, h.transitions)
	}
	if resp, err := h.ep.Call(bg, 1, fetch7); err != nil || !resp.OK {
		t.Errorf("fetch after control-plane failures = (%+v, %v): the breaker counted them", resp, err)
	}
}

// TestResilientEndpointOutOfRangePeer: a fetch to a rank the fabric does
// not have returns the fabric's own error, with a policy as without one,
// and never reaches a breaker.
func TestResilientEndpointOutOfRangePeer(t *testing.T) {
	for _, c := range []struct {
		name   string
		policy ResiliencePolicy
	}{{"no policy", ResiliencePolicy{}}, {"default policy", DefaultResilience()}} {
		t.Run(c.name, func(t *testing.T) {
			eps := transport.NewChanNetwork(2, nil)
			defer eps[0].Close()
			defer eps[1].Close()
			var transitions atomic.Int64
			ep := withResilience(eps[0], c.policy, 42, resilience.Hooks{},
				func(int, resilience.BreakerState, resilience.BreakerState) { transitions.Add(1) })
			for _, to := range []int{-1, 2, 99} {
				want := fmt.Sprintf("transport: rank %d out of range", to)
				for i := 0; i < 4; i++ { // past the default breaker's threshold
					if _, err := ep.Call(bg, to, fetch7); err == nil || err.Error() != want {
						t.Fatalf("fetch to rank %d: err = %v, want %q", to, err, want)
					}
				}
			}
			if transitions.Load() != 0 {
				t.Errorf("out-of-range fetches moved a breaker %d times", transitions.Load())
			}
		})
	}
}

// TestResilientEndpointAllocsLikeBareEndpoint pins the prepared policy's
// cost: a successful fetch through the default policy allocates exactly
// what the same fetch on the bare chan endpoint does. A deadline context
// built per attempt costs five more.
func TestResilientEndpointAllocsLikeBareEndpoint(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what the runtime allocates")
	}
	eps := transport.NewChanNetwork(2, nil)
	defer eps[0].Close()
	defer eps[1].Close()
	eps[1].SetHandler(func(context.Context, int, transport.Request) transport.Response {
		return transport.Response{OK: true}
	})
	resilient := withResilience(eps[0], DefaultResilience(), 42, resilience.Hooks{},
		func(int, resilience.BreakerState, resilience.BreakerState) {})
	allocs := func(ep Endpoint) float64 {
		return testing.AllocsPerRun(200, func() {
			if resp, err := ep.Call(bg, 1, fetch7); err != nil || !resp.OK {
				t.Fatalf("fetch = (%+v, %v)", resp, err)
			}
		})
	}
	bare, prepared := allocs(eps[0]), allocs(resilient)
	if prepared != bare {
		t.Errorf("a fetch allocates %.0f times under the default policy and %.0f on the bare endpoint; want equal",
			prepared, bare)
	}
}

func TestResilientEndpointReturnsCallerCancellationAsIs(t *testing.T) {
	ctx, cancel := context.WithCancel(bg)
	h := newResilientHarness(DefaultResilience(),
		func(ctx context.Context, _ int, _ transport.Request) (transport.Response, error) {
			cancel() // the caller goes away mid-call
			<-ctx.Done()
			return transport.Response{}, ctx.Err()
		})
	if _, err := h.ep.Call(ctx, 1, fetch7); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled itself", err)
	}
	if len(h.inner.calls) != 1 || len(h.retries) != 0 || len(h.sleeps) != 0 || len(h.transitions) != 0 {
		t.Errorf("a canceled caller cost %d calls, retries %v, sleeps %v, transitions %v; want 1 and none",
			len(h.inner.calls), h.retries, h.sleeps, h.transitions)
	}
}
