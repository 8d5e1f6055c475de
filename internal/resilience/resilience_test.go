package resilience

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/transport"
)

func TestPolicyEmptyAndValidate(t *testing.T) {
	if !(Policy{}).Empty() {
		t.Fatal("zero policy should be empty")
	}
	if Default().Empty() {
		t.Fatal("default policy should not be empty")
	}
	if err := Default().Validate(); err != nil {
		t.Fatalf("default policy invalid: %v", err)
	}
	bad := []Policy{
		{MaxAttempts: -1},
		{BaseBackoff: -time.Millisecond},
		{Multiplier: -1},
		{JitterFrac: -0.1},
		{JitterFrac: 1},
		{BreakerThreshold: -2},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: policy %+v validated", i, p)
		}
	}
}

func TestParsePolicyRoundTrip(t *testing.T) {
	cases := []string{
		"none",
		"retries:3,backoff:1ms..32ms,jitter:0.25,timeout:250ms,breaker:3@50ms",
		"retries:2,backoff:5ms",
		"breaker:4@1s",
		"timeout:10ms",
	}
	for _, spec := range cases {
		p, err := ParsePolicy(spec)
		if err != nil {
			t.Fatalf("ParsePolicy(%q): %v", spec, err)
		}
		p2, err := ParsePolicy(p.Spec())
		if err != nil {
			t.Fatalf("ParsePolicy(Spec()=%q): %v", p.Spec(), err)
		}
		if p2 != p {
			t.Errorf("round trip %q: %+v != %+v", spec, p2, p)
		}
	}
	if p, err := ParsePolicy("default"); err != nil || p != Default() {
		t.Errorf("ParsePolicy(default) = %+v, %v", p, err)
	}
	if p, err := ParsePolicy(""); err != nil || !p.Empty() {
		t.Errorf("ParsePolicy(\"\") = %+v, %v", p, err)
	}
	// breaker without cooldown gets the default.
	if p, err := ParsePolicy("breaker:3"); err != nil || p.BreakerCooldown != DefaultCooldown {
		t.Errorf("ParsePolicy(breaker:3) = %+v, %v", p, err)
	}
	for _, bad := range []string{"retries", "retries:x", "backoff:??", "jitter:2", "nope:1", "breaker:3@zz"} {
		if _, err := ParsePolicy(bad); err == nil {
			t.Errorf("ParsePolicy(%q) accepted", bad)
		}
	}
}

func TestBackoffDeterministicAndBounded(t *testing.T) {
	p := Policy{BaseBackoff: time.Millisecond, MaxBackoff: 8 * time.Millisecond, Multiplier: 2, JitterFrac: 0.5}
	key := Key(42, 3, 1)
	for attempt := 0; attempt < 6; attempt++ {
		d1 := p.Backoff(attempt, key)
		d2 := p.Backoff(attempt, key)
		if d1 != d2 {
			t.Fatalf("attempt %d: Backoff not deterministic: %v != %v", attempt, d1, d2)
		}
		base := time.Millisecond << attempt
		if base > p.MaxBackoff {
			base = p.MaxBackoff
		}
		if d1 < base || d1 >= base+base/2 {
			t.Errorf("attempt %d: delay %v outside [%v, %v)", attempt, d1, base, base+base/2)
		}
	}
	// Distinct keys draw distinct jitter (with overwhelming probability).
	if p.Backoff(0, Key(1)) == p.Backoff(0, Key(2)) {
		t.Error("distinct keys produced identical jitter")
	}
	// No jitter → exact exponential.
	np := Policy{BaseBackoff: time.Millisecond, Multiplier: 2}
	if got := np.Backoff(3, 7); got != 8*time.Millisecond {
		t.Errorf("jitterless Backoff(3) = %v, want 8ms", got)
	}
}

func TestClassify(t *testing.T) {
	bg := context.Background()
	canceled, cancel := context.WithCancel(bg)
	cancel()
	cases := []struct {
		name string
		ctx  context.Context
		err  error
		want Class
	}{
		{"parent canceled", canceled, errors.New("anything"), Aborted},
		{"ctx.Canceled in chain", bg, context.Canceled, Aborted},
		{"closed endpoint", bg, transport.ErrClosed, PeerDown},
		{"unreachable peer", bg, transport.ErrUnreachable, PeerDown},
		{"circuit open", bg, ErrCircuitOpen, PeerDown},
		{"attempt deadline, parent alive", bg, context.DeadlineExceeded, Transient},
		{"unknown", bg, errors.New("eof"), Transient},
	}
	for _, c := range cases {
		if got := Classify(c.ctx, c.err); got != c.want {
			t.Errorf("%s: Classify = %v, want %v", c.name, got, c.want)
		}
	}
}

// fakeClock is an injectable breaker clock.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time { return c.t }

func TestBreakerStateMachine(t *testing.T) {
	var transitions []string
	clock := &fakeClock{t: time.Unix(0, 0)}
	b := NewBreaker(Policy{BreakerThreshold: 2, BreakerCooldown: 100 * time.Millisecond},
		func(from, to BreakerState) { transitions = append(transitions, from.String()+">"+to.String()) })
	b.now = clock.now

	if ok, _ := b.Allow(); !ok {
		t.Fatal("closed breaker should allow")
	}
	b.Failure()
	if b.State() != Closed {
		t.Fatal("one failure should not open a threshold-2 breaker")
	}
	b.Failure()
	if b.State() != Open {
		t.Fatal("two consecutive failures should open")
	}
	if ok, _ := b.Allow(); ok {
		t.Fatal("open breaker inside cooldown should deny")
	}
	clock.t = clock.t.Add(150 * time.Millisecond)
	ok, probe := b.Allow()
	if !ok || !probe {
		t.Fatalf("post-cooldown Allow = (%v, %v), want probe", ok, probe)
	}
	if ok, _ := b.Allow(); ok {
		t.Fatal("second caller during half-open probe should be denied")
	}
	b.Failure() // probe fails → re-open
	if b.State() != Open {
		t.Fatal("failed probe should re-open")
	}
	clock.t = clock.t.Add(150 * time.Millisecond)
	if ok, _ := b.Allow(); !ok {
		t.Fatal("second probe should be allowed")
	}
	b.Success()
	if b.State() != Closed {
		t.Fatal("successful probe should close")
	}
	// Success resets the consecutive-failure count.
	b.Failure()
	b.Success()
	b.Failure()
	if b.State() != Closed {
		t.Fatal("non-consecutive failures should not open")
	}
	want := "closed>open,open>half-open,half-open>open,open>half-open,half-open>closed"
	if got := join(transitions); got != want {
		t.Errorf("transitions = %s, want %s", got, want)
	}

	// Zero threshold → nil breaker; nil is safe everywhere.
	var nb *Breaker = NewBreaker(Policy{}, nil)
	if nb != nil {
		t.Fatal("zero threshold should produce a nil breaker")
	}
	if ok, _ := nb.Allow(); !ok {
		t.Fatal("nil breaker should allow")
	}
	nb.Success()
	nb.Failure()
	if nb.State() != Closed {
		t.Fatal("nil breaker state should read closed")
	}
}

func join(s []string) string {
	out := ""
	for i, v := range s {
		if i > 0 {
			out += ","
		}
		out += v
	}
	return out
}

// instantSleep makes Do's backoff sleeps free while recording them.
func instantSleep(log *[]time.Duration) func(context.Context, time.Duration) error {
	return func(ctx context.Context, d time.Duration) error {
		*log = append(*log, d)
		return ctx.Err()
	}
}

func TestDoRetriesTransientThenSucceeds(t *testing.T) {
	p := Policy{MaxAttempts: 3, BaseBackoff: time.Millisecond, Multiplier: 2}
	var sleeps []time.Duration
	var retries int
	calls := 0
	v, err := Do(context.Background(), p, nil, Key(1), Hooks{
		OnRetry: func(int, error) { retries++ },
		Sleep:   instantSleep(&sleeps),
	}, func(ctx context.Context) (int, error) {
		calls++
		if calls < 3 {
			return 0, errors.New("flaky")
		}
		return 99, nil
	})
	if err != nil || v != 99 {
		t.Fatalf("Do = (%d, %v), want (99, nil)", v, err)
	}
	if calls != 3 || retries != 2 || len(sleeps) != 2 {
		t.Fatalf("calls=%d retries=%d sleeps=%d, want 3/2/2", calls, retries, len(sleeps))
	}
	if sleeps[0] != time.Millisecond || sleeps[1] != 2*time.Millisecond {
		t.Errorf("sleeps = %v, want [1ms 2ms]", sleeps)
	}
}

func TestDoExhaustsAttempts(t *testing.T) {
	p := Policy{MaxAttempts: 2}
	flaky := errors.New("flaky")
	calls := 0
	_, err := Do(context.Background(), p, nil, 0, Hooks{Sleep: instantSleep(new([]time.Duration))},
		func(ctx context.Context) (int, error) { calls++; return 0, flaky })
	if !errors.Is(err, flaky) || calls != 2 {
		t.Fatalf("Do = %v after %d calls, want flaky after 2", err, calls)
	}
}

func TestDoFailsFastOnPeerDownAndAbort(t *testing.T) {
	p := Policy{MaxAttempts: 5}
	for _, c := range []struct {
		name string
		err  error
	}{
		{"peer down", transport.ErrUnreachable},
		{"aborted", context.Canceled},
	} {
		calls := 0
		_, err := Do(context.Background(), p, nil, 0, Hooks{},
			func(ctx context.Context) (int, error) { calls++; return 0, c.err })
		if !errors.Is(err, c.err) || calls != 1 {
			t.Errorf("%s: Do = %v after %d calls, want the error after 1", c.name, err, calls)
		}
	}
	// Parent cancellation aborts even when fn's error looks transient.
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	_, err := Do(ctx, p, nil, 0, Hooks{}, func(context.Context) (int, error) {
		calls++
		cancel()
		return 0, errors.New("transient-looking")
	})
	if calls != 1 || err == nil {
		t.Fatalf("canceled parent: %d calls, err=%v; want 1 call and an error", calls, err)
	}
}

func TestDoAppliesCallTimeout(t *testing.T) {
	p := Policy{MaxAttempts: 2, CallTimeout: 5 * time.Millisecond}
	calls := 0
	var sleeps []time.Duration
	_, err := Do(context.Background(), p, nil, 0, Hooks{Sleep: instantSleep(&sleeps)},
		func(ctx context.Context) (int, error) {
			calls++
			<-ctx.Done() // attempt deadline fires; parent stays alive
			return 0, ctx.Err()
		})
	if !errors.Is(err, context.DeadlineExceeded) || calls != 2 {
		t.Fatalf("Do = %v after %d calls, want DeadlineExceeded after 2 (timeout is transient)", err, calls)
	}
}

func TestDoRespectsOpenBreaker(t *testing.T) {
	p := Policy{MaxAttempts: 1, BreakerThreshold: 1, BreakerCooldown: time.Hour}
	b := NewBreaker(p, nil)
	_, err := Do(context.Background(), p, b, 0, Hooks{},
		func(context.Context) (int, error) { return 0, transport.ErrUnreachable })
	if !errors.Is(err, transport.ErrUnreachable) {
		t.Fatalf("first call: %v", err)
	}
	if b.State() != Open {
		t.Fatal("breaker should be open after threshold failures")
	}
	calls := 0
	_, err = Do(context.Background(), p, b, 0, Hooks{},
		func(context.Context) (int, error) { calls++; return 0, nil })
	if !errors.Is(err, ErrCircuitOpen) || calls != 0 {
		t.Fatalf("open circuit: err=%v calls=%d, want ErrCircuitOpen and no calls", err, calls)
	}
	if Classify(context.Background(), err) != PeerDown {
		t.Fatal("ErrCircuitOpen should classify as peer-down")
	}
}

func TestDoBreakerRecoversViaProbe(t *testing.T) {
	p := Policy{MaxAttempts: 1, BreakerThreshold: 1, BreakerCooldown: time.Millisecond}
	clock := &fakeClock{t: time.Unix(0, 0)}
	b := NewBreaker(p, nil)
	b.now = clock.now
	_, _ = Do(context.Background(), p, b, 0, Hooks{},
		func(context.Context) (int, error) { return 0, transport.ErrUnreachable })
	clock.t = clock.t.Add(time.Minute)
	v, err := Do(context.Background(), p, b, 0, Hooks{},
		func(context.Context) (int, error) { return 7, nil })
	if err != nil || v != 7 {
		t.Fatalf("probe call = (%d, %v), want (7, nil)", v, err)
	}
	if b.State() != Closed {
		t.Fatal("successful probe should close the breaker")
	}
}

// TestDoResolvesAbortedProbe: a half-open probe that ends in an abort (an
// error chain carrying context.Canceled while the caller's own context is
// alive) must not leave the breaker half-open — nothing would ever resolve
// it and the peer would be refused for the rest of the run. The probe
// re-opens the circuit and the next cooldown admits a new one.
func TestDoResolvesAbortedProbe(t *testing.T) {
	p := Policy{MaxAttempts: 3, BreakerThreshold: 1, BreakerCooldown: time.Millisecond}
	clock := &fakeClock{t: time.Unix(0, 0)}
	b := NewBreaker(p, nil)
	b.now = clock.now
	_, _ = Do(context.Background(), p, b, 0, Hooks{},
		func(context.Context) (int, error) { return 0, transport.ErrUnreachable })
	if b.State() != Open {
		t.Fatal("breaker should be open after the threshold failure")
	}
	clock.t = clock.t.Add(time.Minute)
	aborted := fmt.Errorf("peer hung up: %w", context.Canceled)
	if _, err := Do(context.Background(), p, b, 0, Hooks{},
		func(context.Context) (int, error) { return 0, aborted }); !errors.Is(err, aborted) {
		t.Fatalf("aborted probe: err = %v, want the abort", err)
	}
	if got := b.State(); got != Open {
		t.Fatalf("state after an aborted probe = %v, want open", got)
	}
	if ok, _ := b.Allow(); ok {
		t.Fatal("re-opened circuit admitted a call inside its cooldown")
	}
	clock.t = clock.t.Add(time.Minute)
	v, err := Do(context.Background(), p, b, 0, Hooks{},
		func(context.Context) (int, error) { return 7, nil })
	if err != nil || v != 7 || b.State() != Closed {
		t.Fatalf("second probe = (%d, %v), state %v; want (7, nil) and closed", v, err, b.State())
	}
	// While closed, an abort is no evidence against the peer.
	_, _ = Do(context.Background(), p, b, 0, Hooks{},
		func(context.Context) (int, error) { return 0, aborted })
	if b.State() != Closed {
		t.Fatal("an abort on a closed circuit was counted as a peer failure")
	}
}

func TestDoSleepInterruptedByCancel(t *testing.T) {
	p := Policy{MaxAttempts: 3, BaseBackoff: time.Hour}
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, err := Do(ctx, p, nil, 0, Hooks{}, func(context.Context) (int, error) {
			calls++
			return 0, errors.New("flaky")
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("Do = %v, want Canceled", err)
		}
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Do did not unwind from backoff sleep on cancel")
	}
	if calls != 1 {
		t.Errorf("calls = %d, want 1", calls)
	}
}

func TestStringLabels(t *testing.T) {
	if Transient.String() != "transient" || PeerDown.String() != "peer-down" ||
		Aborted.String() != "aborted" {
		t.Error("class labels changed")
	}
	if Closed.String() != "closed" || Open.String() != "open" || HalfOpen.String() != "half-open" {
		t.Error("breaker state labels changed")
	}
	if Class(42).String() == "" || BreakerState(42).String() == "" {
		t.Error("unknown labels should still render")
	}
}
