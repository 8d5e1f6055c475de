package resilience

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/prng"
	"repro/internal/transport"
)

// breakerModel is the reference circuit breaker: the state machine of the
// Breaker doc, with the time an open circuit opened.
type breakerModel struct {
	threshold   int
	cooldown    time.Duration
	state       BreakerState
	failures    int
	openedAt    time.Time
	transitions []string
}

func (m *breakerModel) move(to BreakerState, now time.Time) {
	if to == Open {
		m.openedAt = now
	}
	if m.state != to {
		m.transitions = append(m.transitions, m.state.String()+">"+to.String())
	}
	m.state = to
}

// allow admits every call while closed, none while a probe is out, and
// exactly one probe once an open circuit's cooldown has fully elapsed.
func (m *breakerModel) allow(now time.Time) (ok, probe bool) {
	switch {
	case m.state == Closed:
		return true, false
	case m.state == Open && now.Sub(m.openedAt) >= m.cooldown:
		m.move(HalfOpen, now)
		return true, true
	default:
		return false, false
	}
}

func (m *breakerModel) success(now time.Time) {
	m.failures = 0
	m.move(Closed, now)
}

func (m *breakerModel) failure(now time.Time) {
	switch m.state {
	case HalfOpen:
		m.move(Open, now)
	case Closed:
		if m.failures++; m.failures >= m.threshold {
			m.move(Open, now)
		}
	}
}

// TestBreakerMatchesModel drives a Breaker on a manual clock with seeded
// random sequences of Allow, Success, Failure, Caller.Do outcomes (success,
// peer down, abort) and clock advances that straddle the cooldown, and
// checks every step against breakerModel. Advances land one nanosecond
// before, exactly at, and one after an open circuit's cooldown, so the
// sequences cover admission at exactly the cooldown, the single half-open
// probe, and an aborted probe re-opening the circuit; the test fails if any
// of those went unexercised.
func TestBreakerMatchesModel(t *testing.T) {
	const cooldown = 50 * time.Millisecond
	aborted := fmt.Errorf("peer hung up: %w", context.Canceled)
	var atCooldown, shortOfCooldown, probeRefused, abortedProbe int
	for seed := uint64(1); seed <= 200; seed++ {
		rng := prng.NewSplitMix64(seed)
		draw := func(n int) int { return int(rng.Next() % uint64(n)) }
		p := Policy{MaxAttempts: 1, BreakerThreshold: 1 + draw(3), BreakerCooldown: cooldown}
		clock := &fakeClock{t: time.Unix(0, 0)}
		var got []string
		b := NewBreaker(p, func(from, to BreakerState) { got = append(got, from.String()+">"+to.String()) })
		b.clock = clock
		c := NewCaller[int](p, b, Hooks{})
		m := &breakerModel{threshold: p.BreakerThreshold, cooldown: cooldown}
		var trace []string
		tail := func() []string { return trace[max(0, len(trace)-12):] }
		for step := 0; step < 200; step++ {
			now := clock.t
			switch op := draw(7); op {
			case 0:
				elapsed := now.Sub(m.openedAt)
				wasOpen := m.state == Open
				ok, probe := b.Allow()
				wantOK, wantProbe := m.allow(now)
				trace = append(trace, fmt.Sprintf("allow=%v,%v", ok, probe))
				if ok != wantOK || probe != wantProbe {
					t.Fatalf("seed %d step %d: Allow = (%v, %v), want (%v, %v); trace …%v",
						seed, step, ok, probe, wantOK, wantProbe, tail())
				}
				switch {
				case wasOpen && elapsed == cooldown:
					atCooldown++
				case wasOpen && elapsed == cooldown-1:
					shortOfCooldown++
				case m.state == HalfOpen && !wantProbe:
					probeRefused++
				}
			case 1:
				b.Success()
				m.success(now)
				trace = append(trace, "success")
			case 2:
				b.Failure()
				m.failure(now)
				trace = append(trace, "failure")
			case 3, 4:
				outcome := []error{nil, transport.ErrUnreachable, aborted}[draw(3)]
				called := false
				_, err := c.Do(context.Background(), 0, func(context.Context) (int, error) {
					called = true
					return 1, outcome
				})
				trace = append(trace, fmt.Sprintf("do(%v)=%v", outcome, err))
				ok, probe := m.allow(now)
				switch {
				case !ok:
					if called || !errors.Is(err, ErrCircuitOpen) {
						t.Fatalf("seed %d step %d: refused Do ran %v, err %v; trace …%v", seed, step, called, err, tail())
					}
				case outcome == nil:
					m.success(now)
				case outcome == aborted:
					if probe {
						abortedProbe++
						m.failure(now)
					}
				default:
					m.failure(now)
				}
				if ok && !errors.Is(err, outcome) {
					t.Fatalf("seed %d step %d: admitted Do = %v, want %v; trace …%v", seed, step, err, outcome, tail())
				}
			default:
				// Advance to one nanosecond before, exactly at, or one
				// after the open circuit's cooldown, or by a random slice
				// of it.
				d := time.Duration(draw(int(cooldown)))
				if due := m.openedAt.Add(cooldown); m.state == Open && due.After(now) {
					d = due.Sub(now) + time.Duration(draw(3)-1)
				}
				clock.t = now.Add(d)
				trace = append(trace, "+"+d.String())
			}
			if s := b.State(); s != m.state {
				t.Fatalf("seed %d step %d: state %v, want %v; trace …%v", seed, step, s, m.state, tail())
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(m.transitions) {
			t.Fatalf("seed %d: transitions %v, want %v", seed, got, m.transitions)
		}
	}
	t.Logf("probes admitted at exactly the cooldown %d, refused 1ns short %d, refused during a probe %d, aborted probes %d",
		atCooldown, shortOfCooldown, probeRefused, abortedProbe)
	if atCooldown == 0 || shortOfCooldown == 0 || probeRefused == 0 || abortedProbe == 0 {
		t.Error("the sequences left a breaker rule unexercised")
	}
}

// TestBreakerConcurrentOutcomes reports outcomes to one breaker from many
// goroutines at once, in phases whose result does not depend on the
// interleaving: threshold-1 failures leave the circuit closed, a burst of
// successes resets the count (so threshold-1 more still leave it closed,
// while other goroutines' Allow calls all pass), one more failure opens it,
// and threshold failures at once open a fresh circuit exactly once. Under
// -race it checks that the closed circuit's lock-free Allow and Success
// race cleanly with the failures that take the lock.
func TestBreakerConcurrentOutcomes(t *testing.T) {
	const threshold, workers = 4, 8
	for round := 0; round < 50; round++ {
		var opened atomic.Int32
		br := NewBreaker(Policy{BreakerThreshold: threshold, BreakerCooldown: time.Hour}, func(from, to BreakerState) {
			if to == Open {
				opened.Add(1)
			}
		})
		var refused atomic.Int32
		together := func(n int, outcome func()) {
			var wg sync.WaitGroup
			for i := 0; i < n; i++ {
				wg.Add(2)
				go func() { defer wg.Done(); outcome() }()
				go func() {
					defer wg.Done()
					if ok, _ := br.Allow(); !ok {
						refused.Add(1)
					}
				}()
			}
			wg.Wait()
		}
		together(workers, br.Success)
		together(threshold-1, br.Failure)
		together(workers, br.Success)
		together(threshold-1, br.Failure)
		if got := br.State(); got != Closed || opened.Load() != 0 || refused.Load() != 0 {
			t.Fatalf("round %d: after %d failures, a reset and %d more: %v, %d opens, %d refused; want closed, 0, 0",
				round, threshold-1, threshold-1, got, opened.Load(), refused.Load())
		}
		br.Failure()
		if ok, _ := br.Allow(); br.State() != Open || opened.Load() != 1 || ok {
			t.Fatalf("round %d: failure %d after the reset left %v (%d opens, allow %v), want open once, refusing",
				round, threshold, br.State(), opened.Load(), ok)
		}

		opened.Store(0)
		br = NewBreaker(Policy{BreakerThreshold: threshold, BreakerCooldown: time.Hour}, func(from, to BreakerState) {
			if to == Open {
				opened.Add(1)
			}
		})
		together(threshold, br.Failure)
		if br.State() != Open || opened.Load() != 1 {
			t.Fatalf("round %d: %d concurrent failures: %v, %d opens; want open once", round, threshold, br.State(), opened.Load())
		}
	}
}
