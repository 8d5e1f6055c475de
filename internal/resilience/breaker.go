package resilience

import (
	"strconv"
	"sync"
	"time"

	"repro/internal/clock"
)

// BreakerState is the circuit position: Closed (calls flow), Open (calls
// fail fast with ErrCircuitOpen), HalfOpen (one probe in flight decides).
type BreakerState int

const (
	Closed BreakerState = iota
	Open
	HalfOpen
)

// String returns the state's metrics/log label.
func (s BreakerState) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return "state(" + strconv.Itoa(int(s)) + ")"
	}
}

// Breaker is a per-peer circuit breaker: `threshold` consecutive failures
// open it; after `cooldown` one half-open probe is let through; the probe's
// outcome closes it again or re-opens it for another cooldown. A nil
// *Breaker is valid and always allows (all methods are nil-safe), so
// callers can thread an optional breaker without branching.
type Breaker struct {
	mu       sync.Mutex
	state    BreakerState
	failures int // consecutive, while closed

	threshold int
	cooldown  time.Duration
	openedAt  time.Time

	// clock is clock.Real; tests set a manual one.
	clock clock.Clock
	// onTransition observes every state change (may be nil); called
	// without the lock held.
	onTransition func(from, to BreakerState)
}

// NewBreaker builds a breaker from the policy's threshold/cooldown. A zero
// threshold disables circuit breaking: NewBreaker returns nil, which every
// method accepts. onTransition (optional) observes state changes.
func NewBreaker(p Policy, onTransition func(from, to BreakerState)) *Breaker {
	if p.BreakerThreshold <= 0 {
		return nil
	}
	cd := p.BreakerCooldown
	if cd <= 0 {
		cd = DefaultCooldown
	}
	return &Breaker{
		threshold:    p.BreakerThreshold,
		cooldown:     cd,
		clock:        clock.Real,
		onTransition: onTransition,
	}
}

// Allow reports whether a call may proceed. From Open it lets a single
// probe through once the cooldown has elapsed (moving to HalfOpen); the
// second return is true when this call is that probe.
func (b *Breaker) Allow() (ok, probe bool) {
	if b == nil {
		return true, false
	}
	b.mu.Lock()
	switch b.state {
	case Closed:
		b.mu.Unlock()
		return true, false
	case HalfOpen:
		// A probe is already in flight; fail fast until it resolves.
		b.mu.Unlock()
		return false, false
	default: // Open
		if b.clock.Now().Sub(b.openedAt) < b.cooldown {
			b.mu.Unlock()
			return false, false
		}
		b.transitionLocked(HalfOpen)
		return true, true
	}
}

// Success records a successful call, closing the circuit.
func (b *Breaker) Success() {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.failures = 0
	if b.state != Closed {
		b.transitionLocked(Closed)
		return
	}
	b.mu.Unlock()
}

// Failure records a failed call: a failed half-open probe re-opens the
// circuit immediately; while closed, the threshold's worth of consecutive
// failures opens it.
func (b *Breaker) Failure() {
	if b == nil {
		return
	}
	b.mu.Lock()
	switch b.state {
	case HalfOpen:
		b.transitionLocked(Open)
		return
	case Closed:
		b.failures++
		if b.failures >= b.threshold {
			b.transitionLocked(Open)
			return
		}
	}
	b.mu.Unlock()
}

// State returns the current circuit position (Closed for a nil breaker).
func (b *Breaker) State() BreakerState {
	if b == nil {
		return Closed
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// transitionLocked moves to state `to`, stamps open time, releases the
// lock, and fires the observer. Callers must hold b.mu; it is released on
// return.
func (b *Breaker) transitionLocked(to BreakerState) {
	from := b.state
	b.state = to
	if to == Open {
		b.openedAt = b.clock.Now()
	}
	if to == Closed {
		b.failures = 0
	}
	cb := b.onTransition
	b.mu.Unlock()
	if cb != nil && from != to {
		cb(from, to)
	}
}
