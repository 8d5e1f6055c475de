// Package resilience is the fault-tolerance substrate of the live
// middleware: deterministic, seed-jittered bounded retry/backoff policies,
// per-call deadlines, failure classification, and per-peer circuit breakers
// (see breaker.go).
//
// The paper's subject is middleware for clusters that misbehave, so the live
// engine needs a disciplined answer to "a fabric call failed": was the
// failure transient (retry it, with bounded backoff), is the peer down
// (stop asking it, demote to the PFS, re-probe later), or did the caller
// cancel (abort — never mask cancellation as a cache miss)? Classify
// encodes that taxonomy; Caller.Do (prepared once per peer, or one-shot
// through Do) is the one retry loop the repo permits around fabric calls
// (enforced by the `retrybound` analyzer in internal/analysis:
// ad-hoc unbounded `for { Call }` loops in library code are findings).
//
// Determinism contract: backoff delays are a pure function of
// (key, attempt) — Backoff derives the jitter with SplitMix64 from the key
// the caller mixes (typically seed, rank, peer, and a local retry sequence
// number via Key). Like the chaos fabric draws, the delay *distribution* is
// therefore reproducible from the seed while the exact interleaving of
// retries remains a property of wall-clock scheduling; live runs measure
// effects, not schedules. The zero Policy disables everything: Empty
// reports true and the live engine installs no resilience decorator at all.
package resilience

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/prng"
	"repro/internal/transport"
)

// Policy bounds the retry/backoff, deadline, and circuit-breaker behaviour
// of one run. The zero value disables resilience entirely; Default returns
// the tuned preset.
type Policy struct {
	// MaxAttempts is the total number of attempts per call, first try
	// included (<= 1 means no retries).
	MaxAttempts int
	// BaseBackoff is the delay before the first retry; each further retry
	// multiplies it by Multiplier, capped at MaxBackoff.
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth (0 = uncapped).
	MaxBackoff time.Duration
	// Multiplier is the exponential growth factor (<= 0 means 2).
	Multiplier float64
	// JitterFrac adds a deterministic uniform draw in [0, JitterFrac) of
	// the current delay on top of it, decorrelating retry storms.
	JitterFrac float64
	// CallTimeout is the per-attempt deadline (0 = none): an attempt is
	// cut off no sooner than CallTimeout after it starts and at most
	// CallTimeout/8 later, so an unresponsive peer fails the attempt
	// instead of hanging the fetch pipeline. The deadline comes from a
	// Caller's deadline window, prepared once per peer.
	CallTimeout time.Duration
	// BreakerThreshold is the consecutive-failure count that opens a
	// peer's circuit (0 = no circuit breaking).
	BreakerThreshold int
	// BreakerCooldown is how long an open circuit waits before letting a
	// single half-open probe through (<= 0 with a threshold set means
	// DefaultCooldown).
	BreakerCooldown time.Duration
}

// DefaultCooldown is the open→half-open delay used when a threshold is set
// without a cooldown.
const DefaultCooldown = 50 * time.Millisecond

// Default returns the tuned preset behind the "default" spec name: three
// attempts with 1ms..32ms exponential backoff and 25% jitter, a 250ms
// per-call deadline, and a 3-failure breaker re-probing after 50ms.
func Default() Policy {
	return Policy{
		MaxAttempts:      3,
		BaseBackoff:      time.Millisecond,
		MaxBackoff:       32 * time.Millisecond,
		Multiplier:       2,
		JitterFrac:       0.25,
		CallTimeout:      250 * time.Millisecond,
		BreakerThreshold: 3,
		BreakerCooldown:  DefaultCooldown,
	}
}

// Empty reports whether the policy disables resilience entirely.
func (p Policy) Empty() bool { return p == Policy{} }

// Validate reports whether the policy is well-formed.
func (p Policy) Validate() error {
	switch {
	case p.MaxAttempts < 0:
		return fmt.Errorf("resilience: negative max attempts %d", p.MaxAttempts)
	case p.BaseBackoff < 0 || p.MaxBackoff < 0 || p.CallTimeout < 0 || p.BreakerCooldown < 0:
		return errors.New("resilience: negative duration")
	case p.Multiplier < 0:
		return fmt.Errorf("resilience: negative multiplier %g", p.Multiplier)
	case p.JitterFrac < 0 || p.JitterFrac >= 1:
		return fmt.Errorf("resilience: jitter fraction %g outside [0, 1)", p.JitterFrac)
	case p.BreakerThreshold < 0:
		return fmt.Errorf("resilience: negative breaker threshold %d", p.BreakerThreshold)
	}
	return nil
}

// attempts returns the effective attempt budget (at least one).
func (p Policy) attempts() int {
	if p.MaxAttempts <= 1 {
		return 1
	}
	return p.MaxAttempts
}

// backoffStream salts the backoff PRNG derivation so it cannot collide with
// the shuffle or chaos streams derived from the same seed.
const backoffStream = 0xbac0ff

// Key mixes the caller's identifying parts (seed, rank, peer, sequence
// number, ...) into one backoff-derivation key. Distinct odd multipliers
// keep distinct part tuples on distinct states.
func Key(parts ...uint64) uint64 {
	k := uint64(backoffStream)
	for i, p := range parts {
		k += (p + uint64(i) + 1) * 0x9e3779b97f4a7c15
		k ^= k >> 29
	}
	return k
}

// Backoff returns the deterministic delay before retry number attempt
// (attempt 0 = the delay after the first failure): BaseBackoff scaled by
// Multiplier^attempt, capped at MaxBackoff, plus a uniform jitter draw in
// [0, JitterFrac) of the capped delay derived from key via SplitMix64 — a
// pure function of (policy, key, attempt).
func (p Policy) Backoff(attempt int, key uint64) time.Duration {
	d := float64(p.BaseBackoff)
	mult := p.Multiplier
	if mult <= 0 {
		mult = 2
	}
	for i := 0; i < attempt; i++ {
		d *= mult
		if p.MaxBackoff > 0 && d >= float64(p.MaxBackoff) {
			d = float64(p.MaxBackoff)
			break
		}
	}
	if p.MaxBackoff > 0 && d > float64(p.MaxBackoff) {
		d = float64(p.MaxBackoff)
	}
	if p.JitterFrac > 0 && d > 0 {
		sm := prng.NewSplitMix64(key + (uint64(attempt)+1)*0xd1b54a32d192ed03)
		u := float64(sm.Next()>>11) / (1 << 53)
		d += d * p.JitterFrac * u
	}
	return time.Duration(d)
}

// Class is the failure taxonomy every fabric-call error resolves to.
type Class int

const (
	// Transient failures (injected chaos drops, per-attempt deadline
	// expiry, unclassified errors) are worth retrying with backoff.
	Transient Class = iota
	// PeerDown failures (closed endpoints, refused dials, severed
	// connections) mean the peer is unreachable: fail fast, feed the
	// circuit breaker, and let the caller demote to the PFS.
	PeerDown
	// Aborted means the caller's own context ended: the operation must
	// unwind, never be retried or masked as a miss.
	Aborted
)

// String returns the class's metrics/log label.
func (c Class) String() string {
	switch c {
	case Transient:
		return "transient"
	case PeerDown:
		return "peer-down"
	case Aborted:
		return "aborted"
	default:
		return "class(" + strconv.Itoa(int(c)) + ")"
	}
}

// ErrCircuitOpen is returned by Do when the peer's circuit is open and not
// yet due a half-open probe: the call was never attempted.
var ErrCircuitOpen = errors.New("resilience: circuit open")

// Classify resolves one call error against the caller's own context:
// parent cancellation (or an error chain carrying context.Canceled) aborts;
// closed/unreachable transports are peer-down evidence; an expired
// per-attempt deadline while the parent is alive, and everything else, is
// transient.
func Classify(parent context.Context, err error) Class {
	switch {
	case parent != nil && parent.Err() != nil:
		return Aborted
	case errors.Is(err, context.Canceled):
		return Aborted
	case errors.Is(err, ErrCircuitOpen),
		errors.Is(err, transport.ErrClosed),
		errors.Is(err, transport.ErrUnreachable):
		return PeerDown
	default:
		return Transient
	}
}

// Hooks observes one Do execution. Both fields are optional.
type Hooks struct {
	// OnRetry runs before each backoff sleep with the just-failed attempt
	// number (0-based) and its error.
	OnRetry func(attempt int, err error)
	// Clock times the backoff sleeps; nil means clock.Real (tests set a
	// manual one).
	Clock clock.Clock
}

// windowSlices is how many deadline-window slices one CallTimeout spans.
const windowSlices = 8

// Caller is a policy prepared for one peer: the policy, the peer's breaker,
// the hooks and a deadline window. A deadline window is one
// context.WithDeadline(parent, sliceEnd+CallTimeout), shared by every
// attempt that starts under the same parent before sliceEnd, where the
// slice is CallTimeout/windowSlices. An attempt is therefore cut off no
// sooner than CallTimeout after it starts and at most CallTimeout/8 later,
// and a busy peer costs one timer context per slice instead of one per
// attempt. It is still a stdlib context: parent cancellation propagates
// natively and an expired attempt fails with context.DeadlineExceeded.
//
// A window may be in use until its deadline, so a Caller never cancels one:
// it ends when its deadline fires or its parent ends, which bounds the live
// windows to about windowSlices+1. A Caller is safe for concurrent use.
type Caller[T any] struct {
	policy  Policy
	breaker *Breaker
	hooks   Hooks
	// window holds the current deadline window. It sits behind a pointer so
	// that Do's throwaway Caller, which has none under a zero CallTimeout,
	// can live on the stack.
	window *atomic.Pointer[deadlineWindow]
}

// deadlineWindow is one shared attempt context.
type deadlineWindow struct {
	parent   context.Context
	ctx      context.Context
	cancel   context.CancelFunc
	sliceEnd time.Time
}

// NewCaller prepares p for one peer. br is that peer's breaker (nil for
// none, see NewBreaker); h observes every call made through the Caller.
func NewCaller[T any](p Policy, br *Breaker, h Hooks) *Caller[T] {
	return &Caller[T]{policy: p, breaker: br, hooks: h, window: new(atomic.Pointer[deadlineWindow])}
}

// attemptContext returns the context of an attempt that starts now under
// parent: the current window if it was made under parent (compared by
// identity) and its slice is still open, else a new window.
func (c *Caller[T]) attemptContext(parent context.Context) context.Context {
	if c.policy.CallTimeout <= 0 {
		return parent
	}
	//lint:ignore goroutine deadline windows feed context.WithDeadline, which only the wall clock drives
	now := time.Now()
	if w := c.window.Load(); w != nil && w.parent == parent && now.Before(w.sliceEnd) {
		return w.ctx
	}
	w := &deadlineWindow{parent: parent, sliceEnd: now.Add(c.policy.CallTimeout / windowSlices)}
	w.ctx, w.cancel = context.WithDeadline(parent, w.sliceEnd.Add(c.policy.CallTimeout))
	c.window.Store(w)
	return w.ctx
}

// Do runs fn under the policy: each attempt runs in the Caller's deadline
// window, failures are classified, transient ones are retried up to
// MaxAttempts with deterministic backoff (key, see Key/Backoff), and the
// optional breaker gates the call and records its outcome. Peer-down and
// aborted failures return immediately; an abort says nothing about the
// peer, so it is kept from the breaker unless this call is the half-open
// probe — every admitted probe is resolved, or the circuit would sit
// half-open and refuse that peer for the rest of the run. This is the
// repo's single sanctioned retry loop around fabric calls (`retrybound`
// analyzer).
func (c *Caller[T]) Do(ctx context.Context, key uint64, fn func(context.Context) (T, error)) (T, error) {
	var zero T
	br := c.breaker
	ok, probe := br.Allow()
	if !ok {
		return zero, ErrCircuitOpen
	}
	clk := c.hooks.Clock
	if clk == nil {
		clk = clock.Real
	}
	attempts := c.policy.attempts()
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		v, err := fn(c.attemptContext(ctx))
		if err == nil {
			br.Success()
			return v, nil
		}
		switch Classify(ctx, err) {
		case Aborted:
			if probe {
				br.Failure() // re-open: the next cooldown admits a new probe
			}
			return zero, err
		case PeerDown:
			br.Failure()
			return zero, err
		default: // Transient
			br.Failure()
			lastErr = err
		}
		if attempt+1 >= attempts {
			break
		}
		if c.hooks.OnRetry != nil {
			c.hooks.OnRetry(attempt, lastErr)
		}
		if err := clock.Sleep(ctx, clk, c.policy.Backoff(attempt, key)); err != nil {
			return zero, err
		}
	}
	return zero, lastErr
}

// Do runs fn under p on a throwaway Caller: the same loop, on deadline
// windows of its own. The last is canceled when the call returns; one that
// a slow attempt's retry outgrew ends at its deadline.
func Do[T any](ctx context.Context, p Policy, br *Breaker, key uint64, h Hooks, fn func(context.Context) (T, error)) (T, error) {
	c := Caller[T]{policy: p, breaker: br, hooks: h}
	if p.CallTimeout > 0 {
		c.window = new(atomic.Pointer[deadlineWindow])
		defer func() {
			if w := c.window.Load(); w != nil {
				w.cancel()
			}
		}()
	}
	return c.Do(ctx, key, fn)
}

// ParsePolicy parses the -resilience flag grammar: "", "none" (disabled),
// "default" (the Default preset), or a comma-separated list of directives,
// each overriding the zero policy:
//
//	retries:<n>            total attempts per call (first try included)
//	backoff:<d>[..<max>]   base (and cap) of the exponential backoff
//	jitter:<frac>          deterministic uniform jitter fraction in [0, 1)
//	timeout:<d>            per-attempt call deadline: no sooner than <d>,
//	                       at most <d>/8 later (prepared once per peer)
//	breaker:<n>[@<d>]      open after <n> consecutive failures, re-probe
//	                       after <d> (default 50ms)
//
// Example: "retries:3,backoff:1ms..32ms,jitter:0.25,timeout:250ms,breaker:3@50ms".
func ParsePolicy(spec string) (Policy, error) {
	spec = strings.TrimSpace(spec)
	switch spec {
	case "", "none":
		return Policy{}, nil
	case "default":
		return Default(), nil
	}
	var p Policy
	for _, raw := range strings.Split(spec, ",") {
		d := strings.TrimSpace(raw)
		if d == "" {
			continue
		}
		kind, rest, ok := strings.Cut(d, ":")
		if !ok {
			return Policy{}, fmt.Errorf("resilience: directive %q is not <kind>:<args> (or \"default\"/\"none\")", d)
		}
		var err error
		switch kind {
		case "retries":
			p.MaxAttempts, err = strconv.Atoi(rest)
		case "backoff":
			base, cap, hasCap := strings.Cut(rest, "..")
			if p.BaseBackoff, err = time.ParseDuration(base); err == nil && hasCap {
				p.MaxBackoff, err = time.ParseDuration(cap)
			}
		case "jitter":
			p.JitterFrac, err = strconv.ParseFloat(rest, 64)
		case "timeout":
			p.CallTimeout, err = time.ParseDuration(rest)
		case "breaker":
			n, cd, hasCd := strings.Cut(rest, "@")
			if p.BreakerThreshold, err = strconv.Atoi(n); err == nil {
				p.BreakerCooldown = DefaultCooldown
				if hasCd {
					p.BreakerCooldown, err = time.ParseDuration(cd)
				}
			}
		default:
			return Policy{}, fmt.Errorf("resilience: unknown directive kind %q in %q", kind, d)
		}
		if err != nil {
			return Policy{}, fmt.Errorf("resilience: directive %q: %w", d, err)
		}
	}
	if err := p.Validate(); err != nil {
		return Policy{}, err
	}
	return p, nil
}

// Spec renders the policy in the ParsePolicy grammar;
// ParsePolicy(p.Spec()) reproduces the policy.
func (p Policy) Spec() string {
	if p.Empty() {
		return "none"
	}
	var parts []string
	if p.MaxAttempts != 0 {
		parts = append(parts, "retries:"+strconv.Itoa(p.MaxAttempts))
	}
	if p.BaseBackoff != 0 || p.MaxBackoff != 0 {
		s := "backoff:" + p.BaseBackoff.String()
		if p.MaxBackoff != 0 {
			s += ".." + p.MaxBackoff.String()
		}
		parts = append(parts, s)
	}
	if p.JitterFrac != 0 {
		parts = append(parts, "jitter:"+strconv.FormatFloat(p.JitterFrac, 'g', -1, 64))
	}
	if p.CallTimeout != 0 {
		parts = append(parts, "timeout:"+p.CallTimeout.String())
	}
	if p.BreakerThreshold != 0 {
		s := "breaker:" + strconv.Itoa(p.BreakerThreshold)
		if p.BreakerCooldown != 0 {
			s += "@" + p.BreakerCooldown.String()
		}
		parts = append(parts, s)
	}
	return strings.Join(parts, ",")
}
