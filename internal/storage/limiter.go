// Package storage provides the live middleware's storage substrate: byte
// backends for each storage class (memory, filesystem), token-bucket rate
// limiting that emulates a class's aggregate bandwidth, and the ordered
// staging buffer that hands samples to the trainer in access order.
//
// Every blocking operation takes a context.Context and returns promptly
// when it is canceled, so a canceled training run tears down in bounded
// time instead of sleeping out its bandwidth reservations.
package storage

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
)

// Limiter emulates a storage class's aggregate bandwidth: concurrent
// operations share the configured rate, exactly like p threads sharing
// r_j(p). A nil limiter, a zero-value limiter, and any rate <= 0 all mean
// unlimited — waits pass immediately.
//
// Internally the limiter runs a virtual byte clock: reservations accumulate
// in byte space and are converted to release times against the current rate
// anchor, so SetRate mid-run re-paces the outstanding backlog at the new
// rate instead of honouring grants priced at the old one. Waiters observe
// rate changes through a broadcast channel, which is what keeps a waiter
// priced at a near-zero rate from sleeping forever after the rate recovers.
type Limiter struct {
	// limited mirrors bytesPerSec > 0, so an unlimited Wait skips mu.
	limited atomic.Bool
	mu      sync.Mutex
	// bytesPerSec is the configured rate; <= 0 means unlimited.
	bytesPerSec float64
	// reserved is the cumulative bytes granted while limited.
	reserved float64
	// baseTime/baseBytes anchor the virtual clock: bytes up to baseBytes
	// were (or are deemed) complete at baseTime, so byte b releases at
	// baseTime + (b-baseBytes)/rate.
	baseTime  time.Time
	baseBytes float64
	// changed is closed and replaced on every SetRate so in-flight waiters
	// recompute their release times.
	changed chan struct{}
	// observer, when set, receives each Wait's actual blocked duration in
	// seconds (see SetObserver).
	observer func(seconds float64)
	// clock is clock.Real; tests set a manual one. It and changed are nil
	// only in a zero-value limiter before its first SetRate.
	clock clock.Clock
}

// NewLimiter returns a limiter enforcing the given aggregate rate in MB/s
// (MB = 2^20 bytes). Rates <= 0 return an unlimited (but non-nil) limiter,
// so a caller may later enable a rate with SetRate.
func NewLimiter(mbps float64) *Limiter {
	l := &Limiter{changed: make(chan struct{}), clock: clock.Real}
	if mbps > 0 {
		l.bytesPerSec = mbps * (1 << 20)
		l.limited.Store(true)
	}
	return l
}

// advanceLocked folds clock progress into the anchor: bytes that have
// drained by now are marked complete so idle periods are not charged to
// future reservations (a zero anchor has drained everything). Callers must
// hold mu, and rate must be positive.
func (l *Limiter) advanceLocked(now time.Time) {
	if elapsed := now.Sub(l.baseTime).Seconds(); elapsed > 0 {
		done := l.baseBytes + elapsed*l.bytesPerSec
		if done > l.reserved {
			done = l.reserved
		}
		l.baseTime, l.baseBytes = now, done
	}
}

// releaseLocked returns the time cumulative byte b is released under the
// current anchor and rate. Callers must hold mu.
func (l *Limiter) releaseLocked(b float64) time.Time {
	seconds := (b - l.baseBytes) / l.bytesPerSec
	// Clamp pathological backlogs (near-zero rates) to a finite horizon so
	// the duration arithmetic cannot overflow; SetRate wakes such waiters.
	if max := float64(math.MaxInt64 / 2); seconds*float64(time.Second) > max {
		seconds = max / float64(time.Second)
	}
	return l.baseTime.Add(time.Duration(seconds * float64(time.Second)))
}

// SetRate changes the limiter's aggregate rate to mbps; values <= 0 switch
// the limiter to unlimited and release every waiter. The outstanding backlog
// (bytes reserved but not yet drained) is re-paced at the new rate, and
// in-flight Waits recompute their release times — a waiter granted a far
// future slot at a degraded rate is not stranded when the rate recovers.
// Fault injection uses this to degrade and restore a tier's bandwidth
// mid-run.
func (l *Limiter) SetRate(mbps float64) {
	if l == nil {
		return
	}
	l.mu.Lock()
	if l.clock == nil { // a zero-value limiter
		l.changed, l.clock = make(chan struct{}), clock.Real
	}
	now := l.clock.Now()
	if l.bytesPerSec > 0 {
		l.advanceLocked(now)
	} else {
		// Unlimited until now: nothing reserved meanwhile is billed.
		l.baseTime, l.baseBytes = now, l.reserved
	}
	if mbps > 0 {
		l.bytesPerSec = mbps * (1 << 20)
	} else {
		l.bytesPerSec = 0
	}
	l.limited.Store(l.bytesPerSec > 0)
	close(l.changed)
	l.changed = make(chan struct{})
	l.mu.Unlock()
}

// SetObserver installs a callback receiving each Wait's blocked duration in
// seconds (only calls that actually slept report, a canceled one included).
// Instrumentation hook for the metrics layer; pass nil to remove.
func (l *Limiter) SetObserver(fn func(seconds float64)) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.observer = fn
	l.mu.Unlock()
}

// sleepQuantum bounds timer overhead: reservations shorter than this pass
// immediately and are paid for by later callers once the backlog
// accumulates past the quantum. Aggregate throughput still converges to the
// configured rate; only burst granularity is affected.
const sleepQuantum = 2 * time.Millisecond

// Wait blocks until n bytes may pass or ctx is canceled, returning ctx's
// error in the latter case. Serialising grants through a shared reservation
// clock makes the aggregate throughput of all callers converge to the
// configured rate regardless of concurrency. A canceled caller's
// reservation stays on the clock — the tail of a torn-down run is charged,
// not refunded, which keeps the accounting monotonic. A rate change during
// the wait re-prices the remaining sleep at the new rate.
func (l *Limiter) Wait(ctx context.Context, n int64) error {
	if err := clock.Err(ctx); err != nil {
		return err
	}
	if l == nil || n <= 0 || !l.limited.Load() {
		return nil
	}
	l.mu.Lock()
	if l.bytesPerSec <= 0 { // SetRate made it unlimited since the load
		l.mu.Unlock()
		return nil
	}
	c := l.clock
	start := c.Now()
	l.advanceLocked(start)
	l.reserved += float64(n)
	myEnd := l.reserved
	release := l.releaseLocked(myEnd)
	changed := l.changed
	observer := l.observer
	l.mu.Unlock()

	// Sleep to the release instant. A rate change wakes the waiter to
	// re-price it; a rate switched off releases it.
	var err error
	slept := false
	for now := start; release.Sub(now) > sleepQuantum; now = c.Now() {
		slept = true
		if err = c.WaitUntil(ctx, release, changed); err != nil {
			break
		}
		l.mu.Lock()
		release, changed = time.Time{}, l.changed // released unless still limited
		if l.bytesPerSec > 0 {
			release = l.releaseLocked(myEnd)
		}
		l.mu.Unlock()
	}
	if slept && observer != nil {
		observer(c.Now().Sub(start).Seconds())
	}
	return err
}
