// Package clock is the live substrate's one source of time: the limiter,
// the resilience layer and the fabric-call decorator read and wait on a
// Clock, so their tests can release waiters at exact instants of a manual
// clock instead of sleeping. Production code uses Real.
package clock

import (
	"context"
	"sync"
	"time"
)

// Clock reads the time and waits on it.
type Clock interface {
	Now() time.Time
	// WaitUntil blocks until the clock reaches t, a receive from wake
	// succeeds (nil never does) or ctx ends; it returns ctx's error then.
	WaitUntil(ctx context.Context, t time.Time, wake <-chan struct{}) error
}

// Never is an instant no clock reaches: a wait for it ends at wake or ctx.
var Never = time.Unix(1<<62, 0)

// Real is the wall clock.
var Real Clock = wall{}

type wall struct{}

func (wall) Now() time.Time { return time.Now() }

// timers recycles Real's timers: a stopped one delivers no stale tick.
var timers = sync.Pool{New: func() any { return time.NewTimer(time.Hour) }}

func (wall) WaitUntil(ctx context.Context, t time.Time, wake <-chan struct{}) error {
	var tick <-chan time.Time // nil for Never, which takes no timer
	if !t.Equal(Never) {
		d := time.Until(t)
		if d <= 0 {
			return nil
		}
		timer := timers.Get().(*time.Timer)
		timer.Reset(d)
		defer func() { timer.Stop(); timers.Put(timer) }()
		tick = timer.C
	}
	select {
	case <-tick:
		return nil
	case <-wake:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Err is ctx.Err() for per-sample checks: a live ctx costs a receive on
// Done, not Err's mutex, and cancel sets the error before it closes Done.
func Err(ctx context.Context) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
		return nil
	}
}

// Since is c.Now().Sub(t): on Real, time.Since, a monotonic-only read.
func Since(c Clock, t time.Time) time.Duration {
	if _, ok := c.(wall); ok {
		return time.Since(t)
	}
	return c.Now().Sub(t)
}

// Sleep waits d on c, or until ctx ends; a non-positive d returns at once.
func Sleep(ctx context.Context, c Clock, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	return c.WaitUntil(ctx, c.Now().Add(d), nil)
}
