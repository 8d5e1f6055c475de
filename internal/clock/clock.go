// Package clock is the live substrate's one source of time: the limiter,
// the resilience layer and the fabric-call decorator read and wait on a
// Clock, so their tests can release waiters at exact instants of a manual
// clock instead of sleeping. Production code uses Real.
package clock

import (
	"context"
	"time"
)

// Clock reads the time and waits on it.
type Clock interface {
	Now() time.Time
	// WaitUntil blocks until the clock reaches t, wake is closed (a nil
	// wake never is) or ctx ends, and returns ctx's error in the last case.
	WaitUntil(ctx context.Context, t time.Time, wake <-chan struct{}) error
}

// Real is the wall clock.
var Real Clock = wall{}

type wall struct{}

func (wall) Now() time.Time { return time.Now() }

func (wall) WaitUntil(ctx context.Context, t time.Time, wake <-chan struct{}) error {
	d := time.Until(t)
	if d <= 0 {
		return nil
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-wake:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Sleep waits d on c, or until ctx ends; a non-positive d returns at once.
func Sleep(ctx context.Context, c Clock, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	return c.WaitUntil(ctx, c.Now().Add(d), nil)
}
