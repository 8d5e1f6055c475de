package storage

import (
	"cmp"
	"context"
	"time"

	"repro/internal/clock"
)

// Waiter keeps the clock it waits on, clock.Real unless a test swaps it.
type Waiter struct{ clock clock.Clock }

// NewWaiter stores clock.Real as a default three ways, which the rule
// allows: a field value, an assignment and cmp.Or.
func NewWaiter(c clock.Clock) *Waiter {
	w := &Waiter{clock: clock.Real}
	w.clock = clock.Real
	w.clock = cmp.Or(c, clock.Real)
	return w
}

// Pause waits on the stored clock, which the rule allows.
func (w *Waiter) Pause(ctx context.Context) error { return clock.Sleep(ctx, w.clock, time.Second) }

// PauseReal waits on clock.Real at the call, which no test can swap.
func PauseReal(ctx context.Context) error { return clock.Sleep(ctx, clock.Real, time.Second) }

// Elapsed reads clock.Real through a clock function.
func Elapsed(start time.Time) time.Duration { return clock.Since(clock.Real, start) }

// Stamped reads clock.Real through a method call.
func Stamped() time.Time { return clock.Real.Now() }
