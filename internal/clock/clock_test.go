package clock

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestRealWaitUntil: the wall clock's wait returns at its instant, at a
// wake, or with ctx's error, and at once for an instant already reached.
func TestRealWaitUntil(t *testing.T) {
	bg := context.Background()
	canceled, cancel := context.WithCancel(bg)
	cancel()
	if err := Real.WaitUntil(canceled, Real.Now().Add(-time.Second), nil); err != nil {
		t.Errorf("past instant: %v, want nil", err)
	}
	due := Real.Now().Add(2 * time.Millisecond)
	if err := Real.WaitUntil(bg, due, nil); err != nil || Real.Now().Before(due) {
		t.Errorf("2ms wait returned %v at %v before its instant", err, due.Sub(Real.Now()))
	}
	wake := make(chan struct{})
	close(wake)
	if err := Real.WaitUntil(bg, Real.Now().Add(time.Hour), wake); err != nil {
		t.Errorf("woken wait: %v, want nil", err)
	}
	if err := Real.WaitUntil(canceled, Real.Now().Add(time.Hour), nil); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled wait: %v, want context.Canceled", err)
	}
}

// TestRealWaitUntilCancelUnblocks: a cancel that lands mid-wait ends an
// hour's wait.
func TestRealWaitUntilCancelUnblocks(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- Real.WaitUntil(ctx, Real.Now().Add(time.Hour), nil) }()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("got %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled wait did not return")
	}
}

// frozen stands still at t and logs the instants it is asked to wait for.
type frozen struct {
	t     time.Time
	waits []time.Time
}

func (c *frozen) Now() time.Time { return c.t }

func (c *frozen) WaitUntil(ctx context.Context, t time.Time, _ <-chan struct{}) error {
	c.waits = append(c.waits, t)
	return ctx.Err()
}

// TestSleep: Sleep waits until exactly Now()+d on its clock and skips
// non-positive durations without waiting.
func TestSleep(t *testing.T) {
	c := &frozen{t: time.Unix(100, 0)}
	for _, d := range []time.Duration{0, -time.Second, 3 * time.Second} {
		if err := Sleep(context.Background(), c, d); err != nil {
			t.Fatalf("Sleep(%v) = %v", d, err)
		}
	}
	if len(c.waits) != 1 || !c.waits[0].Equal(time.Unix(103, 0)) {
		t.Errorf("waits %v, want one until +3s", c.waits)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := Sleep(ctx, Real, time.Hour); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled Sleep: %v, want context.Canceled", err)
	}
}
