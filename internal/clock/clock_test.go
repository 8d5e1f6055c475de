package clock

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestRealWaitUntil: the wall clock's wait returns at its instant, at a
// wake, or with ctx's error, and at once for an instant already reached; a
// wait for Never returns only at a wake or with ctx's error.
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
	if err := Real.WaitUntil(bg, Never, wake); err != nil {
		t.Errorf("woken wait for Never: %v, want nil", err)
	}
	if err := Real.WaitUntil(canceled, Never, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled wait for Never: %v, want context.Canceled", err)
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

// TestRealWaitUntilAllocs: a wall-clock wait that blocks reuses a pooled
// timer instead of allocating one.
func TestRealWaitUntilAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	allocs := testing.AllocsPerRun(20, func() {
		if err := Real.WaitUntil(ctx, Real.Now().Add(50*time.Microsecond), nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("a short WaitUntil allocates %.1f objects, want 0", allocs)
	}
}

// TestErr: Err agrees with ctx.Err for live, canceled, expired and
// uncancellable contexts.
func TestErr(t *testing.T) {
	live, cancelLive := context.WithCancel(context.Background())
	defer cancelLive()
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, cancelExpired := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer cancelExpired()
	for _, ctx := range []context.Context{context.Background(), live, canceled, expired} {
		if got, want := Err(ctx), ctx.Err(); got != want {
			t.Errorf("Err = %v, ctx.Err = %v", got, want)
		}
	}
}

// TestSince: on a manual clock Since is Now().Sub(t) with one read; on Real
// it is time.Since, non-negative and ordered between two wall readings.
func TestSince(t *testing.T) {
	c := &frozen{t: time.Unix(100, 0)}
	if got := Since(c, time.Unix(97, 0)); got != 3*time.Second {
		t.Errorf("manual Since = %v, want 3s", got)
	}
	if got := Since(c, time.Unix(101, 0)); got != -time.Second {
		t.Errorf("manual Since of a later instant = %v, want -1s", got)
	}
	start := Real.Now()
	time.Sleep(time.Millisecond)
	lo := Real.Now().Sub(start)
	d := Since(Real, start)
	hi := Real.Now().Sub(start)
	if d < lo || d > hi || d < time.Millisecond {
		t.Errorf("Real Since = %v, want within [%v, %v] and >= 1ms", d, lo, hi)
	}
	if got := Since(Real, start.Add(time.Hour)); got >= 0 {
		t.Errorf("Real Since of an instant an hour ahead = %v, want negative", got)
	}
}
