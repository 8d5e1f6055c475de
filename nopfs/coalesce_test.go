package nopfs

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// The flight-table tests use no sleeps. The leader's read blocks on a gate
// the test owns, and a follower announces itself through its context:
// flight.wait evaluates ctx.Done() only in the select it blocks in, after
// join has handed it the flight, so a context whose Done reports the call
// tells the test the follower is attached before the gate opens.

// do runs read for sample k through the table the way Job.readPFS does:
// lead, read and retire — or wait for whoever is already reading.
func (t *flights) do(ctx context.Context, k int32, read func() ([]byte, error)) (data []byte, shared bool, err error) {
	f, leader := t.join(k)
	if !leader {
		data, err = f.wait(ctx)
		return data, true, err
	}
	data, err = read()
	t.retire(k, data, err)
	return data, false, err
}

// arrivalCtx signals arrived the first time Done is called.
type arrivalCtx struct {
	context.Context
	once    sync.Once
	arrived *sync.WaitGroup
}

func (c *arrivalCtx) Done() <-chan struct{} {
	c.once.Do(c.arrived.Done)
	return c.Context.Done()
}

// gatedRead is a read function that counts its calls, reports each entry on
// entered, and returns data/err once gate is closed.
type gatedRead struct {
	calls   atomic.Int64
	entered chan struct{}
	gate    chan struct{}
	data    []byte
	err     error
}

func newGatedRead(data []byte, err error) *gatedRead {
	// entered is buffered past the caller counts used here, so a follower
	// that wrongly leads is reported by the read count, not by a hang.
	return &gatedRead{entered: make(chan struct{}, 16), gate: make(chan struct{}), data: data, err: err}
}

func (g *gatedRead) read() ([]byte, error) {
	g.calls.Add(1)
	g.entered <- struct{}{}
	<-g.gate
	return g.data, g.err
}

type flightResult struct {
	data   []byte
	shared bool
	err    error
}

// lead starts a leader for key k on its own goroutine and returns once its
// read is running (the flight is in the table).
func lead(t *flights, k int32, g *gatedRead) <-chan flightResult {
	out := make(chan flightResult, 1)
	go func() {
		data, shared, err := t.do(bg, k, g.read)
		out <- flightResult{data, shared, err}
	}()
	<-g.entered
	return out
}

// follow starts n followers of key k and returns once every one of them is
// waiting on the flight.
func follow(t *flights, k int32, n int, g *gatedRead, parent context.Context) <-chan flightResult {
	out := make(chan flightResult, n)
	var arrived sync.WaitGroup
	arrived.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			ctx := &arrivalCtx{Context: parent, arrived: &arrived}
			data, shared, err := t.do(ctx, k, g.read)
			out <- flightResult{data, shared, err}
		}()
	}
	arrived.Wait()
	return out
}

func TestCoalesceOneReadManyCallers(t *testing.T) {
	var table flights
	g := newGatedRead([]byte("payload"), nil)
	leader := lead(&table, 7, g)
	const followers = 8
	rest := follow(&table, 7, followers, g, bg)
	close(g.gate)

	if r := <-leader; r.err != nil || r.shared || string(r.data) != "payload" {
		t.Fatalf("leader got (%q, shared=%v, %v), want the payload unshared", r.data, r.shared, r.err)
	}
	for i := 0; i < followers; i++ {
		r := <-rest
		if r.err != nil || !r.shared {
			t.Fatalf("follower got (shared=%v, %v), want the leader's result shared", r.shared, r.err)
		}
		if &r.data[0] != &g.data[0] {
			t.Fatal("follower's bytes are not the leader's buffer")
		}
	}
	if n := g.calls.Load(); n != 1 {
		t.Fatalf("%d reads for %d concurrent callers of one key, want exactly 1", n, followers+1)
	}
	if len(table.m) != 0 {
		t.Fatalf("table still holds %d flights after retirement", len(table.m))
	}
}

func TestCoalesceFollowerCancelLeavesLeader(t *testing.T) {
	var table flights
	g := newGatedRead([]byte("payload"), nil)
	leader := lead(&table, 7, g)
	ctx, cancel := context.WithCancel(bg)
	gone := follow(&table, 7, 1, g, ctx)
	stays := follow(&table, 7, 1, g, bg)
	cancel()
	if r := <-gone; !errors.Is(r.err, context.Canceled) || r.data != nil {
		t.Fatalf("cancelled follower got (%q, %v), want context.Canceled and no bytes", r.data, r.err)
	}
	select {
	case r := <-leader:
		t.Fatalf("leader returned (%v) before its read finished", r.err)
	default:
	}
	close(g.gate)
	for _, ch := range []<-chan flightResult{leader, stays} {
		if r := <-ch; r.err != nil || string(r.data) != "payload" {
			t.Fatalf("got (%q, %v) after a sibling's cancellation, want the payload", r.data, r.err)
		}
	}
	if n := g.calls.Load(); n != 1 {
		t.Fatalf("%d reads, want 1", n)
	}
}

func TestCoalesceLeaderErrorSharedNotCached(t *testing.T) {
	var table flights
	boom := errors.New("boom")
	g := newGatedRead(nil, boom)
	leader := lead(&table, 7, g)
	const followers = 4
	rest := follow(&table, 7, followers, g, bg)
	close(g.gate)
	if r := <-leader; r.err != boom {
		t.Fatalf("leader error = %v, want boom", r.err)
	}
	for i := 0; i < followers; i++ {
		if r := <-rest; r.err != boom || !r.shared {
			t.Fatalf("follower got (shared=%v, %v), want the leader's error", r.shared, r.err)
		}
	}
	// The failure was not remembered: the next caller leads and reads again.
	data, shared, err := table.do(bg, 7, func() ([]byte, error) {
		g.calls.Add(1)
		return []byte("retry"), nil
	})
	if err != nil || shared || string(data) != "retry" {
		t.Fatalf("call after a failed flight got (%q, shared=%v, %v), want a fresh read", data, shared, err)
	}
	if n := g.calls.Load(); n != 2 {
		t.Fatalf("%d reads, want 2 (the failed one and the retry)", n)
	}
}

func TestCoalesceDistinctKeysDoNotSerialise(t *testing.T) {
	var table flights
	g := newGatedRead([]byte("slow"), nil)
	leader := lead(&table, 1, g)
	// Key 1's read is parked on its gate; key 2 must complete regardless
	// (serialised keys would hang here until the test timeout).
	data, shared, err := table.do(bg, 2, func() ([]byte, error) { return []byte("fast"), nil })
	if err != nil || shared || string(data) != "fast" {
		t.Fatalf("key 2 got (%q, shared=%v, %v) while key 1 was in flight", data, shared, err)
	}
	close(g.gate)
	if r := <-leader; r.err != nil || string(r.data) != "slow" {
		t.Fatalf("key 1 got (%q, %v)", r.data, r.err)
	}
}
