package storage

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/prng"
)

// bg is the default context for tests that exercise the data paths rather
// than cancellation.
var bg = context.Background()

func TestMemoryPutGet(t *testing.T) {
	m := NewMemory("ram", 1024, nil, nil)
	ok, err := m.Put(bg, 1, []byte("hello"))
	if err != nil || !ok {
		t.Fatalf("Put: ok=%v err=%v", ok, err)
	}
	data, ok, err := m.Get(bg, 1)
	if err != nil || !ok || string(data) != "hello" {
		t.Fatalf("Get: %q ok=%v err=%v", data, ok, err)
	}
	if !m.Has(1) || m.Has(2) {
		t.Error("Has wrong")
	}
	if m.Used() != 5 {
		t.Errorf("Used = %d, want 5", m.Used())
	}
}

func TestMemoryCapacity(t *testing.T) {
	m := NewMemory("ram", 10, nil, nil)
	if ok, _ := m.Put(bg, 1, make([]byte, 8)); !ok {
		t.Fatal("first put rejected")
	}
	if ok, _ := m.Put(bg, 2, make([]byte, 8)); ok {
		t.Fatal("over-capacity put accepted")
	}
	// Duplicate put of an existing id succeeds without double-counting.
	if ok, _ := m.Put(bg, 1, make([]byte, 8)); !ok {
		t.Fatal("duplicate put rejected")
	}
	if m.Used() != 8 {
		t.Errorf("Used = %d after duplicate put, want 8", m.Used())
	}
}

func TestMemoryGetMissing(t *testing.T) {
	m := NewMemory("ram", 10, nil, nil)
	if _, ok, err := m.Get(bg, 9); ok || err != nil {
		t.Fatal("missing sample reported present")
	}
}

func TestMemoryTakesOwnership(t *testing.T) {
	// Put keeps the caller's buffer, not a copy, and Get hands that same
	// buffer out: a fill costs no second allocation, and readers share it.
	m := NewMemory("ram", 100, nil, nil)
	src := []byte("abc")
	m.Put(bg, 1, src)
	data, _, _ := m.Get(bg, 1)
	again, _, _ := m.Get(bg, 1)
	if &data[0] != &src[0] || &again[0] != &src[0] {
		t.Error("backend copied the payload it was given")
	}
	if string(data) != "abc" || m.Used() != 3 {
		t.Errorf("stored %q, used %d", data, m.Used())
	}
}

func TestSizeClass(t *testing.T) {
	if c := sizeClass(0); c != 0 {
		t.Errorf("sizeClass(0) = %d", c)
	}
	for n := 1; n <= 1<<20; n++ {
		c := sizeClass(n)
		if c < n || c-n > (n-1)/8 || sizeClass(c) != c {
			t.Fatalf("sizeClass(%d) = %d: short, over an eighth larger, or not a class", n, c)
		}
	}
}

func TestStagingReleaseRecyclesBuffers(t *testing.T) {
	s := NewStaging(3 << 10)
	a := s.Buffer(1000)
	if len(a) != 1000 || cap(a) != sizeClass(1000) {
		t.Fatalf("Buffer(1000): len %d cap %d", len(a), cap(a))
	}
	s.Release(a)
	// Any size of the class gets the released buffer back; another class
	// gets a new one.
	if b := s.Buffer(cap(a)); &b[0] != &a[0] || len(b) != cap(a) {
		t.Error("a released buffer was not reused for its size class")
	}
	if c := s.Buffer(2000); cap(c) != sizeClass(2000) {
		t.Errorf("Buffer(2000): cap %d", cap(c))
	}
	// The free list holds at most the staging budget, and only buffers whose
	// capacity is a size class.
	bufs := [][]byte{s.Buffer(1024), s.Buffer(1024), s.Buffer(1024), s.Buffer(1024), make([]byte, 10, 100)}
	s.Release(bufs...)
	if s.freeBytes != 3<<10 || len(s.free[100]) != 0 {
		t.Errorf("free list holds %d bytes (budget %d), %d odd-sized buffers", s.freeBytes, 3<<10, len(s.free[100]))
	}
}

func TestStagingTryPop(t *testing.T) {
	s := NewStaging(100)
	if _, ok := s.TryPop(bg); ok {
		t.Fatal("TryPop of an empty buffer succeeded")
	}
	s.Push(bg, 0, 7, []byte("x"))
	canceled, cancel := context.WithCancel(bg)
	cancel()
	if _, ok := s.TryPop(canceled); ok {
		t.Fatal("TryPop under a canceled context succeeded")
	}
	if e, ok := s.TryPop(bg); !ok || e.ID != 7 || s.Used() != 0 {
		t.Fatalf("TryPop: %+v %v, used %d", e, ok, s.Used())
	}
}

func TestBackendCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// Rate-limited backends must refuse canceled work instead of sleeping
	// out the reservation.
	m := NewMemory("ram", 1<<20, NewLimiter(1), NewLimiter(1))
	if ok, err := m.Put(ctx, 1, make([]byte, 1<<19)); ok || !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled Put: ok=%v err=%v", ok, err)
	}
	if m.Has(1) {
		t.Error("canceled Put published the sample")
	}
	m2 := NewMemory("ram", 1<<20, NewLimiter(1), nil)
	m2.Put(bg, 2, make([]byte, 1<<19))
	if _, ok, err := m2.Get(ctx, 2); ok || !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled Get: ok=%v err=%v", ok, err)
	}
}

func TestFSBackend(t *testing.T) {
	f, err := NewFS("ssd", t.TempDir(), 1<<20, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("sample-bytes")
	if ok, err := f.Put(bg, 7, payload); !ok || err != nil {
		t.Fatalf("Put: ok=%v err=%v", ok, err)
	}
	data, ok, err := f.Get(bg, 7)
	if err != nil || !ok || string(data) != string(payload) {
		t.Fatalf("Get: %q ok=%v err=%v", data, ok, err)
	}
	if ok, _ := f.Put(bg, 8, make([]byte, 1<<21)); ok {
		t.Error("over-capacity fs put accepted")
	}
	if f.Used() != int64(len(payload)) {
		t.Errorf("Used = %d", f.Used())
	}
	if f.Name() != "ssd" {
		t.Error("name wrong")
	}
}

func TestFSConcurrentPuts(t *testing.T) {
	f, err := NewFS("ssd", t.TempDir(), 100, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func(id int32) {
			defer wg.Done()
			f.Put(bg, id, make([]byte, 10))
		}(int32(i))
	}
	wg.Wait()
	if f.Used() > 100 {
		t.Errorf("capacity oversubscribed: %d > 100", f.Used())
	}
	count := 0
	for i := int32(0); i < 20; i++ {
		if f.Has(i) {
			count++
		}
	}
	if count != 10 {
		t.Errorf("stored %d samples in 100 bytes, want exactly 10", count)
	}
}

// manualClock is a clock.Clock that moves only when the test advances it.
// A WaitUntil that has to wait parks: it reports its release instant, as an
// offset from the clock's start, on parked (unbuffered, so the test accounts
// for every park) and returns once the clock reaches that instant, its wake
// channel fires, or its context ends.
type manualClock struct {
	mu      sync.Mutex
	start   time.Time
	now     time.Time
	waiters map[chan struct{}]time.Time
	parked  chan time.Duration
}

func newManualClock() *manualClock {
	t0 := time.Unix(1_000_000, 0)
	return &manualClock{start: t0, now: t0, waiters: map[chan struct{}]time.Time{}, parked: make(chan time.Duration)}
}

func (c *manualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *manualClock) WaitUntil(ctx context.Context, t time.Time, wake <-chan struct{}) error {
	c.mu.Lock()
	if !t.After(c.now) {
		c.mu.Unlock()
		return nil
	}
	done := make(chan struct{})
	c.waiters[done] = t
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.waiters, done)
		c.mu.Unlock()
	}()
	c.parked <- t.Sub(c.start)
	select {
	case <-done:
		return nil
	case <-wake:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// advance moves the clock by d and releases every waiter it reaches.
func (c *manualClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
	for done, t := range c.waiters {
		if !t.After(c.now) {
			close(done)
			delete(c.waiters, done)
		}
	}
}

// elapsed is the clock's progress since its start.
func (c *manualClock) elapsed() time.Duration { return c.Now().Sub(c.start) }

// park returns the release offset of the next waiter to park.
func (c *manualClock) park(t *testing.T) time.Duration {
	t.Helper()
	select {
	case d := <-c.parked:
		return d
	case <-time.After(5 * time.Second):
		t.Fatal("no waiter parked on the manual clock")
		return 0
	}
}

// manualLimiter is NewLimiter(mbps) on a fresh manual clock.
func manualLimiter(mbps float64) (*Limiter, *manualClock) {
	c := newManualClock()
	l := NewLimiter(mbps)
	l.clock = c
	return l, c
}

// waitAll runs Wait(n) on l from each of waiters goroutines and returns a
// channel that yields each one's error.
func waitAll(ctx context.Context, l *Limiter, waiters int, n int64) chan error {
	done := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		go func() { done <- l.Wait(ctx, n) }()
	}
	return done
}

// returned receives count results from done and fails on any error.
func returned(t *testing.T, done chan error, count int) {
	t.Helper()
	for i := 0; i < count; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("Wait returned %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d waiters did not return", count-i, count)
		}
	}
}

// parkedAt collects count parks and returns their release offsets in order.
func parkedAt(t *testing.T, c *manualClock, count int) []time.Duration {
	t.Helper()
	got := make([]time.Duration, count)
	for i := range got {
		got[i] = c.park(t)
	}
	slices.Sort(got)
	return got
}

// quarters are the release offsets of four 1 MiB waiters at 8 MB/s.
var quarters = []time.Duration{125 * time.Millisecond, 250 * time.Millisecond, 375 * time.Millisecond, 500 * time.Millisecond}

// TestLimiterRate: concurrent waiters share the rate. Four 1 MiB waits on
// an 8 MB/s limiter are granted consecutive eighths of a second, so they
// release at exactly +125, +250, +375 and +500 ms.
func TestLimiterRate(t *testing.T) {
	l, c := manualLimiter(8)
	done := waitAll(bg, l, 4, 1<<20)
	if got := parkedAt(t, c, 4); !slices.Equal(got, quarters) {
		t.Fatalf("release offsets %v, want %v", got, quarters)
	}
	c.advance(quarters[3])
	returned(t, done, 4)
	// An idle second drains the backlog but banks no credit: a new 4 MiB
	// wait releases 0.5 s from now.
	c.advance(time.Second)
	done = waitAll(bg, l, 1, 4<<20)
	if got := c.park(t); got != 2*time.Second {
		t.Fatalf("4 MiB after an idle second releases at +%v, want +2s", got)
	}
	c.advance(500 * time.Millisecond)
	returned(t, done, 1)
}

// TestLimiterUnlimitedForms pins the "rate <= 0 means unlimited" contract
// across every way of arriving at an unlimited limiter: nil receiver,
// zero-value struct, NewLimiter with zero/negative rates, and SetRate with
// zero/negative rates. None may block, divide by zero, or panic.
func TestLimiterUnlimitedForms(t *testing.T) {
	cases := []struct {
		name string
		lim  *Limiter
	}{
		{"nil", nil},
		{"zero-value", &Limiter{}},
		{"new-zero", NewLimiter(0)},
		{"new-negative", NewLimiter(-5)},
		{"setrate-zero", func() *Limiter { l := NewLimiter(10); l.SetRate(0); return l }()},
		{"setrate-negative", func() *Limiter { l := NewLimiter(10); l.SetRate(-1); return l }()},
		{"zero-value-setrate-zero", func() *Limiter { l := &Limiter{}; l.SetRate(0); return l }()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			done := make(chan error, 1)
			go func() { done <- tc.lim.Wait(bg, 1<<30) }()
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("unlimited Wait returned %v", err)
				}
			case <-time.After(time.Second):
				t.Fatal("unlimited limiter blocked")
			}
		})
	}
	if err := NewLimiter(100).Wait(bg, 0); err != nil { // zero bytes free
		t.Fatal(err)
	}
	if err := NewLimiter(100).Wait(bg, -10); err != nil { // negative bytes free
		t.Fatal(err)
	}
}

// TestLimiterSetRateTransitions pins SetRate's edge cases: enabling a rate
// on an unlimited limiter starts pacing, disabling mid-run releases every
// in-flight waiter, and changing the rate re-prices a waiter whose original
// grant lay in the far future (no stranded sleeps).
func TestLimiterSetRateTransitions(t *testing.T) {
	t.Run("enable-on-unlimited", func(t *testing.T) {
		l, c := manualLimiter(0)
		if err := l.Wait(bg, 1<<30); err != nil { // free while unlimited
			t.Fatal(err)
		}
		l.SetRate(8)
		// Pre-SetRate reservations are not billed.
		done := waitAll(bg, l, 4, 1<<20)
		if got := parkedAt(t, c, 4); !slices.Equal(got, quarters) {
			t.Fatalf("release offsets %v, want %v", got, quarters)
		}
		c.advance(quarters[3])
		returned(t, done, 4)
	})
	t.Run("disable-releases-waiter", func(t *testing.T) {
		l, c := manualLimiter(1)
		done := waitAll(bg, l, 1, 64<<20)
		if got := c.park(t); got != 64*time.Second {
			t.Fatalf("64 MiB at 1 MB/s releases at +%v, want +64s", got)
		}
		l.SetRate(0)
		returned(t, done, 1)
		if e := c.elapsed(); e != 0 {
			t.Errorf("released after %v of clock time, want 0", e)
		}
	})
	t.Run("raise-reprices-waiter", func(t *testing.T) {
		l, c := manualLimiter(1.0 / 1024) // 1 KiB/s
		done := waitAll(bg, l, 1, 1<<20)
		if got := c.park(t); got != 1024*time.Second {
			t.Fatalf("1 MiB at 1 KiB/s releases at +%v, want +1024s", got)
		}
		l.SetRate(1)
		if got := c.park(t); got != time.Second {
			t.Fatalf("re-priced at 1 MB/s, the waiter releases at +%v, want +1s", got)
		}
		c.advance(time.Second)
		returned(t, done, 1)
	})
	t.Run("lower-slows-later-waiters", func(t *testing.T) {
		l, c := manualLimiter(10_000)
		l.SetRate(8)
		done := waitAll(bg, l, 1, 4<<20)
		if got := c.park(t); got != 500*time.Millisecond {
			t.Fatalf("4 MiB at lowered 8 MB/s releases at +%v, want +500ms", got)
		}
		c.advance(500 * time.Millisecond)
		returned(t, done, 1)
	})
}

// TestLimiterObserver checks the instrumentation hook: every wait that
// slept reports its blocked clock time, a canceled one included, and free
// passes stay silent.
func TestLimiterObserver(t *testing.T) {
	// The observer runs inside Wait, so once a waiter has returned its
	// report, if any, is already buffered.
	seen := make(chan float64, 1)
	report := func() string {
		select {
		case s := <-seen:
			return fmt.Sprintf("%gs", s)
		default:
			return "none"
		}
	}
	l, c := manualLimiter(8)
	l.SetObserver(func(s float64) { seen <- s })
	done := waitAll(bg, l, 1, 4<<20)
	if got := c.park(t); got != 500*time.Millisecond {
		t.Fatalf("4 MiB at 8 MB/s releases at +%v, want +500ms", got)
	}
	c.advance(500 * time.Millisecond)
	returned(t, done, 1)
	if got := report(); got != "0.5s" {
		t.Errorf("observer saw %s of wait, want 0.5s", got)
	}
	if err := l.Wait(bg, 1024); err != nil { // under the sleep quantum: free
		t.Fatal(err)
	}
	if got := report(); got != "none" {
		t.Errorf("a free pass reported %s", got)
	}
	// Canceled three seconds into a 64 s wait, a wait reports the three
	// seconds.
	l, c = manualLimiter(1)
	l.SetObserver(func(s float64) { seen <- s })
	ctx, cancel := context.WithCancel(bg)
	done = waitAll(ctx, l, 1, 64<<20)
	if got := c.park(t); got != 64*time.Second {
		t.Fatalf("64 MiB at 1 MB/s releases at +%v, want +64s", got)
	}
	c.advance(3 * time.Second)
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled wait returned %v", err)
	}
	if got := report(); got != "3s" {
		t.Errorf("canceled wait reported %s, want 3s", got)
	}
	unlimited := NewLimiter(0)
	unlimited.SetObserver(func(s float64) { t.Errorf("unlimited wait observed %.3fs", s) })
	if err := unlimited.Wait(bg, 1<<30); err != nil {
		t.Fatal(err)
	}
}

// TestLimiterWaitCancel: a 1 MB/s limiter asked for 64 MB would sleep 64 s;
// cancellation interrupts the sleep with no clock time passing.
func TestLimiterWaitCancel(t *testing.T) {
	l, c := manualLimiter(1)
	ctx, cancel := context.WithCancel(context.Background())
	done := waitAll(ctx, l, 1, 64<<20)
	c.park(t)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("got %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled limiter wait did not return")
	}
	// A canceled context short-circuits even the nil limiter.
	var nilL *Limiter
	if err := nilL.Wait(ctx, 1); !errors.Is(err, context.Canceled) {
		t.Errorf("nil limiter ignored canceled context: %v", err)
	}
}

func TestStagingInOrderDelivery(t *testing.T) {
	s := NewStaging(1 << 20)
	const n = 100
	// Push positions out of order from concurrent producers.
	var wg sync.WaitGroup
	g := prng.New(1)
	order := g.Perm(n)
	for _, pos := range order {
		wg.Add(1)
		go func(pos int) {
			defer wg.Done()
			if err := s.Push(bg, pos, int32(pos*10), []byte{byte(pos)}); err != nil {
				t.Errorf("push %d: %v", pos, err)
			}
		}(pos)
	}
	for i := 0; i < n; i++ {
		e, err := s.Pop(bg)
		if err != nil {
			t.Fatal(err)
		}
		if e.Pos != i || e.ID != int32(i*10) {
			t.Fatalf("pop %d returned pos %d id %d", i, e.Pos, e.ID)
		}
	}
	wg.Wait()
	if s.Used() != 0 {
		t.Errorf("Used = %d after draining", s.Used())
	}
}

func TestStagingBudgetBlocks(t *testing.T) {
	s := NewStaging(10)
	if err := s.Push(bg, 0, 0, make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	pushed := make(chan struct{})
	go func() {
		s.Push(bg, 1, 1, make([]byte, 8)) // must block: 16 > 10
		close(pushed)
	}()
	select {
	case <-pushed:
		t.Fatal("push succeeded beyond byte budget")
	case <-time.After(50 * time.Millisecond):
	}
	if _, err := s.Pop(bg); err != nil {
		t.Fatal(err)
	}
	select {
	case <-pushed:
	case <-time.After(time.Second):
		t.Fatal("push did not unblock after pop freed budget")
	}
}

func TestStagingOversizedSampleNoDeadlock(t *testing.T) {
	// A sample larger than the whole budget must still pass when it is the
	// next to be consumed.
	s := NewStaging(4)
	done := make(chan error, 1)
	go func() {
		done <- s.Push(bg, 0, 0, make([]byte, 64))
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("oversized head-of-line sample deadlocked")
	}
	if e, err := s.Pop(bg); err != nil || len(e.Data) != 64 {
		t.Fatalf("pop: %v", err)
	}
}

func TestStagingClose(t *testing.T) {
	s := NewStaging(100)
	s.Push(bg, 0, 5, []byte("x"))
	s.Close()
	// Drains staged prefix first.
	if e, err := s.Pop(bg); err != nil || e.ID != 5 {
		t.Fatalf("pop after close: %v", err)
	}
	if _, err := s.Pop(bg); err != ErrClosed {
		t.Fatalf("expected ErrClosed, got %v", err)
	}
	if err := s.Push(bg, 1, 6, []byte("y")); err != ErrClosed {
		t.Fatalf("push after close: %v", err)
	}
}

func TestStagingCancelUnblocks(t *testing.T) {
	// A Pop blocked on an empty buffer and a Push blocked on a full budget
	// must both return the context error promptly on cancel, leaving the
	// buffer usable for other contexts.
	s := NewStaging(10)
	ctx, cancel := context.WithCancel(context.Background())
	popDone := make(chan error, 1)
	go func() {
		_, err := s.Pop(ctx)
		popDone <- err
	}()
	if err := s.Push(bg, 1, 1, make([]byte, 8)); err != nil { // pos 1: does not satisfy Pop(0)
		t.Fatal(err)
	}
	pushDone := make(chan error, 1)
	go func() {
		pushDone <- s.Push(ctx, 2, 2, make([]byte, 8)) // blocks: budget full, not next pop
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	for name, ch := range map[string]chan error{"pop": popDone, "push": pushDone} {
		select {
		case err := <-ch:
			if !errors.Is(err, context.Canceled) {
				t.Errorf("%s returned %v, want context.Canceled", name, err)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("canceled %s did not return", name)
		}
	}
	// The buffer itself is still healthy under a live context.
	if err := s.Push(bg, 0, 0, []byte("z")); err != nil {
		t.Fatal(err)
	}
	if e, err := s.Pop(bg); err != nil || e.Pos != 0 {
		t.Fatalf("pop after cancel: %+v %v", e, err)
	}
}

func TestStagingDuplicatePosition(t *testing.T) {
	s := NewStaging(100)
	s.Push(bg, 0, 1, []byte("a"))
	if err := s.Push(bg, 0, 2, []byte("b")); err == nil {
		t.Fatal("duplicate position accepted")
	}
}

func BenchmarkStagingThroughput(b *testing.B) {
	s := NewStaging(1 << 24)
	data := make([]byte, 4096)
	go func() {
		for i := 0; i < b.N; i++ {
			s.Push(bg, i, int32(i), data)
		}
	}()
	b.SetBytes(4096)
	for i := 0; i < b.N; i++ {
		if _, err := s.Pop(bg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMemoryBackend(b *testing.B) {
	m := NewMemory("ram", 1<<30, nil, nil)
	data := make([]byte, 4096)
	b.SetBytes(4096)
	for i := 0; i < b.N; i++ {
		id := int32(i % 1000)
		m.Put(bg, id, data)
		if _, ok, _ := m.Get(bg, id); !ok {
			b.Fatal("miss")
		}
	}
}
