package storage

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
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

// payloadFor is id's payload in the concurrent Memory tests: 8 to 31 bytes,
// the id little-endian then tag, so a reader can tell whose bytes it got and
// whether a duplicate Put's replacement (another tag) was stored.
func payloadFor(id int32, tag byte) []byte {
	b := make([]byte, 8+id%24)
	binary.LittleEndian.PutUint32(b, uint32(id))
	for i := 4; i < len(b); i++ {
		b[i] = tag
	}
	return b
}

func TestMemoryConcurrentPutGet(t *testing.T) {
	// Two writers store a shuffled [0, n) (so the slot table grows in
	// jumps while readers run) and re-put published ids with a different
	// payload; two readers race them. A Put that returned before a read began is
	// visible to its Get and Has, a Get returns only its own id's original
	// payload, and Used is the originals' bytes.
	const n = 4096
	m := NewMemory("ram", 1<<30, nil, nil)
	var published [n]atomic.Bool
	var want atomic.Int64
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	order := prng.New(5).Perm(n)
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := w; i < n; i += 2 {
				id := int32(order[i])
				data := payloadFor(id, 0xa0)
				if ok, err := m.Put(bg, id, data); !ok || err != nil {
					t.Errorf("Put(%d): ok=%v err=%v", id, ok, err)
					return
				}
				want.Add(int64(len(data)))
				published[id].Store(true)
				if dup := int32(order[i/2]); published[dup].Load() {
					if ok, err := m.Put(bg, dup, payloadFor(dup, 0xd0)); !ok || err != nil {
						t.Errorf("duplicate Put(%d): ok=%v err=%v", dup, ok, err)
					}
				}
			}
		}()
	}
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			g := prng.New(uint64(r))
			for {
				select {
				case <-stop:
					return
				default:
				}
				id := int32(g.Intn(n + 64))
				seen := id < n && published[id].Load()
				has := m.Has(id)
				data, ok, err := m.Get(bg, id)
				if err != nil || seen && (!has || !ok) {
					t.Errorf("id %d published before the read: Has %v, Get ok=%v err=%v", id, has, ok, err)
					return
				}
				if ok && !bytes.Equal(data, payloadFor(id, 0xa0)) {
					t.Errorf("Get(%d) returned % x", id, data)
					return
				}
			}
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	if m.Used() != want.Load() {
		t.Errorf("Used = %d, want %d", m.Used(), want.Load())
	}
	for id := int32(0); id < n; id++ {
		if data, ok, _ := m.Get(bg, id); !ok || !m.Has(id) || !bytes.Equal(data, payloadFor(id, 0xa0)) {
			t.Fatalf("after the writers, Get(%d) = % x, %v; Has %v", id, data, ok, m.Has(id))
		}
	}
}

func TestMemoryCanceledPutLeavesNoTrace(t *testing.T) {
	// A Put publishes before it pays the write limiter; canceled while it
	// waits, it takes the sample back out, also after another Put grew the
	// table underneath it, and the id can be stored again.
	lim, clk := manualLimiter(1)
	m := NewMemory("ram", 1<<30, nil, lim)
	put := func(ctx context.Context, id int32, data []byte) chan error {
		done := make(chan error, 1)
		go func() {
			_, err := m.Put(ctx, id, data)
			done <- err
		}()
		clk.park(t)
		return done
	}
	ctx5, cancel5 := context.WithCancel(bg)
	ctx9, cancel9 := context.WithCancel(bg)
	defer cancel9()
	done5 := put(ctx5, 5, make([]byte, 1<<20))
	if !m.Has(5) || m.Used() != 1<<20 {
		t.Fatalf("a waiting Put is not published: Has %v, Used %d", m.Has(5), m.Used())
	}
	done9 := put(ctx9, 9000, make([]byte, 1<<19)) // grows the table
	cancel5()
	if err := <-done5; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled Put returned %v", err)
	}
	if _, ok, _ := m.Get(bg, 5); ok || m.Has(5) || m.Used() != 1<<19 {
		t.Fatalf("canceled Put left a trace: Get ok=%v, Has %v, Used %d", ok, m.Has(5), m.Used())
	}
	cancel9()
	if err := <-done9; !errors.Is(err, context.Canceled) || m.Has(9000) || m.Used() != 0 {
		t.Fatalf("second canceled Put: err %v, Has %v, Used %d", err, m.Has(9000), m.Used())
	}
	again := put(bg, 5, []byte("again"))
	clk.advance(time.Hour)
	if err := <-again; err != nil {
		t.Fatal(err)
	}
	if data, ok, _ := m.Get(bg, 5); !ok || string(data) != "again" || m.Used() != 5 {
		t.Errorf("re-put after a rollback: %q ok=%v, Used %d", data, ok, m.Used())
	}
}

// TestMemoryRolledBackBoxNotReused: a Get that loaded a sample's box before
// its Put rolled back returns that sample's bytes, even after the next Put
// carves its own box: a published box is never carved again.
func TestMemoryRolledBackBoxNotReused(t *testing.T) {
	read, rclk := manualLimiter(1)
	write, wclk := manualLimiter(1)
	m := NewMemory("ram", 1<<30, read, write)
	put := func(ctx context.Context, id int32, data []byte) chan error {
		done := make(chan error, 1)
		go func() {
			_, err := m.Put(ctx, id, data)
			done <- err
		}()
		wclk.park(t)
		return done
	}
	ctx, cancel := context.WithCancel(bg)
	first := put(ctx, 1, bytes.Repeat([]byte{1}, 1<<20))
	type result struct {
		data []byte
		ok   bool
	}
	got := make(chan result, 1)
	go func() {
		data, ok, _ := m.Get(bg, 1)
		got <- result{data, ok}
	}()
	rclk.park(t) // the Get holds sample 1's box
	cancel()
	if err := <-first; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled Put returned %v", err)
	}
	second := put(bg, 2, bytes.Repeat([]byte{2}, 1<<20))
	rclk.advance(time.Hour)
	if r := <-got; r.ok && !bytes.Equal(r.data, bytes.Repeat([]byte{1}, 1<<20)) {
		t.Errorf("a Get of rolled-back sample 1 returned other bytes (first byte %d)", r.data[0])
	}
	wclk.advance(time.Hour)
	if err := <-second; err != nil {
		t.Fatal(err)
	}
}

func TestSizeClass(t *testing.T) {
	if c, _ := sizeClass(0); c != 0 {
		t.Errorf("sizeClass(0) = %d", c)
	}
	for n := 1; n <= 1<<20; n++ {
		c, _ := sizeClass(n)
		if cc, _ := sizeClass(c); c < n || c-n > (n-1)/8 || cc != c {
			t.Fatalf("sizeClass(%d) = %d: short, over an eighth larger, or not a class", n, c)
		}
	}
}

func TestStagingReleaseRecyclesBuffers(t *testing.T) {
	s := NewStaging(3 << 10)
	a := s.Buffer(1000)
	if c, _ := sizeClass(1000); len(a) != 1000 || cap(a) != c {
		t.Fatalf("Buffer(1000): len %d cap %d", len(a), cap(a))
	}
	s.Release(a)
	// Any size of the class gets the released buffer back; another class
	// gets a new one.
	if b := s.Buffer(cap(a)); &b[0] != &a[0] || len(b) != cap(a) {
		t.Error("a released buffer was not reused for its size class")
	}
	if c, want := s.Buffer(2000), 2048; cap(c) != want {
		t.Errorf("Buffer(2000): cap %d, want %d", cap(c), want)
	}
	// The free list holds at most the staging budget, and only buffers whose
	// capacity is a size class.
	bufs := [][]byte{s.Buffer(1024), s.Buffer(1024), s.Buffer(1024), s.Buffer(1024), make([]byte, 10, 100)}
	s.Release(bufs...)
	odd := 0
	for _, l := range s.free {
		for _, b := range l {
			if cap(b) == 100 {
				odd++
			}
		}
	}
	if s.freeBytes != 3<<10 || odd != 0 {
		t.Errorf("free list holds %d bytes (budget %d), %d odd-sized buffers", s.freeBytes, 3<<10, odd)
	}
}

func TestStagingSizeClassOrdinals(t *testing.T) {
	// Every size class from 1 B up to the 1 GiB wire cap of a fetched
	// payload has its own free-list ordinal, in order, the cap's being the
	// free list's last. Buffer and Release round-trip a buffer of each class
	// up to 8 MiB through its own list (larger ones are not allocated here).
	const wireCap = 1 << 30
	s := NewStaging(16 << 20)
	ord := 0
	for n := 1; n <= wireCap; ord++ {
		c, o := sizeClass(n)
		if cc, oc := sizeClass(c); o != ord || cc != c || oc != ord {
			t.Fatalf("sizeClass(%d) = %d, ordinal %d (%d for the class itself), want ordinal %d", n, c, o, oc, ord)
		}
		if c <= 8<<20 {
			b := s.Buffer(n)
			s.Release(b)
			if len(b) != n || cap(b) != c || s.freeBytes != int64(c) {
				t.Fatalf("Buffer(%d): len %d cap %d, free list %d bytes", n, len(b), cap(b), s.freeBytes)
			}
			if got := s.Buffer(c); &got[0] != &b[0] || len(got) != c || s.freeBytes != 0 {
				t.Fatalf("the class-%d buffer did not come back from its own list", c)
			}
		}
		n = c + 1
	}
	if ord != len(s.free) {
		t.Errorf("%d size classes up to the wire cap, %d free lists", ord, len(s.free))
	}
	if _, o := sizeClass(wireCap + 1); o < len(s.free) {
		t.Errorf("a buffer past the wire cap maps to free list %d", o)
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

// manualStaging is NewStaging(capBytes) on a fresh manual clock: each Push
// or Pop that parks reports on the clock's parked channel.
func manualStaging(capBytes int64) (*Staging, *manualClock) {
	c := newManualClock()
	s := NewStaging(capBytes)
	s.clock = c
	return s, c
}

func TestStagingBudgetBlocks(t *testing.T) {
	s, c := manualStaging(10)
	if err := s.Push(bg, 0, 0, make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	pushed := make(chan struct{})
	go func() {
		s.Push(bg, 1, 1, make([]byte, 8)) // must block: 16 > 10
		close(pushed)
	}()
	c.park(t)
	select {
	case <-pushed:
		t.Fatal("push succeeded beyond byte budget")
	default:
	}
	if _, err := s.Pop(bg); err != nil {
		t.Fatal(err)
	}
	select {
	case <-pushed:
	case <-time.After(5 * time.Second):
		t.Fatal("push did not unblock after pop freed budget")
	}
}

// TestStagingStalledOnItsClock: a Pop parked while the buffer's clock
// advances 3 s reports exactly 3 s of stall, and a Pop that finds its entry
// staged adds none.
func TestStagingStalledOnItsClock(t *testing.T) {
	s, c := manualStaging(100)
	got := make(chan error, 1)
	go func() {
		_, err := s.Pop(bg) // nothing is staged: the consumer stalls
		got <- err
	}()
	c.park(t)
	c.advance(3 * time.Second)
	if err := s.Push(bg, 0, 0, []byte{1}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-got:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the parked Pop was not woken by the Push of its position")
	}
	s.Push(bg, 1, 1, []byte{1})
	c.advance(time.Second)
	if _, err := s.Pop(bg); err != nil {
		t.Fatal(err)
	}
	if d := s.Stalled(); d != 3*time.Second {
		t.Errorf("Stalled = %v, want exactly 3s", d)
	}
}

// TestStagingParkedPopAllocatesNothing: a Pop that parks on the wall clock
// and is woken by the Push of its position allocates nothing: the consumer's
// wake channel is made once, and a wait for clock.Never takes no timer.
func TestStagingParkedPopAllocatesNothing(t *testing.T) {
	ctx, cancel := context.WithTimeout(bg, 10*time.Second)
	defer cancel()
	s := NewStaging(100)
	parked := func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.popParked
	}
	next := make(chan int)
	defer close(next)
	go func() {
		for pos := range next {
			for !parked() && ctx.Err() == nil {
				runtime.Gosched()
			}
			s.Push(ctx, pos, 0, nil)
		}
	}()
	pos := 0
	allocs := testing.AllocsPerRun(100, func() {
		next <- pos
		if e, err := s.Pop(ctx); err != nil || e.Pos != pos {
			t.Fatalf("pop %d: %+v %v", pos, e, err)
		}
		pos++
	})
	if allocs != 0 {
		t.Errorf("a parked Pop woken by a Push allocates %.1f objects, want 0", allocs)
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
	// Close fails a producer parked on the byte budget, and the consumer
	// still drains the staged prefix.
	s, c := manualStaging(1)
	s.Push(bg, 0, 5, []byte("x"))
	parked := make(chan error, 1)
	go func() { parked <- s.Push(bg, 1, 6, []byte("y")) }()
	c.park(t)
	s.Close()
	select {
	case err := <-parked:
		if err != ErrClosed {
			t.Fatalf("parked push after close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not wake the parked push")
	}
	if e, err := s.Pop(bg); err != nil || e.ID != 5 {
		t.Fatalf("pop after close: %v", err)
	}
	if _, err := s.Pop(bg); err != ErrClosed {
		t.Fatalf("expected ErrClosed, got %v", err)
	}
	if err := s.Push(bg, 2, 7, []byte("z")); err != ErrClosed {
		t.Fatalf("push after close: %v", err)
	}
}

func TestStagingCancelUnblocks(t *testing.T) {
	// A Pop blocked on an empty buffer and a Push blocked on a full budget
	// must both return the context error promptly on cancel, leaving the
	// buffer usable for other contexts. The push waits under a child of the
	// pop's context, so one cancel ends both.
	s, c := manualStaging(10)
	ctx, cancel := context.WithCancel(context.Background())
	pushCtx, cancelPush := context.WithCancel(ctx)
	defer cancelPush()
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
		pushDone <- s.Push(pushCtx, 2, 2, make([]byte, 8)) // blocks: budget full, not next pop
	}()
	c.park(t)
	c.park(t)
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
	// The buffer itself is still healthy under a live context, and a Pop
	// under the canceled one takes nothing, even with its entry staged.
	if err := s.Push(bg, 0, 0, []byte("z")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Pop(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled pop of a staged entry: %v, want context.Canceled", err)
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

func TestStagingRingGrowsAcrossWrap(t *testing.T) {
	// Move nextPop off zero so the first pushes wrap the initial ring, then
	// push a shuffled window eight times its length: every growth re-slots
	// wrapped entries, and delivery stays in position order.
	s := NewStaging(1 << 20)
	const start, n = 10, 128
	for pos := 0; pos < start; pos++ {
		s.Push(bg, pos, int32(pos), []byte{byte(pos)})
		s.Pop(bg)
	}
	initial := len(s.ring)
	for _, k := range prng.New(3).Perm(n) {
		if err := s.Push(bg, start+k, int32(start+k), []byte{byte(start + k)}); err != nil {
			t.Fatalf("push %d: %v", start+k, err)
		}
	}
	if len(s.ring) < n || initial >= n {
		t.Fatalf("ring %d → %d slots for a %d-position window", initial, len(s.ring), n)
	}
	for pos := start; pos < start+n; pos++ {
		if e, err := s.Pop(bg); err != nil || e.Pos != pos || e.ID != int32(pos) || e.Data[0] != byte(pos) {
			t.Fatalf("pop %d: %+v %v", pos, e, err)
		}
	}
}

func TestStagingRejectsDeliveredPositions(t *testing.T) {
	// A position is staged at most once: while pending, after its pop, and
	// for any position below the next one to pop.
	s := NewStaging(100)
	for pos := 0; pos < 5; pos++ {
		s.Push(bg, pos, int32(pos), []byte("a"))
	}
	if err := s.Push(bg, 3, 9, []byte("b")); err == nil {
		t.Error("pending position accepted twice")
	}
	for i := 0; i < 4; i++ {
		s.Pop(bg)
	}
	for _, pos := range []int{3, 0, -1} {
		if err := s.Push(bg, pos, 9, []byte("b")); err == nil {
			t.Errorf("position %d below the next pop (4) accepted", pos)
		}
	}
	if e, err := s.Pop(bg); err != nil || e.Pos != 4 || e.ID != 4 || s.Used() != 0 {
		t.Fatalf("pop 4: %+v %v, used %d", e, err, s.Used())
	}
}

func TestStagingEmptyPayload(t *testing.T) {
	// A zero-length payload is an entry: staged, delivered in order, and
	// its slot is free again afterwards.
	s := NewStaging(100)
	s.Push(bg, 1, 1, []byte("x"))
	s.Push(bg, 0, 0, nil)
	for pos := 0; pos < 2; pos++ {
		if e, err := s.Pop(bg); err != nil || e.Pos != pos {
			t.Fatalf("pop %d: %+v %v", pos, e, err)
		}
	}
	s.Close()
	if _, err := s.Pop(bg); err != ErrClosed {
		t.Errorf("a popped empty entry was delivered twice: %v, want ErrClosed", err)
	}
}

func TestStagingPopDropsPayload(t *testing.T) {
	// After delivery the ring references no payload, so a consumed sample
	// is the consumer's (and the GC's) alone.
	s := NewStaging(1 << 20)
	for pos := 0; pos < 40; pos++ {
		s.Push(bg, pos, 0, make([]byte, 8))
	}
	for pos := 0; pos < 40; pos++ {
		s.Pop(bg)
	}
	for i, sl := range s.ring {
		if sl.full || sl.Data != nil {
			t.Fatalf("slot %d still holds %+v after its pop", i, sl)
		}
	}
}

func TestStagingCloseDrainsPrefix(t *testing.T) {
	// Close delivers the in-order prefix and nothing past a gap.
	s := NewStaging(100)
	for _, pos := range []int{3, 1, 0} {
		s.Push(bg, pos, int32(pos), []byte("x"))
	}
	s.Close()
	for pos := 0; pos < 2; pos++ {
		if e, err := s.Pop(bg); err != nil || e.Pos != pos {
			t.Fatalf("pop %d after close: %+v %v", pos, e, err)
		}
	}
	if e, err := s.Pop(bg); err != ErrClosed {
		t.Fatalf("pop past the gap: %+v %v, want ErrClosed", e, err)
	}
}

// run returns the entries of positions first..first+n-1, each of size
// bytes; an entry's ID is its position.
func run(first, n, size int) []Entry {
	out := make([]Entry, n)
	for i := range out {
		out[i] = Entry{Pos: first + i, ID: int32(first + i), Data: make([]byte, size)}
	}
	return out
}

// popRun is PopRun into an n-entry slice; it returns the positions taken.
func popRun(t *testing.T, s *Staging, n int) []int {
	t.Helper()
	dst := make([]Entry, n)
	got, err := s.PopRun(bg, dst)
	if err != nil {
		t.Fatal(err)
	}
	var pos []int
	for _, e := range dst[:got] {
		if e.ID != int32(e.Pos) {
			t.Fatalf("position %d delivered sample %d", e.Pos, e.ID)
		}
		pos = append(pos, e.Pos)
	}
	return pos
}

// pushReturns runs PushRun(r) and fails unless it returns nil without
// parking on c.
func pushReturns(t *testing.T, s *Staging, c *manualClock, r []Entry) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- s.PushRun(bg, r) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("push of run at %d: %v", r[0].Pos, err)
		}
	case <-c.parked:
		t.Fatalf("the run at %d parked on the byte budget", r[0].Pos)
	case <-time.After(5 * time.Second):
		t.Fatalf("the run at %d neither returned nor parked", r[0].Pos)
	}
}

// TestStagingPopRunTakesConsecutivePrefix: a PopRun takes exactly the
// consecutive staged positions from the next one, up to len(dst); it stops
// at a gap, and parks only when the next position itself is missing.
func TestStagingPopRunTakesConsecutivePrefix(t *testing.T) {
	s, c := manualStaging(1 << 20)
	for _, r := range [][]Entry{run(0, 3, 1), run(4, 2, 1), run(7, 1, 1)} {
		if err := s.PushRun(bg, r); err != nil {
			t.Fatal(err)
		}
	}
	if got := popRun(t, s, 8); !slices.Equal(got, []int{0, 1, 2}) {
		t.Fatalf("pop across the gap at 3 took %v, want [0 1 2]", got)
	}
	s.Push(bg, 3, 3, []byte{3})
	if got := popRun(t, s, 2); !slices.Equal(got, []int{3, 4}) {
		t.Fatalf("a two-entry pop took %v, want [3 4]", got)
	}
	if got := popRun(t, s, 8); !slices.Equal(got, []int{5}) {
		t.Fatalf("pop up to the gap at 6 took %v, want [5]", got)
	}
	dst := make([]Entry, 8)
	got := make(chan int, 1)
	go func() {
		n, _ := s.PopRun(bg, dst)
		got <- n
	}()
	c.park(t)
	s.Push(bg, 6, 6, []byte{6})
	select {
	case n := <-got:
		if n != 2 || dst[0].Pos != 6 || dst[1].Pos != 7 {
			t.Fatalf("the pop woken by 6 took %+v, want 6 and 7", dst[:n])
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the parked pop was not woken by the push of its position")
	}
	if s.Used() != 0 {
		t.Errorf("Used = %d after draining", s.Used())
	}
}

// TestStagingOversizedRunAtNextPop: a run larger than the whole budget is
// admitted when it starts at the next position to pop, at the start of the
// stream and after a pop, while a run past it waits for the budget.
func TestStagingOversizedRunAtNextPop(t *testing.T) {
	s, c := manualStaging(4)
	pushReturns(t, s, c, run(0, 4, 8))
	if got := popRun(t, s, 4); !slices.Equal(got, []int{0, 1, 2, 3}) {
		t.Fatalf("pop took %v", got)
	}
	later := make(chan error, 1)
	go func() { later <- s.PushRun(bg, run(6, 2, 8)) }()
	c.park(t) // 16 bytes over a 4-byte budget, past the next position
	pushReturns(t, s, c, run(4, 2, 8))
	if got := popRun(t, s, 4); !slices.Equal(got, []int{4, 5}) {
		t.Fatalf("pop took %v", got)
	}
	select {
	case err := <-later:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the run at the next position after a pop was not admitted")
	}
	if got := popRun(t, s, 4); !slices.Equal(got, []int{6, 7}) {
		t.Fatalf("pop took %v", got)
	}
}

// TestStagingRunRejectedWhole: a run that is not consecutive, or holds a
// position already staged or delivered, is rejected and stages none of its
// entries.
func TestStagingRunRejectedWhole(t *testing.T) {
	s := NewStaging(100)
	if err := s.PushRun(bg, run(4, 1, 1)); err != nil {
		t.Fatal(err)
	}
	bad := [][]Entry{
		run(3, 3, 1), // 4 is staged
		{{Pos: 5, ID: 5}, {Pos: 5, ID: 5}},
		{{Pos: 5, ID: 5}, {Pos: 7, ID: 7}},
	}
	for _, r := range bad {
		if err := s.PushRun(bg, r); err == nil {
			t.Errorf("run %+v accepted", r)
		}
	}
	if s.Used() != 1 || s.ring[3].full || s.ring[5].full || s.ring[7].full {
		t.Fatalf("a rejected run staged entries: Used %d", s.Used())
	}
	if err := s.PushRun(bg, run(0, 3, 1)); err != nil {
		t.Fatal(err)
	}
	if got := popRun(t, s, 2); !slices.Equal(got, []int{0, 1}) {
		t.Fatalf("pop took %v", got)
	}
	for _, r := range [][]Entry{run(1, 3, 1), run(2, 2, 1)} { // 1 delivered; 2 staged
		if err := s.PushRun(bg, r); err == nil {
			t.Errorf("run at %d accepted", r[0].Pos)
		}
	}
	if s.Used() != 2 || s.ring[3].full {
		t.Fatalf("a rejected run staged entries: Used %d", s.Used())
	}
	s.Push(bg, 3, 3, make([]byte, 1))
	if got := popRun(t, s, 8); !slices.Equal(got, []int{2, 3, 4}) || s.Used() != 0 {
		t.Fatalf("pop took %v, Used %d", got, s.Used())
	}
}

// TestStagingAdmitsGapRuns: three claimers stage two-entry runs of one byte
// per entry on a 4-byte budget. The claimer of the third and fourth runs
// fills the budget and parks on its fifth; the runs below the highest
// staged position are admitted at once, past the budget, which then holds
// its bound: the budget plus two (claimers - 1) runs.
func TestStagingAdmitsGapRuns(t *testing.T) {
	const budget, runBytes, claimers = 4, 2, 3
	s, c := manualStaging(budget)
	pushReturns(t, s, c, run(4, 2, 1))
	pushReturns(t, s, c, run(6, 2, 1))
	ahead := make(chan error, 1)
	go func() { ahead <- s.PushRun(bg, run(8, 2, 1)) }()
	c.park(t)
	pushReturns(t, s, c, run(2, 2, 1)) // fills a gap below 8: admitted
	pushReturns(t, s, c, run(0, 2, 1)) // the next position to pop
	if got, bound := s.Used(), int64(budget+(claimers-1)*runBytes); got != bound {
		t.Fatalf("Used = %d, want the bound %d", got, bound)
	}
	if got := popRun(t, s, 2); !slices.Equal(got, []int{0, 1}) {
		t.Fatalf("pop took %v", got)
	}
	c.park(t) // woken by the pop, still 8 > 4 bytes: parks again
	if got := popRun(t, s, 8); !slices.Equal(got, []int{2, 3, 4, 5, 6, 7}) {
		t.Fatalf("pop took %v", got)
	}
	select {
	case err := <-ahead:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the run past the budget was not admitted after the pops")
	}
}

// TestStagingClaimersOvershootBound: claimers that take windows of k runs
// from one counter, as the job's staging threads do, push them run by run
// and finish them out of order never stage more than the budget plus
// claimers-1 windows, and the consumer gets every position once, in order,
// the stream's short last run included. A window's later runs sit below the
// highest staged position once another claimer stages past them, so they
// are admitted over the budget: with k = 1 the bound is claimers-1 runs.
func TestStagingClaimersOvershootBound(t *testing.T) {
	for _, k := range []int{1, 4} {
		t.Run(fmt.Sprintf("window %d", k), func(t *testing.T) {
			const claimers, n, stream, budget = 3, 4, 3001, 64
			size := func(pos int) int { return 1 + pos%8 }
			w, bound := k*n, budget+(claimers-1)*k*n*8
			s := NewStaging(budget)
			var next atomic.Int64
			var wg sync.WaitGroup
			for p := 0; p < claimers; p++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					g := prng.New(uint64(p))
					for first := int(next.Add(int64(w))) - w; first < stream; first = int(next.Add(int64(w))) - w {
						last := min(first+w, stream)
						for start := first; start < last; start += n {
							r := run(start, min(n, last-start), 0)
							for i := range r {
								r[i].Data = make([]byte, size(r[i].Pos))
							}
							for i := g.Intn(20); i > 0; i-- {
								runtime.Gosched()
							}
							if err := s.PushRun(bg, r); err != nil {
								t.Error(err)
								return
							}
							if used := s.Used(); used > int64(bound) {
								t.Errorf("Used = %d after the run at %d, over the bound %d", used, start, bound)
							}
						}
					}
				}()
			}
			ctx, cancel := context.WithTimeout(bg, 10*time.Second)
			defer cancel()
			g := prng.New(99)
			dst := make([]Entry, 2*n)
			for pos := 0; pos < stream; {
				got, err := s.PopRun(ctx, dst[:1+g.Intn(len(dst))])
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range dst[:got] {
					if e.Pos != pos || len(e.Data) != size(pos) {
						t.Fatalf("pop delivered position %d (%d bytes), want %d", e.Pos, len(e.Data), pos)
					}
					pos++
				}
			}
			wg.Wait()
			if s.Used() != 0 {
				t.Errorf("Used = %d after draining", s.Used())
			}
		})
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

// BenchmarkStagingTwoProducers stages as the job does: two producers push
// interleaved positions (one the even, one the odd), which arrive out of
// order as the two race, and one consumer pops in order.
func BenchmarkStagingTwoProducers(b *testing.B) {
	s := NewStaging(1 << 24)
	data := make([]byte, 4096)
	for p := 0; p < 2; p++ {
		go func() {
			for pos := p; pos < b.N; pos += 2 {
				s.Push(bg, pos, 0, data)
			}
		}()
	}
	b.SetBytes(4096)
	for i := 0; i < b.N; i++ {
		if _, err := s.Pop(bg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStagingRuns stages as the job's staging threads do: two
// producers claim 16-entry runs from one shared counter and push each with
// one PushRun, and one consumer pops up to 16 entries per PopRun. An op is
// one sample.
func BenchmarkStagingRuns(b *testing.B) {
	const n = 16
	s := NewStaging(1 << 24)
	data := make([]byte, 4096)
	var next atomic.Int64
	for p := 0; p < 2; p++ {
		go func() {
			r := make([]Entry, n)
			for first := int(next.Add(n)) - n; first < b.N; first = int(next.Add(n)) - n {
				r = r[:min(n, b.N-first)]
				for i := range r {
					r[i] = Entry{Pos: first + i, Data: data}
				}
				s.PushRun(bg, r)
			}
		}()
	}
	b.SetBytes(4096)
	dst := make([]Entry, n)
	for i := 0; i < b.N; {
		got, err := s.PopRun(bg, dst)
		if err != nil {
			b.Fatal(err)
		}
		i += got
	}
}

// BenchmarkStagingClaimers stages as the job's staging threads do: two
// producers claim positions from one shared counter, so neither runs more
// than a position ahead of the other, and one consumer pops in order.
func BenchmarkStagingClaimers(b *testing.B) {
	s := NewStaging(1 << 24)
	data := make([]byte, 4096)
	var next atomic.Int64
	for p := 0; p < 2; p++ {
		go func() {
			for pos := int(next.Add(1) - 1); pos < b.N; pos = int(next.Add(1) - 1) {
				s.Push(bg, pos, 0, data)
			}
		}()
	}
	b.SetBytes(4096)
	for i := 0; i < b.N; i++ {
		if _, err := s.Pop(bg); err != nil {
			b.Fatal(err)
		}
	}
}
