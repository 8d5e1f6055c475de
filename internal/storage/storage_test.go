package storage

import (
	"context"
	"errors"
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

func TestLimiterRate(t *testing.T) {
	// 8 MB/s limiter, 4 x 1 MB ops => ~0.5 s regardless of concurrency.
	l := NewLimiter(8)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.Wait(bg, 1<<20)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if elapsed < 350*time.Millisecond || elapsed > 1500*time.Millisecond {
		t.Errorf("4 MB through 8 MB/s limiter took %v, want ~500ms", elapsed)
	}
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
// in-flight waiter, and raising a near-zero rate re-prices a waiter whose
// original grant lay in the far future (no stranded sleeps).
func TestLimiterSetRateTransitions(t *testing.T) {
	t.Run("enable-on-unlimited", func(t *testing.T) {
		l := NewLimiter(0)
		if err := l.Wait(bg, 1<<30); err != nil { // free while unlimited
			t.Fatal(err)
		}
		l.SetRate(8)
		start := time.Now()
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				l.Wait(bg, 1<<20)
			}()
		}
		wg.Wait()
		// Pre-SetRate reservations must not be billed: ~4MB/8MBps = ~0.5s.
		if elapsed := time.Since(start); elapsed < 350*time.Millisecond || elapsed > 1500*time.Millisecond {
			t.Errorf("4 MB through freshly enabled 8 MB/s limiter took %v, want ~500ms", elapsed)
		}
	})
	t.Run("disable-releases-waiter", func(t *testing.T) {
		l := NewLimiter(1) // 64 MB at 1 MB/s would sleep ~64s
		done := make(chan error, 1)
		go func() { done <- l.Wait(bg, 64<<20) }()
		time.Sleep(20 * time.Millisecond)
		l.SetRate(0)
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("released waiter returned %v", err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("SetRate(0) stranded an in-flight waiter")
		}
	})
	t.Run("raise-reprices-waiter", func(t *testing.T) {
		l := NewLimiter(0.001) // 1 MB at ~1 KB/s: released ~17 minutes out
		done := make(chan error, 1)
		go func() { done <- l.Wait(bg, 1<<20) }()
		time.Sleep(20 * time.Millisecond)
		l.SetRate(10_000) // backlog re-priced: drains almost immediately
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("re-priced waiter returned %v", err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("raised rate stranded the in-flight waiter at the old price")
		}
	})
	t.Run("lower-slows-later-waiters", func(t *testing.T) {
		l := NewLimiter(10_000)
		l.SetRate(8)
		start := time.Now()
		if err := l.Wait(bg, 4<<20); err != nil {
			t.Fatal(err)
		}
		if elapsed := time.Since(start); elapsed < 350*time.Millisecond || elapsed > 1500*time.Millisecond {
			t.Errorf("4 MB at lowered 8 MB/s took %v, want ~500ms", elapsed)
		}
	})
}

// TestLimiterObserver checks the instrumentation hook: blocked waits report
// their duration, free passes stay silent.
func TestLimiterObserver(t *testing.T) {
	l := NewLimiter(8)
	var mu sync.Mutex
	var total float64
	l.SetObserver(func(s float64) {
		mu.Lock()
		total += s
		mu.Unlock()
	})
	if err := l.Wait(bg, 4<<20); err != nil { // ~0.5s blocked
		t.Fatal(err)
	}
	mu.Lock()
	got := total
	mu.Unlock()
	if got < 0.35 || got > 1.5 {
		t.Errorf("observer saw %.3fs of wait, want ~0.5s", got)
	}
	unlimited := NewLimiter(0)
	unlimited.SetObserver(func(s float64) { t.Errorf("unlimited wait observed %.3fs", s) })
	if err := unlimited.Wait(bg, 1<<30); err != nil {
		t.Fatal(err)
	}
}

func TestLimiterWaitCancel(t *testing.T) {
	// A 1 MB/s limiter asked for 64 MB would sleep ~64 s; cancellation must
	// interrupt the sleep within milliseconds.
	l := NewLimiter(1)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- l.Wait(ctx, 64<<20) }()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("got %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
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
