package transport

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// callResult carries a Call's outcome across the watchdog goroutine.
type callResult struct {
	resp Response
	err  error
}

// callWithin runs fn and fails the test if it has not returned within the
// deadline — the edge cases below must produce clean errors, never hangs.
func callWithin(t *testing.T, d time.Duration, fn func() (Response, error)) callResult {
	t.Helper()
	done := make(chan callResult, 1)
	go func() {
		resp, err := fn()
		done <- callResult{resp, err}
	}()
	select {
	case r := <-done:
		return r
	case <-time.After(d):
		t.Fatalf("call did not return within %v", d)
		return callResult{}
	}
}

// countingListener counts accepted connections: the pool's whole point is
// that this number stops tracking the number of Calls.
type countingListener struct {
	net.Listener
	accepted atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err == nil {
		l.accepted.Add(1)
	}
	return conn, err
}

// newCountedTCPPair builds a 2-rank fabric with echo handlers whose rank-1
// listener counts accepts. The wrapper goes in before SetHandler starts the
// accept loop.
func newCountedTCPPair(tb testing.TB) ([]*TCPEndpoint, *countingListener) {
	tb.Helper()
	eps, err := NewTCPNetwork(2, nil)
	if err != nil {
		tb.Fatal(err)
	}
	counted := &countingListener{Listener: eps[1].listener}
	eps[1].listener = counted
	eps[0].SetHandler(echoHandler(0))
	eps[1].SetHandler(echoHandler(1))
	return eps, counted
}

// idleConns reports how many connections e holds parked for peer to.
func idleConns(e *TCPEndpoint, to int) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.idle[to])
}

// fetchEcho fetches an (even) sample from an echoHandler peer and checks
// that the bytes are that sample's, not some other exchange's.
func fetchEcho(e *TCPEndpoint, to int, sample int32) error {
	resp, err := e.Call(bg, to, Request{Kind: KindFetch, Sample: sample})
	if err != nil {
		return err
	}
	if want := fmt.Sprintf("r%d-s%d", to, sample); !resp.OK || string(resp.Data) != want {
		return fmt.Errorf("sample %d from rank %d: got %+v, want data %q", sample, to, resp, want)
	}
	return nil
}

// barrierHandler is echoHandler(rank) that holds its first k exchanges until
// all k are in flight: k callers are then provably on k connections.
func barrierHandler(rank, k int) Handler {
	var entered atomic.Int64
	var inFlight sync.WaitGroup
	inFlight.Add(k)
	return func(ctx context.Context, from int, req Request) Response {
		if entered.Add(1) <= int64(k) {
			inFlight.Done()
			inFlight.Wait()
		}
		return echoHandler(rank)(ctx, from, req)
	}
}

// fetchAtOnce runs one fetchEcho per sample concurrently and waits for all.
func fetchAtOnce(t *testing.T, e *TCPEndpoint, to int, samples ...int32) {
	t.Helper()
	var wg sync.WaitGroup
	for _, sample := range samples {
		wg.Add(1)
		go func(sample int32) {
			defer wg.Done()
			if err := fetchEcho(e, to, sample); err != nil {
				t.Error(err)
			}
		}(sample)
	}
	wg.Wait()
}

// openFDs counts this process's open file descriptors.
func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd on this platform: %v", err)
	}
	return len(ents)
}

// settles polls until count drops back to (or below) want: goroutine exits
// and the fd release behind a Close both trail the call that caused them.
func settles(t *testing.T, what string, want int, count func() int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if count() <= want {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("%s leaked: %d live, want <= %d", what, count(), want)
}

// TestTCPProtocolEdgeCases covers the length-prefixed protocol's failure
// modes: truncated frames on either side, a peer closing mid-fetch, and
// fetches against closed endpoints. Every case must resolve to a clean
// error (or a served response for the surviving endpoint) without hanging.
func TestTCPProtocolEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{
			// A client that dies mid-request must not wedge the server:
			// the serve loop drops the connection and keeps accepting.
			name: "truncated request frame",
			run: func(t *testing.T) {
				eps, err := NewTCPNetwork(2, nil)
				if err != nil {
					t.Fatal(err)
				}
				defer eps[0].Close()
				defer eps[1].Close()
				eps[0].SetHandler(echoHandler(0))
				eps[1].SetHandler(echoHandler(1))

				raw, err := net.Dial("tcp", eps[0].addrs[0])
				if err != nil {
					t.Fatal(err)
				}
				if _, err := raw.Write([]byte{1, 2, 3}); err != nil {
					t.Fatal(err)
				}
				raw.Close()

				// The endpoint must still serve well-formed requests.
				r := callWithin(t, 5*time.Second, func() (Response, error) {
					return eps[1].Call(bg, 0, Request{Kind: KindFetch, Sample: 4})
				})
				if r.err != nil || !r.resp.OK || string(r.resp.Data) != "r0-s4" {
					t.Fatalf("call after truncated frame: resp=%+v err=%v", r.resp, r.err)
				}
			},
		},
		{
			// A peer that answers with a truncated response header must
			// surface as an error on the caller, not a hang or a garbage
			// response.
			name: "truncated response frame",
			run: func(t *testing.T) {
				lying, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				defer lying.Close()
				go func() {
					for {
						conn, err := lying.Accept()
						if err != nil {
							return
						}
						go func(conn net.Conn) {
							defer conn.Close()
							var buf [reqSize]byte
							if _, err := io.ReadFull(conn, buf[:]); err != nil {
								return
							}
							conn.Write([]byte{1, 0, 0}) // 3 of 13 header bytes
						}(conn)
					}
				}()

				eps, err := NewTCPNetwork(2, nil)
				if err != nil {
					t.Fatal(err)
				}
				defer eps[0].Close()
				defer eps[1].Close()
				eps[0].SetHandler(echoHandler(0))
				eps[1].SetHandler(echoHandler(1))
				eps[0].addrs[1] = lying.Addr().String() // addrs slice is shared

				r := callWithin(t, 5*time.Second, func() (Response, error) {
					return eps[0].Call(bg, 1, Request{Kind: KindFetch, Sample: 2})
				})
				if r.err == nil {
					t.Fatalf("truncated response accepted: %+v", r.resp)
				}
			},
		},
		{
			// Closing a peer while it is serving a fetch must unblock the
			// caller with an error: Close severs open connections.
			name: "peer closes mid-fetch",
			run: func(t *testing.T) {
				eps, err := NewTCPNetwork(2, nil)
				if err != nil {
					t.Fatal(err)
				}
				defer eps[0].Close()
				defer eps[1].Close()
				eps[0].SetHandler(echoHandler(0))

				entered := make(chan struct{})
				release := make(chan struct{})
				eps[1].SetHandler(func(_ context.Context, from int, req Request) Response {
					close(entered)
					<-release
					return Response{OK: true}
				})
				defer close(release)

				done := make(chan callResult, 1)
				go func() {
					resp, err := eps[0].Call(bg, 1, Request{Kind: KindFetch, Sample: 2})
					done <- callResult{resp, err}
				}()
				<-entered
				eps[1].Close()
				select {
				case r := <-done:
					if r.err == nil {
						t.Fatalf("call against mid-fetch-closed peer succeeded: %+v", r.resp)
					}
				case <-time.After(5 * time.Second):
					t.Fatal("call hung after peer closed mid-fetch")
				}
			},
		},
		{
			// A fetch issued after the peer closed must fail cleanly (the
			// dial is refused or the connection is reset).
			name: "fetch after peer close",
			run: func(t *testing.T) {
				eps, err := NewTCPNetwork(2, nil)
				if err != nil {
					t.Fatal(err)
				}
				defer eps[0].Close()
				eps[0].SetHandler(echoHandler(0))
				eps[1].SetHandler(echoHandler(1))
				eps[1].Close()

				r := callWithin(t, 5*time.Second, func() (Response, error) {
					return eps[0].Call(bg, 1, Request{Kind: KindFetch, Sample: 2})
				})
				if r.err == nil {
					t.Fatalf("fetch to closed peer succeeded: %+v", r.resp)
				}
				// The refused dial must carry the peer-down classification.
				if !errors.Is(r.err, ErrUnreachable) {
					t.Fatalf("want ErrUnreachable from refused dial, got %v", r.err)
				}
			},
		},
		{
			// A peer that accepts and then half-closes every connection
			// (reads the request, never answers) must fail fast with the
			// peer-down classification — even across the one re-dial —
			// not hang the caller.
			name: "half-closed connection fails fast",
			run: func(t *testing.T) {
				halfClosed, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				defer halfClosed.Close()
				go func() {
					for {
						conn, err := halfClosed.Accept()
						if err != nil {
							return
						}
						go func(conn net.Conn) {
							defer conn.Close()
							var buf [reqSize]byte
							io.ReadFull(conn, buf[:]) // consume, never answer
						}(conn)
					}
				}()

				eps, err := NewTCPNetwork(2, nil)
				if err != nil {
					t.Fatal(err)
				}
				defer eps[0].Close()
				defer eps[1].Close()
				eps[0].SetHandler(echoHandler(0))
				eps[1].SetHandler(echoHandler(1))
				eps[0].addrs[1] = halfClosed.Addr().String() // addrs slice is shared

				r := callWithin(t, 5*time.Second, func() (Response, error) {
					return eps[0].Call(bg, 1, Request{Kind: KindFetch, Sample: 2})
				})
				if !errors.Is(r.err, ErrUnreachable) {
					t.Fatalf("want ErrUnreachable from half-closed peer, got resp=%+v err=%v", r.resp, r.err)
				}
			},
		},
		{
			// A connection that breaks on the first exchange but serves the
			// second must succeed through Call's single re-dial.
			name: "one re-dial recovers a broken exchange",
			run: func(t *testing.T) {
				flaky, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				defer flaky.Close()
				conns := make(chan int, 16)
				go func() {
					n := 0
					for {
						conn, err := flaky.Accept()
						if err != nil {
							return
						}
						n++
						conns <- n
						go func(conn net.Conn, n int) {
							defer conn.Close()
							var buf [reqSize]byte
							if _, err := io.ReadFull(conn, buf[:]); err != nil {
								return
							}
							if n == 1 {
								return // first exchange: sever after the request
							}
							var head [respHeadSize]byte
							resp := Response{OK: true, Data: []byte("redialed")}
							if err := encodeResponseHeader(&head, resp); err != nil {
								return
							}
							conn.Write(head[:])
							conn.Write(resp.Data)
						}(conn, n)
					}
				}()

				eps, err := NewTCPNetwork(2, nil)
				if err != nil {
					t.Fatal(err)
				}
				defer eps[0].Close()
				defer eps[1].Close()
				eps[0].SetHandler(echoHandler(0))
				eps[1].SetHandler(echoHandler(1))
				eps[0].addrs[1] = flaky.Addr().String() // addrs slice is shared

				r := callWithin(t, 5*time.Second, func() (Response, error) {
					return eps[0].Call(bg, 1, Request{Kind: KindFetch, Sample: 2})
				})
				if r.err != nil || !r.resp.OK || string(r.resp.Data) != "redialed" {
					t.Fatalf("re-dial did not recover: resp=%+v err=%v", r.resp, r.err)
				}
				if got := <-conns; got != 1 {
					t.Fatalf("first connection numbered %d", got)
				}
				if got := <-conns; got != 2 {
					t.Fatalf("expected exactly one re-dial, second connection numbered %d", got)
				}
			},
		},
		{
			// Close must be idempotent: a crash handler closes the endpoint
			// early and the job's teardown closes it again.
			name: "double close is safe",
			run: func(t *testing.T) {
				eps, err := NewTCPNetwork(2, nil)
				if err != nil {
					t.Fatal(err)
				}
				defer eps[1].Close()
				eps[0].SetHandler(echoHandler(0))
				first := eps[0].Close()
				second := eps[0].Close()
				if first != second {
					t.Fatalf("double Close changed its result: %v then %v", first, second)
				}
			},
		},
		{
			// A fetch issued after closing one's own endpoint reports
			// ErrClosed without touching the network.
			name: "fetch after own close",
			run: func(t *testing.T) {
				eps, err := NewTCPNetwork(2, nil)
				if err != nil {
					t.Fatal(err)
				}
				defer eps[1].Close()
				eps[0].SetHandler(echoHandler(0))
				eps[1].SetHandler(echoHandler(1))
				eps[0].Close()

				r := callWithin(t, 5*time.Second, func() (Response, error) {
					return eps[0].Call(bg, 1, Request{Kind: KindFetch, Sample: 2})
				})
				if !errors.Is(r.err, ErrClosed) {
					t.Fatalf("want ErrClosed, got %v", r.err)
				}
			},
		},
		{
			// The sender rank is the wire's word. One outside [0, Size) must
			// sever the connection before the handler can index with it —
			// and the endpoint keeps serving well-formed peers.
			name: "sender rank out of range severs the connection",
			run: func(t *testing.T) {
				eps, err := NewTCPNetwork(2, nil)
				if err != nil {
					t.Fatal(err)
				}
				defer eps[0].Close()
				defer eps[1].Close()
				var served atomic.Int64
				eps[0].SetHandler(func(ctx context.Context, from int, req Request) Response {
					served.Add(1)
					return echoHandler(0)(ctx, from, req)
				})
				eps[1].SetHandler(echoHandler(1))

				for _, from := range []int{-1, 2, 1 << 30} {
					raw, err := net.Dial("tcp", eps[0].addrs[0])
					if err != nil {
						t.Fatal(err)
					}
					var buf [reqSize]byte
					encodeRequest(&buf, from, Request{Kind: KindFetch, Sample: 4})
					if _, err := raw.Write(buf[:]); err != nil {
						t.Fatal(err)
					}
					raw.SetReadDeadline(time.Now().Add(5 * time.Second))
					if n, err := raw.Read(buf[:]); err != io.EOF {
						t.Fatalf("from=%d: read %d bytes, err %v; want the connection severed (EOF)", from, n, err)
					}
					raw.Close()
				}
				if n := served.Load(); n != 0 {
					t.Fatalf("handler saw %d out-of-range senders", n)
				}
				if err := fetchEcho(eps[1], 0, 4); err != nil {
					t.Fatalf("call after out-of-range sender: %v", err)
				}
			},
		},
		{
			// Persistent connections: N sequential calls ride one accepted
			// connection. A return to per-call dials makes this N.
			name: "sequential calls share one connection",
			run: func(t *testing.T) {
				eps, counted := newCountedTCPPair(t)
				defer eps[0].Close()
				defer eps[1].Close()
				for i := 0; i < 50; i++ {
					if err := fetchEcho(eps[0], 1, int32(2*i)); err != nil {
						t.Fatal(err)
					}
				}
				if got := counted.accepted.Load(); got != 1 {
					t.Fatalf("50 sequential calls used %d connections, want 1", got)
				}
				if got := idleConns(eps[0], 1); got != 1 {
					t.Fatalf("%d idle connections after sequential calls, want 1", got)
				}
			},
		},
		{
			// K callers at once need K connections — the handler holds each
			// exchange until all K are in flight — and later rounds reuse
			// them: the pool never outgrows the callers, and nobody reads a
			// neighbour's response.
			name: "concurrent callers get their own bytes over at most K connections",
			run: func(t *testing.T) {
				const K = 8
				eps, counted := newCountedTCPPair(t)
				defer eps[0].Close()
				defer eps[1].Close()
				eps[1].SetHandler(barrierHandler(1, K))
				round := func(base int) {
					samples := make([]int32, K)
					for k := range samples {
						samples[k] = int32(2 * (base + k))
					}
					fetchAtOnce(t, eps[0], 1, samples...)
				}
				round(0)
				if got := idleConns(eps[0], 1); got != K {
					t.Fatalf("%d idle connections after %d simultaneous calls, want %d", got, K, K)
				}
				for r := 1; r <= 20; r++ {
					round(r * K)
				}
				if got := idleConns(eps[0], 1); got > K {
					t.Fatalf("%d idle connections for %d callers", got, K)
				}
				if got := counted.accepted.Load(); got != K {
					t.Fatalf("%d connections accepted for %d callers, want %d", got, K, K)
				}
			},
		},
		{
			// An exchange cut short — by cancel or by a deadline — while the
			// handler is blocked leaves its response unread on the socket.
			// That connection must die with the call: were it parked, the
			// next caller would read sample 2's bytes as its own.
			name: "cut-short exchange does not poison the pool",
			run: func(t *testing.T) {
				eps, err := NewTCPNetwork(2, nil)
				if err != nil {
					t.Fatal(err)
				}
				defer eps[0].Close()
				defer eps[1].Close()
				entered := make(chan struct{}, 2) // one send per cut-short call below
				release := make(chan struct{})
				defer close(release)
				eps[0].SetHandler(echoHandler(0))
				eps[1].SetHandler(func(ctx context.Context, from int, req Request) Response {
					if req.Sample == 2 {
						entered <- struct{}{}
						<-release
					}
					return echoHandler(1)(ctx, from, req)
				})
				nextCallIsClean := func(sample int32) {
					t.Helper()
					if got := idleConns(eps[0], 1); got != 0 {
						t.Fatalf("cut-short exchange left %d connections parked", got)
					}
					r := callWithin(t, 5*time.Second, func() (Response, error) {
						return Response{}, fetchEcho(eps[0], 1, sample)
					})
					if r.err != nil {
						t.Fatalf("call after cut-short exchange: %v", r.err)
					}
				}

				// Warm the pool so the cut-short calls reuse a connection.
				if err := fetchEcho(eps[0], 1, 4); err != nil {
					t.Fatal(err)
				}
				ctx, cancel := context.WithCancel(bg)
				done := make(chan error, 1)
				go func() {
					_, err := eps[0].Call(ctx, 1, Request{Kind: KindFetch, Sample: 2})
					done <- err
				}()
				<-entered
				cancel()
				select {
				case err := <-done:
					if !errors.Is(err, context.Canceled) {
						t.Fatalf("canceled call returned %v, want context.Canceled", err)
					}
				case <-time.After(5 * time.Second):
					t.Fatal("canceled call did not return")
				}
				nextCallIsClean(6)

				// The resilience layer's per-attempt deadline, same shape.
				tctx, tcancel := context.WithTimeout(bg, 50*time.Millisecond)
				defer tcancel()
				r := callWithin(t, 5*time.Second, func() (Response, error) {
					return eps[0].Call(tctx, 1, Request{Kind: KindFetch, Sample: 2})
				})
				if !errors.Is(r.err, context.DeadlineExceeded) {
					t.Fatalf("timed-out call returned %v, want context.DeadlineExceeded", r.err)
				}
				nextCallIsClean(8)
			},
		},
		{
			// A peer that closes while our connections to it sit idle: the
			// stale connection breaks, the rest of the list is flushed, the
			// single re-dial is refused, and the caller gets the peer-down
			// classification — no hang, no walk through dead connections.
			name: "peer closed while connections idle",
			run: func(t *testing.T) {
				const K = 3
				eps, counted := newCountedTCPPair(t)
				defer eps[0].Close()
				// Park K connections: K calls held in flight together.
				eps[1].SetHandler(barrierHandler(1, K))
				fetchAtOnce(t, eps[0], 1, 0, 2, 4)
				if got := idleConns(eps[0], 1); got != K {
					t.Fatalf("%d idle connections, want %d", got, K)
				}
				eps[1].Close()

				r := callWithin(t, 5*time.Second, func() (Response, error) {
					return eps[0].Call(bg, 1, Request{Kind: KindFetch, Sample: 2})
				})
				if !errors.Is(r.err, ErrUnreachable) {
					t.Fatalf("want ErrUnreachable from a peer closed while idle, got resp=%+v err=%v", r.resp, r.err)
				}
				if got := idleConns(eps[0], 1); got != 0 {
					t.Fatalf("%d stale connections still parked", got)
				}
				if got := counted.accepted.Load(); got != K {
					t.Fatalf("closed peer accepted %d connections, want the %d parked ones only", got, K)
				}
			},
		},
		{
			// Idle connections are tracked like in-flight ones: with some
			// parked in both directions, closing both endpoints returns the
			// process to its goroutine and descriptor baseline.
			name: "close with idle connections leaks nothing",
			run: func(t *testing.T) {
				goroutines := runtime.NumGoroutine()
				fds := openFDs(t)
				eps, _ := newCountedTCPPair(t)
				for i := 0; i < 4; i++ {
					if err := fetchEcho(eps[0], 1, int32(2*i)); err != nil {
						t.Fatal(err)
					}
					if err := fetchEcho(eps[1], 0, int32(2*i)); err != nil {
						t.Fatal(err)
					}
				}
				if a, b := idleConns(eps[0], 1), idleConns(eps[1], 0); a != 1 || b != 1 {
					t.Fatalf("idle connections %d and %d, want one each way", a, b)
				}
				eps[0].Close()
				eps[1].Close()
				settles(t, "goroutines", goroutines, runtime.NumGoroutine)
				settles(t, "file descriptors", fds, func() int { return openFDs(t) })
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, tc.run)
	}
}

// TestTCPPooledCallAllocs pins the steady-state cost of a Call on a parked
// connection, both sides of the exchange included: the payload read without
// a Buf and the echo handler's and the check's own formatting — 4 measured,
// 5 under the race detector. The frame buffer and the cancellation watch
// live on the pooled connection; per Call they measured 8. A dial, a close
// and their bookkeeping per Call, where this fabric started, measured 32, so
// a return to per-call connections fails here without a benchmark run.
func TestTCPPooledCallAllocs(t *testing.T) {
	eps, counted := newCountedTCPPair(t)
	defer eps[0].Close()
	defer eps[1].Close()
	call := func() {
		if err := fetchEcho(eps[0], 1, 2); err != nil {
			t.Fatal(err)
		}
	}
	call() // dial and park the connection
	const bound = 6
	if got := testing.AllocsPerRun(200, call); got > bound {
		t.Errorf("pooled Call allocates %.1f times per exchange, want <= %d", got, bound)
	}
	if got := counted.accepted.Load(); got != 1 {
		t.Errorf("steady-state calls used %d connections, want 1", got)
	}
}
