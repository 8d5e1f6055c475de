package transport

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/storage"
)

// bg is the default context for tests that exercise the data paths rather
// than cancellation.
var bg = context.Background()

// echoHandler answers fetches with a payload derived from the sample id and
// value exchanges with its own rank.
func echoHandler(rank int) Handler {
	return func(_ context.Context, from int, req Request) Response {
		switch req.Kind {
		case KindFetch:
			if req.Sample%2 == 1 {
				return Response{OK: false} // odd samples: miss
			}
			return Response{OK: true, Data: []byte(fmt.Sprintf("r%d-s%d", rank, req.Sample))}
		case KindValue:
			return Response{OK: true, Value: uint64(rank) * 100}
		}
		return Response{}
	}
}

// fabric abstracts over the two implementations for shared tests.
type fabric struct {
	name string
	nets []Network
}

func buildFabrics(t *testing.T, n int) []fabric {
	t.Helper()
	chans := NewChanNetwork(n, nil)
	chanNets := make([]Network, n)
	for i, e := range chans {
		chanNets[i] = e
	}
	tcps, err := NewTCPNetwork(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	tcpNets := make([]Network, n)
	for i, e := range tcps {
		tcpNets[i] = e
	}
	return []fabric{{"chan", chanNets}, {"tcp", tcpNets}}
}

func TestCallBothFabrics(t *testing.T) {
	for _, f := range buildFabrics(t, 3) {
		t.Run(f.name, func(t *testing.T) {
			for i, n := range f.nets {
				n.SetHandler(echoHandler(i))
			}
			defer func() {
				for _, n := range f.nets {
					n.Close()
				}
			}()
			resp, err := f.nets[0].Call(bg, 2, Request{Kind: KindFetch, Sample: 4})
			if err != nil {
				t.Fatal(err)
			}
			if !resp.OK || string(resp.Data) != "r2-s4" {
				t.Fatalf("resp = %+v", resp)
			}
			// Miss path.
			resp, err = f.nets[1].Call(bg, 0, Request{Kind: KindFetch, Sample: 3})
			if err != nil {
				t.Fatal(err)
			}
			if resp.OK {
				t.Fatal("odd sample should miss")
			}
			// Out of range.
			if _, err := f.nets[0].Call(bg, 99, Request{Kind: KindValue}); err == nil {
				t.Fatal("out-of-range rank accepted")
			}
		})
	}
}

func TestAllgatherValue(t *testing.T) {
	for _, f := range buildFabrics(t, 4) {
		t.Run(f.name, func(t *testing.T) {
			for i, n := range f.nets {
				n.SetHandler(echoHandler(i))
			}
			defer func() {
				for _, n := range f.nets {
					n.Close()
				}
			}()
			var wg sync.WaitGroup
			results := make([][]uint64, 4)
			for i, n := range f.nets {
				wg.Add(1)
				go func(i int, n Network) {
					defer wg.Done()
					// Handlers reply with rank*100 regardless of the
					// caller's value; rank i's own slot holds its value.
					vals, err := AllgatherValue(bg, n, uint64(i)*100)
					if err != nil {
						t.Errorf("rank %d: %v", i, err)
						return
					}
					results[i] = vals
				}(i, n)
			}
			wg.Wait()
			for i, vals := range results {
				for r, v := range vals {
					if v != uint64(r)*100 {
						t.Errorf("rank %d saw vals[%d] = %d, want %d", i, r, v, r*100)
					}
				}
			}
		})
	}
}

func TestConcurrentFetches(t *testing.T) {
	for _, f := range buildFabrics(t, 4) {
		t.Run(f.name, func(t *testing.T) {
			for i, n := range f.nets {
				n.SetHandler(echoHandler(i))
			}
			defer func() {
				for _, n := range f.nets {
					n.Close()
				}
			}()
			var wg sync.WaitGroup
			for i := 0; i < 4; i++ {
				for j := 0; j < 16; j++ {
					wg.Add(1)
					go func(from, s int) {
						defer wg.Done()
						to := (from + 1 + s) % 4
						if to == from {
							to = (to + 1) % 4
						}
						resp, err := f.nets[from].Call(bg, to, Request{Kind: KindFetch, Sample: int32(s * 2)})
						if err != nil {
							t.Errorf("call: %v", err)
							return
						}
						want := fmt.Sprintf("r%d-s%d", to, s*2)
						if string(resp.Data) != want {
							t.Errorf("got %q, want %q", resp.Data, want)
						}
					}(i, j)
				}
			}
			wg.Wait()
		})
	}
}

func TestRankAndSize(t *testing.T) {
	for _, f := range buildFabrics(t, 2) {
		for i, n := range f.nets {
			if n.Rank() != i || n.Size() != 2 {
				t.Errorf("%s: rank/size = %d/%d", f.name, n.Rank(), n.Size())
			}
			n.Close()
		}
	}
}

func TestChanCallAfterClose(t *testing.T) {
	eps := NewChanNetwork(2, nil)
	eps[0].SetHandler(echoHandler(0))
	eps[1].SetHandler(echoHandler(1))
	eps[0].Close()
	if _, err := eps[0].Call(bg, 1, Request{Kind: KindValue}); err == nil {
		t.Skip("call raced close; acceptable")
	}
	eps[1].Close()
}

func TestTCPCallAfterClose(t *testing.T) {
	eps, err := NewTCPNetwork(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	eps[0].SetHandler(echoHandler(0))
	eps[1].SetHandler(echoHandler(1))
	eps[1].Close()
	if _, err := eps[0].Call(bg, 1, Request{Kind: KindValue}); err == nil {
		t.Error("call to closed endpoint succeeded")
	}
	eps[0].Close()
	if _, err := eps[0].Call(bg, 1, Request{Kind: KindValue}); err != ErrClosed {
		t.Errorf("want ErrClosed from closed caller, got %v", err)
	}
}

// TestCallCancellation pins the context-first contract on both fabrics: a
// Call blocked on a slow peer must return the context's error promptly when
// the caller cancels, leaving the fabric healthy for later calls.
func TestCallCancellation(t *testing.T) {
	for _, f := range buildFabrics(t, 2) {
		t.Run(f.name, func(t *testing.T) {
			release := make(chan struct{})
			defer close(release)
			f.nets[0].SetHandler(echoHandler(0))
			f.nets[1].SetHandler(func(ctx context.Context, from int, req Request) Response {
				select { // serve only after the test is done, or give up with ctx
				case <-release:
				case <-ctx.Done():
				}
				return Response{OK: true}
			})
			defer func() {
				for _, n := range f.nets {
					n.Close()
				}
			}()
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan error, 1)
			go func() {
				_, err := f.nets[0].Call(ctx, 1, Request{Kind: KindFetch, Sample: 2})
				done <- err
			}()
			time.Sleep(20 * time.Millisecond)
			cancel()
			select {
			case err := <-done:
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("canceled call returned %v, want context.Canceled", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("canceled call did not return")
			}
			// The endpoint still serves calls under a live context.
			resp, err := f.nets[1].Call(bg, 0, Request{Kind: KindFetch, Sample: 4})
			if err != nil || !resp.OK {
				t.Fatalf("call after cancellation: resp=%+v err=%v", resp, err)
			}
			// A pre-canceled context fails fast without touching the fabric.
			if _, err := f.nets[0].Call(ctx, 1, Request{Kind: KindValue}); !errors.Is(err, context.Canceled) {
				t.Errorf("pre-canceled call returned %v", err)
			}
		})
	}
}

// TestChanHandlerRunsUnderCallerContext pins the chan fabric's handler
// contract: the handler runs under the caller's context, its values and its
// cancellation; a peer that closes mid-handler is unreachable; and a call to
// a peer with no handler yet is an error.
func TestChanHandlerRunsUnderCallerContext(t *testing.T) {
	type key struct{}
	eps := NewChanNetwork(3, nil)
	defer func() {
		for _, e := range eps {
			e.Close()
		}
	}()
	seen := make(chan string, 1)
	eps[1].SetHandler(func(ctx context.Context, _ int, req Request) Response {
		v, _ := ctx.Value(key{}).(string)
		seen <- v
		<-ctx.Done()
		return Response{OK: true}
	})
	eps[2].SetHandler(func(context.Context, int, Request) Response {
		eps[2].Close() // the peer crashes mid-handler
		return Response{OK: true}
	})

	ctx, cancel := context.WithCancel(context.WithValue(bg, key{}, "caller"))
	done := make(chan error, 1)
	go func() {
		_, err := eps[0].Call(ctx, 1, Request{Kind: KindFetch, Sample: 2})
		done <- err
	}()
	if v := <-seen; v != "caller" {
		t.Errorf("handler's context carries %q, want the caller's value", v)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Errorf("canceled call returned %v, want context.Canceled", err)
	}

	if _, err := eps[0].Call(bg, 2, Request{Kind: KindFetch, Sample: 2}); !errors.Is(err, ErrUnreachable) {
		t.Errorf("call to a peer that closed mid-handler returned %v, want ErrUnreachable", err)
	}

	fresh := NewChanNetwork(2, nil)
	wait, stop := context.WithTimeout(bg, time.Second)
	defer stop()
	if _, err := fresh[0].Call(wait, 1, Request{Kind: KindValue}); err == nil || wait.Err() != nil {
		t.Errorf("call to a peer with no handler returned %v, want an error at once", err)
	}
}

// TestFetchIntoBuf pins what each fabric does with Request.Buf. TCP reads a
// payload that fits into Buf, so Data aliases it and the call allocates
// nothing payload-sized; a payload that does not fit gets a fresh slice and
// leaves Buf untouched, and so does a miss. The chan fabric returns the
// handler's own bytes and never touches Buf.
func TestFetchIntoBuf(t *testing.T) {
	const n = 8 << 10
	payload := bytes.Repeat([]byte{0xa5}, n)
	handler := func(_ context.Context, _ int, req Request) Response {
		if req.Sample == 3 {
			return Response{OK: false}
		}
		return Response{OK: true, Data: payload}
	}
	same := func(a, b []byte) bool { return len(a) > 0 && len(b) > 0 && &a[0] == &b[0] }
	for _, f := range buildFabrics(t, 2) {
		t.Run(f.name, func(t *testing.T) {
			for _, ep := range f.nets {
				ep.SetHandler(handler)
				defer ep.Close()
			}
			copies := f.name == "tcp"
			fetch := func(sample int32, buf []byte) Response {
				t.Helper()
				resp, err := f.nets[0].Call(bg, 1, Request{Kind: KindFetch, Sample: sample, Buf: buf})
				if err != nil {
					t.Fatal(err)
				}
				return resp
			}
			sentinel := func(size int) []byte { return bytes.Repeat([]byte{0x5a}, size) }
			untouched := func(what string, buf []byte) {
				t.Helper()
				if !bytes.Equal(buf, sentinel(len(buf))) {
					t.Errorf("%s: Buf was written", what)
				}
			}

			buf := make([]byte, 0, n)
			resp := fetch(2, buf)
			if !bytes.Equal(resp.Data, payload) {
				t.Fatalf("fetch into Buf returned %d bytes, want the %d-byte payload", len(resp.Data), n)
			}
			if got := same(resp.Data, buf[:1]); got != copies {
				t.Errorf("Data aliases Buf = %v, want %v", got, copies)
			}
			if !copies && !same(resp.Data, payload) {
				t.Error("chan fetch did not return the handler's own bytes")
			}

			short := sentinel(n - 1)
			if resp := fetch(2, short); !bytes.Equal(resp.Data, payload) || same(resp.Data, short) {
				t.Errorf("fetch with a short Buf returned %d bytes in Buf = %v", len(resp.Data), same(resp.Data, short))
			}
			untouched("short Buf", short)

			missBuf := sentinel(n)
			if resp := fetch(3, missBuf); resp.OK || len(resp.Data) != 0 {
				t.Errorf("miss returned %+v", resp)
			}
			untouched("miss", missBuf)

			if copies && !raceEnabled {
				const calls = 100
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for range calls {
					fetch(2, buf)
				}
				runtime.ReadMemStats(&after)
				if per := (after.TotalAlloc - before.TotalAlloc) / calls; per >= 1024 {
					t.Errorf("a TCP fetch into Buf allocates %d bytes, want < 1024", per)
				}
			}
		})
	}
}

// TestChanCallAllocs pins the chan fabric's per-call cost: a successful
// fetch of a cached payload, through the interconnect limiter the cluster
// builds, allocates nothing.
func TestChanCallAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what the runtime allocates")
	}
	eps := NewChanNetwork(2, storage.NewLimiter(0))
	defer eps[0].Close()
	defer eps[1].Close()
	eps[1].SetHandler(payloadHandler(8 << 10))
	allocs := testing.AllocsPerRun(200, func() {
		if resp, err := eps[0].Call(bg, 1, Request{Kind: KindFetch, Sample: 2}); err != nil || len(resp.Data) != 8<<10 {
			t.Fatalf("fetch = (%d bytes, %v)", len(resp.Data), err)
		}
	})
	if allocs != 0 {
		t.Errorf("a chan fetch allocates %.0f times, want 0", allocs)
	}
}

// stepClock moves one step at every read.
type stepClock struct {
	t    time.Time
	step time.Duration
}

func (c *stepClock) Now() time.Time {
	c.t = c.t.Add(c.step)
	return c.t
}

func (c *stepClock) WaitUntil(context.Context, time.Time, <-chan struct{}) error { return nil }

// TestInstrumentTimesCalls: the decorator reports each outbound Call's
// outcome and its duration on the decorator's clock, which is read once
// before and once after the call.
func TestInstrumentTimesCalls(t *testing.T) {
	eps := NewChanNetwork(2, nil)
	eps[1].SetHandler(echoHandler(1))
	var got []string
	n := Instrument(eps[0], func(req Request, ok bool, seconds float64) {
		got = append(got, fmt.Sprintf("%d:%v:%g", req.Sample, ok, seconds))
	})
	n.(*instrumented).clock = &stepClock{step: 1500 * time.Microsecond}
	if _, err := n.Call(bg, 1, Request{Kind: KindFetch, Sample: 2}); err != nil {
		t.Fatal(err)
	}
	eps[1].Close()
	if _, err := n.Call(bg, 1, Request{Kind: KindFetch, Sample: 4}); err == nil {
		t.Fatal("call to a closed peer succeeded")
	}
	if want := "[2:true:0.0015 4:false:0.0015]"; fmt.Sprint(got) != want {
		t.Errorf("observed %v, want %s", got, want)
	}
}

func BenchmarkChanFetch(b *testing.B) {
	eps := NewChanNetwork(2, nil)
	eps[0].SetHandler(echoHandler(0))
	eps[1].SetHandler(echoHandler(1))
	defer eps[0].Close()
	defer eps[1].Close()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := eps[0].Call(bg, 1, Request{Kind: KindFetch, Sample: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTCPFetch(b *testing.B) {
	eps, err := NewTCPNetwork(2, nil)
	if err != nil {
		b.Fatal(err)
	}
	eps[0].SetHandler(echoHandler(0))
	eps[1].SetHandler(echoHandler(1))
	defer eps[0].Close()
	defer eps[1].Close()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := eps[0].Call(bg, 1, Request{Kind: KindFetch, Sample: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

// payloadHandler answers every fetch with the same n-byte sample, so the
// benchmarks below time the fabric and not the handler.
func payloadHandler(n int) Handler {
	data := make([]byte, n)
	return func(context.Context, int, Request) Response {
		return Response{OK: true, Data: data}
	}
}

// benchTCPFetch8K times fetches of an 8 KiB sample — the repo benchmark's
// sample size — over loopback TCP; run drives the calls. Each caller passes
// a Buf of its own, as a rank's staging threads do, so B/op is the
// exchange's own overhead rather than the payload.
func benchTCPFetch8K(b *testing.B, run func(call func(buf []byte) error)) {
	eps, err := NewTCPNetwork(2, nil)
	if err != nil {
		b.Fatal(err)
	}
	eps[0].SetHandler(payloadHandler(8 << 10))
	eps[1].SetHandler(payloadHandler(8 << 10))
	defer eps[0].Close()
	defer eps[1].Close()
	b.SetBytes(8 << 10)
	b.ReportAllocs()
	b.ResetTimer()
	run(func(buf []byte) error {
		resp, err := eps[0].Call(bg, 1, Request{Kind: KindFetch, Sample: 2, Buf: buf})
		if err == nil && len(resp.Data) != 8<<10 {
			err = fmt.Errorf("fetched %d bytes, want %d", len(resp.Data), 8<<10)
		}
		return err
	})
}

func BenchmarkTCPFetch8K(b *testing.B) {
	benchTCPFetch8K(b, func(call func(buf []byte) error) {
		buf := make([]byte, 8<<10)
		for i := 0; i < b.N; i++ {
			if err := call(buf); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTCPFetch8KParallel is the same fetch from GOMAXPROCS callers at
// once, each on its own pooled connection: staging and class threads of one
// rank share an endpoint exactly like this.
func BenchmarkTCPFetch8KParallel(b *testing.B) {
	benchTCPFetch8K(b, func(call func(buf []byte) error) {
		b.RunParallel(func(pb *testing.PB) {
			buf := make([]byte, 8<<10)
			for pb.Next() {
				if err := call(buf); err != nil {
					b.Error(err)
					return
				}
			}
		})
	})
}

// codecSink keeps BenchmarkWireCodec's results live.
var codecSink uint64

// BenchmarkWireCodec times what the codec adds to one exchange: request
// encode and decode, response header encode and decode. No sockets.
func BenchmarkWireCodec(b *testing.B) {
	data := make([]byte, 8<<10)
	var (
		reqBuf [reqSize]byte
		head   [respHeadSize]byte
	)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		encodeRequest(&reqBuf, 1, Request{Kind: KindFetch, Sample: int32(i)})
		from, req, err := decodeRequest(reqBuf[:])
		if err != nil {
			b.Fatal(err)
		}
		if err := encodeResponseHeader(&head, Response{OK: true, Value: uint64(req.Sample), Data: data}); err != nil {
			b.Fatal(err)
		}
		resp, n, err := decodeResponseHeader(head[:])
		if err != nil {
			b.Fatal(err)
		}
		codecSink += uint64(from) + resp.Value + uint64(n)
	}
}
