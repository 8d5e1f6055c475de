package transport

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
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
			f.nets[1].SetHandler(func(_ context.Context, from int, req Request) Response {
				<-release // serve only after the test is done
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
// sample size — over loopback TCP; run drives the calls.
func benchTCPFetch8K(b *testing.B, run func(call func() error)) {
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
	run(func() error {
		resp, err := eps[0].Call(bg, 1, Request{Kind: KindFetch, Sample: 2})
		if err == nil && len(resp.Data) != 8<<10 {
			err = fmt.Errorf("fetched %d bytes, want %d", len(resp.Data), 8<<10)
		}
		return err
	})
}

func BenchmarkTCPFetch8K(b *testing.B) {
	benchTCPFetch8K(b, func(call func() error) {
		for i := 0; i < b.N; i++ {
			if err := call(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTCPFetch8KParallel is the same fetch from GOMAXPROCS callers at
// once, each on its own pooled connection: staging and class threads of one
// rank share an endpoint exactly like this.
func BenchmarkTCPFetch8KParallel(b *testing.B) {
	benchTCPFetch8K(b, func(call func() error) {
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if err := call(); err != nil {
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
