// Package transport is the communication substrate of the live middleware,
// standing in for the paper's MPI layer. It provides the two operations
// NoPFS needs — a setup allgather (exchanging plan digests) and
// point-to-point sample fetches — over two interchangeable fabrics: an
// in-process network (used by the cluster harness and tests) and a TCP
// loopback network (real sockets, same protocol).
//
// The in-process fabric has no goroutines: a Call runs the peer's handler
// on the calling goroutine, under the caller's context. A TCP endpoint
// serves each connection on a goroutine of its own, under a lifetime
// context that Close cancels.
//
// The in-process fabric copies nothing: a fetch returns the handler's own
// bytes. TCP copies each payload off the socket, into the caller's
// Request.Buf when it has the capacity and into a fresh slice otherwise.
//
// Every blocking operation is context-first: Call returns the context's
// error when the caller cancels mid-flight, so a canceled cluster tears its
// fabric down in bounded time.
package transport

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/clock"
	"repro/internal/storage"
)

// Request kinds.
const (
	// KindFetch asks a peer for a cached sample.
	KindFetch = uint8(iota + 1)
	// KindValue exchanges a uint64 (plan digests, progress counters).
	KindValue
)

// Request is one message to a peer.
type Request struct {
	Kind   uint8
	Sample int32
	Value  uint64
	// Buf is where the caller wants a fetch's payload; it never crosses
	// the wire. A fabric that copies the payload (TCP) reads it into Buf
	// when cap(Buf) suffices, so Response.Data aliases Buf, and allocates
	// otherwise, leaving Buf untouched. A fabric that returns shared bytes
	// (the in-process one) ignores it. The caller owns Buf again once Call
	// returns.
	Buf []byte
}

// Response is a peer's reply.
type Response struct {
	// OK is false for a fetch miss (the remote-progress heuristic's false
	// positive, Sec. 5.2.2 — detected, not fatal).
	OK    bool
	Value uint64
	Data  []byte
}

// Handler serves requests arriving at an endpoint, and must honour ctx so a
// handler blocked on rate-limited storage unwinds. What ctx is depends on
// the fabric. On TCP it is the serving endpoint's lifetime, canceled when
// that endpoint closes. On the in-process fabric it is the caller's context:
// it ends when the caller gives up, not when the serving endpoint closes.
type Handler func(ctx context.Context, from int, req Request) Response

// Network is one worker's view of the fabric.
type Network interface {
	// Rank is this worker's id in [0, Size).
	Rank() int
	// Size is the worker count.
	Size() int
	// SetHandler installs the request handler; it must be called before
	// any peer Calls this endpoint. The handler's context is the fabric's
	// (see Handler).
	SetHandler(Handler)
	// Call sends a request to a peer and waits for its response. Canceling
	// ctx unblocks the call with ctx's error.
	Call(ctx context.Context, to int, req Request) (Response, error)
	// Close releases the endpoint: later Calls through it fail with
	// ErrClosed, and Calls to it with ErrUnreachable.
	Close() error
}

// RunCaller is a Network that carries a run of fetches to one peer in one
// exchange. The TCP fabric is one; the chan fabric, whose Call is already
// a function call, is not, and a decorator that does not forward CallRun
// hides it.
type RunCaller interface {
	// CallRun sends reqs, all fetches, to peer to and writes the reply to
	// reqs[i] into resps[i]. An error fails the whole run, and resps then
	// holds nothing to trust.
	CallRun(ctx context.Context, to int, reqs []Request, resps []Response) error
}

// AllgatherValue exchanges a uint64 with every peer: the returned slice
// holds each rank's value (own value included). NoPFS uses this at setup to
// verify that every worker derived the identical access plan.
func AllgatherValue(ctx context.Context, n Network, mine uint64) ([]uint64, error) {
	out := make([]uint64, n.Size())
	out[n.Rank()] = mine
	for peer := 0; peer < n.Size(); peer++ {
		if peer == n.Rank() {
			continue
		}
		resp, err := n.Call(ctx, peer, Request{Kind: KindValue, Value: mine})
		if err != nil {
			return nil, fmt.Errorf("transport: allgather with rank %d: %w", peer, err)
		}
		out[peer] = resp.Value
	}
	return out, nil
}

// ErrClosed is returned when calling through a closed endpoint.
var ErrClosed = errors.New("transport: endpoint closed")

// ErrUnreachable is returned when the peer itself cannot be reached —
// refused dials, severed connections, a peer that shut down. It is
// peer-down evidence for the resilience layer's failure classification,
// distinct from ErrClosed (our own endpoint is closed).
var ErrUnreachable = errors.New("transport: peer unreachable")

// ChanEndpoint is an in-process Network with no goroutines of its own: a
// Call runs the peer's handler on the calling goroutine, under the caller's
// context, and pays the interconnect limiter there too. All endpoints of one
// fabric share an optional bandwidth limiter modelling the interconnect b_c,
// and see each other's shutdown state so a Call to a closed peer fails
// instead of being served.
type ChanEndpoint struct {
	rank    int
	peers   []*ChanEndpoint
	limiter *storage.Limiter
	closed  atomic.Bool

	// handler is the installed request handler (latest SetHandler wins).
	handler atomic.Pointer[Handler]
}

// NewChanNetwork builds an n-worker in-process fabric. limiter (optional)
// throttles response payload bytes at the configured aggregate rate.
func NewChanNetwork(n int, limiter *storage.Limiter) []*ChanEndpoint {
	eps := make([]*ChanEndpoint, n)
	for i := range eps {
		eps[i] = &ChanEndpoint{rank: i, peers: eps, limiter: limiter}
	}
	return eps
}

// Rank implements Network.
func (e *ChanEndpoint) Rank() int { return e.rank }

// Size implements Network.
func (e *ChanEndpoint) Size() int { return len(e.peers) }

// SetHandler implements Network. The handler is stored atomically, so
// replacing it is race-free and the next Call runs the latest one. It runs
// on the caller's goroutine under the caller's context (see Handler).
func (e *ChanEndpoint) SetHandler(h Handler) { e.handler.Store(&h) }

// Call implements Network by running the peer's handler in place. The
// handler honours ctx, so canceling ctx ends the call with ctx's error. A
// peer that is closed before the handler runs or by the time it returns is
// unreachable: a crash mid-response loses the response.
func (e *ChanEndpoint) Call(ctx context.Context, to int, req Request) (Response, error) {
	if to < 0 || to >= len(e.peers) {
		return Response{}, fmt.Errorf("transport: rank %d out of range", to)
	}
	if err := clock.Err(ctx); err != nil {
		return Response{}, err
	}
	if e.closed.Load() {
		return Response{}, ErrClosed
	}
	peer := e.peers[to]
	if peer.closed.Load() {
		return Response{}, fmt.Errorf("transport: rank %d: %w", to, ErrUnreachable)
	}
	h := peer.handler.Load()
	if h == nil {
		return Response{}, fmt.Errorf("transport: rank %d has no handler", to)
	}
	resp := (*h)(ctx, e.rank, req)
	if len(resp.Data) > 0 {
		if err := e.limiter.Wait(ctx, int64(len(resp.Data))); err != nil {
			return Response{}, err
		}
	}
	if err := clock.Err(ctx); err != nil {
		return Response{}, err
	}
	if peer.closed.Load() {
		return Response{}, fmt.Errorf("transport: rank %d: %w", to, ErrUnreachable)
	}
	return resp, nil
}

// Close implements Network. It is idempotent; a Call already running this
// endpoint's handler finishes under its caller's context.
func (e *ChanEndpoint) Close() error {
	e.closed.Store(true)
	return nil
}
