package transport

import (
	"context"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/storage"
)

// TCPEndpoint is a Network over loopback TCP sockets, using a compact
// length-prefixed binary protocol. It demonstrates that the middleware's
// fabric needs nothing beyond the standard library: swap the channel fabric
// for this one and real bytes cross real sockets.
type TCPEndpoint struct {
	rank     int
	addrs    []string
	listener net.Listener
	limiter  *storage.Limiter

	// life is the endpoint's lifetime context, canceled by Close; serve
	// loops run handlers and limiter waits under it.
	life     context.Context
	lifeStop context.CancelFunc

	// handler is the installed request handler (latest SetHandler wins);
	// acceptOnce ensures one accept loop no matter how often the handler
	// is replaced, matching ChanEndpoint.
	handler    atomic.Pointer[Handler]
	acceptOnce sync.Once

	mu     sync.Mutex
	closed bool
	// conns tracks every open connection — accepted, dialled, in flight or
	// idle — so Close can sever them: an in-flight Call returns a clean
	// error instead of hanging on a peer that will never respond.
	conns map[net.Conn]struct{}
	// idle holds, per peer, the dialled connections whose last exchange
	// ended with a complete, well-formed response; Call reuses them instead
	// of dialling. One connection carries one exchange at a time, so the
	// lists are bounded by the number of concurrent callers.
	idle [][]net.Conn
	// closeOnce makes Close idempotent: a crash handler may close the
	// endpoint early and Job.Close will close it again on teardown.
	closeOnce sync.Once
	closeErr  error
}

// track registers an open connection; it reports false (and closes the
// connection) when the endpoint is already closed.
func (e *TCPEndpoint) track(conn net.Conn) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		conn.Close()
		return false
	}
	if e.conns == nil {
		e.conns = make(map[net.Conn]struct{})
	}
	e.conns[conn] = struct{}{}
	return true
}

// discard closes and forgets connections that must not carry another exchange.
func (e *TCPEndpoint) discard(conns ...net.Conn) {
	e.mu.Lock()
	for _, c := range conns {
		delete(e.conns, c)
	}
	e.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// acquire runs Call's fail-fast checks — ErrClosed after our own Close,
// then a pre-canceled context — and pops an idle connection to peer to. A
// nil connection with a nil error means the caller has to dial.
func (e *TCPEndpoint) acquire(ctx context.Context, to int) (net.Conn, error) {
	canceled := ctx.Err() // the caller's code: not under e.mu
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, ErrClosed
	}
	if canceled != nil {
		return nil, canceled
	}
	list := e.idle[to]
	if len(list) == 0 {
		return nil, nil
	}
	conn := list[len(list)-1]
	e.idle[to] = list[:len(list)-1]
	return conn, nil
}

// dropIdle severs every idle connection to peer to: one of its siblings
// just broke, so the peer most likely closed them all.
func (e *TCPEndpoint) dropIdle(to int) {
	e.mu.Lock()
	stale := e.idle[to]
	e.idle[to] = nil
	e.mu.Unlock()
	e.discard(stale...)
}

// NewTCPNetwork builds an n-worker fabric on 127.0.0.1 ephemeral ports.
func NewTCPNetwork(n int, limiter *storage.Limiter) ([]*TCPEndpoint, error) {
	eps := make([]*TCPEndpoint, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for j := 0; j < i; j++ {
				eps[j].Close()
			}
			return nil, fmt.Errorf("transport: listen: %w", err)
		}
		//lint:ignore ctxfirst endpoint-lifetime root created at construction; Close calls lifeStop to sever it
		life, stop := context.WithCancel(context.Background())
		eps[i] = &TCPEndpoint{rank: i, listener: l, limiter: limiter, life: life, lifeStop: stop, idle: make([][]net.Conn, n)}
		addrs[i] = l.Addr().String()
	}
	for _, e := range eps {
		e.addrs = addrs
	}
	return eps, nil
}

// Rank implements Network.
func (e *TCPEndpoint) Rank() int { return e.rank }

// Size implements Network.
func (e *TCPEndpoint) Size() int { return len(e.addrs) }

// SetHandler implements Network and starts the accept loop on first call.
// The handler is stored atomically — replacing it is race-free and every
// serve loop picks up the latest one, matching ChanEndpoint.
func (e *TCPEndpoint) SetHandler(h Handler) {
	e.handler.Store(&h)
	e.acceptOnce.Do(func() {
		//lint:ignore goroutine accept loop's teardown is the listener itself: Close closes it and Accept returns an error
		go func() {
			for {
				conn, err := e.listener.Accept()
				if err != nil {
					return // listener closed
				}
				go e.serve(conn)
			}
		}()
	})
}

// serve answers one peer connection, request after request, until either
// side closes it or a frame cannot be trusted.
func (e *TCPEndpoint) serve(conn net.Conn) {
	if !e.track(conn) {
		return
	}
	defer e.discard(conn)
	// The frame buffers live as long as the connection, not per request.
	var (
		buf   [reqSize]byte
		head  [respHeadSize]byte
		parts [2][]byte
		frame net.Buffers
	)
	for {
		if _, err := io.ReadFull(conn, buf[:]); err != nil {
			return
		}
		from, req, err := decodeRequest(buf[:])
		if err != nil || from < 0 || from >= len(e.addrs) {
			// Malformed, or a sender rank this fabric does not have: the
			// field is the wire's word, so never hand it to the handler.
			return
		}
		resp := Response{}
		if h := e.handler.Load(); h != nil {
			resp = (*h)(e.life, from, req)
		}
		if len(resp.Data) > 0 {
			if err := e.limiter.Wait(e.life, int64(len(resp.Data))); err != nil {
				return // endpoint closed mid-response
			}
		}
		if err := encodeResponseHeader(&head, resp); err != nil {
			return // over-cap payload: sever rather than desync the stream
		}
		// Header and payload leave in one writev. WriteTo consumes the
		// vector it is given, so it is rebuilt over parts for every frame.
		parts[0], parts[1] = head[:], resp.Data
		frame = parts[:]
		if _, err := frame.WriteTo(conn); err != nil {
			return
		}
	}
}

// Call implements Network over persistent connections: it takes an idle
// connection to the peer, or dials when every one is busy, performs one
// request/response exchange on it and parks it for the next Call. Canceling
// ctx severs the connection, unblocking any in-flight read or write with
// ctx's error. A severed or half-closed connection fails fast with an
// ErrUnreachable-classified error after one re-dial: requests are
// idempotent reads, so retrying a broken exchange on a fresh connection is
// safe — a reused connection may simply have been closed by the peer while
// idle — and a break on the fresh one means the peer is genuinely gone.
func (e *TCPEndpoint) Call(ctx context.Context, to int, req Request) (Response, error) {
	if to < 0 || to >= len(e.addrs) {
		return Response{}, fmt.Errorf("transport: rank %d out of range", to)
	}
	conn, err := e.acquire(ctx, to)
	if err != nil {
		return Response{}, err
	}
	resp, err, retryable := e.callOnce(ctx, to, req, conn)
	if retryable && ctx.Err() == nil {
		if conn != nil {
			e.dropIdle(to)
		}
		resp, err, _ = e.callOnce(ctx, to, req, nil)
	}
	return resp, err
}

// callOnce performs one exchange on conn, dialing first when conn is nil.
// The connection is parked for reuse only after a complete, well-formed
// response; an exchange cut short in any way — cancellation, a per-attempt
// deadline, a broken socket, a malformed header — closes it, because the
// next caller would otherwise read this caller's response. The third return
// reports whether the failure was a connection-level break worth one
// re-dial (as opposed to cancellation, a closed endpoint, or a protocol
// error).
func (e *TCPEndpoint) callOnce(ctx context.Context, to int, req Request, conn net.Conn) (resp Response, err error, retryable bool) {
	if conn == nil {
		if conn, err = (&net.Dialer{}).DialContext(ctx, "tcp", e.addrs[to]); err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return Response{}, cerr, false
			}
			// A refused or failed dial is peer-down evidence: the peer's
			// listener is gone (its Close ran) or the host is unreachable.
			return Response{}, fmt.Errorf("transport: dial rank %d: %w: %w", to, ErrUnreachable, err), true
		}
		// Register the outgoing connection so closing this endpoint severs
		// it, in flight or idle; Close may have raced the dial, in which
		// case track already closed the connection.
		if !e.track(conn) {
			return Response{}, ErrClosed, false
		}
	}
	// Cancellation severs the connection the same way. A false stop means
	// it already has, even if the response got through first.
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer func() {
		if !stop() || err != nil {
			e.discard(conn)
			return
		}
		e.mu.Lock()
		if !e.closed { // else Close severed it with the rest of conns
			e.idle[to] = append(e.idle[to], conn)
		}
		e.mu.Unlock()
	}()
	// sever maps an I/O failure on the established connection: to the
	// context's error when cancellation severed it, to ErrClosed when our
	// own Close did, and otherwise to an ErrUnreachable-classified broken
	// connection (the peer closed, crashed, or reset mid-exchange) that
	// the caller may retry on a fresh dial.
	sever := func(op string, err error) (Response, error, bool) {
		if cerr := ctx.Err(); cerr != nil {
			return Response{}, cerr, false
		}
		e.mu.Lock()
		closed := e.closed
		e.mu.Unlock()
		if closed {
			return Response{}, ErrClosed, false
		}
		return Response{}, fmt.Errorf("transport: %s rank %d: %w: %w", op, to, ErrUnreachable, err), true
	}

	// One buffer carries the request out and the (shorter) header back.
	var buf [reqSize]byte
	encodeRequest(&buf, e.rank, req)
	if _, err := conn.Write(buf[:]); err != nil {
		return sever("write to", err)
	}
	head := buf[:respHeadSize]
	if _, err := io.ReadFull(conn, head); err != nil {
		return sever("read from", err)
	}
	resp, n, err := decodeResponseHeader(head)
	if err != nil {
		// A malformed header is a protocol error, not a broken peer; do
		// not classify it as unreachable or retry it.
		return Response{}, fmt.Errorf("transport: response from rank %d: %w", to, err), false
	}
	if n > 0 {
		resp.Data = make([]byte, n)
		if _, err := io.ReadFull(conn, resp.Data); err != nil {
			return sever("read from", err)
		}
	}
	return resp, nil, false
}

// Close implements Network: it stops accepting, cancels the lifetime
// context, severs every open connection (unblocking in-flight Calls and
// serve loops on both sides), and marks the endpoint so later Calls fail
// fast with ErrClosed. It is idempotent: a crash handler may close the
// endpoint early and the job's teardown will close it again.
func (e *TCPEndpoint) Close() error {
	e.closeOnce.Do(func() {
		e.mu.Lock()
		e.closed = true
		conns := make([]net.Conn, 0, len(e.conns))
		for c := range e.conns {
			conns = append(conns, c)
		}
		e.conns = nil
		clear(e.idle)
		e.mu.Unlock()
		e.lifeStop()
		for _, c := range conns {
			c.Close()
		}
		e.closeErr = e.listener.Close()
	})
	return e.closeErr
}
