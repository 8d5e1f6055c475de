package transport

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/clock"
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
	conns map[*tcpConn]struct{}
	// idle holds, per peer, the dialled connections whose last exchange
	// ended with a complete, well-formed response; Call reuses them instead
	// of dialling. One connection carries one exchange at a time, so the
	// lists are bounded by the number of concurrent callers.
	idle [][]*tcpConn
	// closeOnce makes Close idempotent: a crash handler may close the
	// endpoint early and Job.Close will close it again on teardown.
	closeOnce sync.Once
	closeErr  error
}

// tcpConn is a connection and what its exchanges reuse, which the idle pool
// parks with it: the frame buffer, and on a dialled connection the watch
// that severs it when the context of its exchange is canceled. The watch is
// registered once per Done channel, so exchanges under one context share
// it; state is gen<<2 | 0 (idle), 1 (busy) or 2 (severed), and a stale
// watch, of an older gen, does nothing.
type tcpConn struct {
	net.Conn
	frame []byte
	done  <-chan struct{}
	stop  func() bool
	gen   uint64
	state atomic.Uint64
}

// begin marks an exchange under ctx as started, watching ctx.
func (c *tcpConn) begin(ctx context.Context) error {
	if d := ctx.Done(); d != c.done {
		if c.stop != nil {
			c.stop()
		}
		c.gen++
		c.done, c.stop = d, nil
		if busy := c.gen<<2 | 1; d != nil {
			c.stop = context.AfterFunc(ctx, func() {
				if c.state.CompareAndSwap(busy, busy+1) {
					c.Conn.Close()
				}
			})
		}
	}
	c.state.Store(c.gen<<2 | 1)
	return ctx.Err()
}

// end marks the exchange as over; false means the watch severed it.
func (c *tcpConn) end() bool { return c.state.CompareAndSwap(c.gen<<2|1, c.gen<<2) }

// track registers an open connection; it reports false (and closes the
// connection) when the endpoint is already closed.
func (e *TCPEndpoint) track(c *tcpConn) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		c.Close()
		return false
	}
	if e.conns == nil {
		e.conns = make(map[*tcpConn]struct{})
	}
	e.conns[c] = struct{}{}
	return true
}

// discard closes and forgets connections that must not carry another
// exchange, and drops their watches.
func (e *TCPEndpoint) discard(conns ...*tcpConn) {
	e.mu.Lock()
	for _, c := range conns {
		delete(e.conns, c)
	}
	e.mu.Unlock()
	for _, c := range conns {
		if c.stop != nil {
			c.stop()
		}
		c.Close()
	}
}

// acquire runs Call's fail-fast checks — ErrClosed after our own Close,
// then a pre-canceled context — and pops an idle connection to peer to. A
// nil connection with a nil error means the caller has to dial.
func (e *TCPEndpoint) acquire(ctx context.Context, to int) (*tcpConn, error) {
	canceled := clock.Err(ctx) // the caller's code: not under e.mu
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
		eps[i] = &TCPEndpoint{rank: i, listener: l, limiter: limiter, life: life, lifeStop: stop, idle: make([][]*tcpConn, n)}
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
				go e.serve(&tcpConn{Conn: conn})
			}
		}()
	})
}

// serve answers one peer connection, request after request, until either
// side closes it or a frame cannot be trusted. A run's items go to the
// handler in order, pay the limiter once and leave in one writev.
func (e *TCPEndpoint) serve(c *tcpConn) {
	if !e.track(c) {
		return
	}
	defer e.discard(c)
	// The frame buffers live as long as the connection, not per request.
	var (
		head         [reqSize]byte
		reqs         []Request
		resps        []Response
		parts, frame net.Buffers
	)
	for {
		if _, err := io.ReadFull(c, head[:]); err != nil {
			return
		}
		from, req, err := decodeRequest(head[:])
		if err != nil || from < 0 || from >= len(e.addrs) {
			// Malformed, or a sender rank this fabric does not have: the
			// field is the wire's word, so never hand it to the handler.
			return
		}
		reqs = append(reqs[:0], req)
		if req.Kind == kindRun {
			n, err := runLen(req)
			if err != nil {
				return
			}
			c.frame = slices.Grow(c.frame[:0], n*runItemSize)[:n*runItemSize]
			if _, err := io.ReadFull(c, c.frame); err != nil {
				return
			}
			reqs = decodeRunItems(c.frame, reqs[:0])
		}
		h, total := e.handler.Load(), 0
		resps = resps[:0]
		for _, r := range reqs {
			resp := Response{}
			if h != nil {
				resp = (*h)(e.life, from, r)
			}
			resps, total = append(resps, resp), total+len(resp.Data)
		}
		if total > 0 {
			if err := e.limiter.Wait(e.life, int64(total)); err != nil {
				return // endpoint closed mid-response
			}
		}
		if c.frame, err = appendHeads(c.frame[:0], resps); err != nil {
			return // over-cap payload: sever rather than desync the stream
		}
		// Heads and payloads leave in one writev. WriteTo consumes the
		// vector it is given, so it is rebuilt over parts for every frame.
		parts = append(parts[:0], c.frame)
		for _, r := range resps {
			parts = append(parts, r.Data)
		}
		frame = parts
		if _, err := frame.WriteTo(c.Conn); err != nil {
			return
		}
	}
}

// Call implements Network as a run of one request (see CallRun).
func (e *TCPEndpoint) Call(ctx context.Context, to int, req Request) (Response, error) {
	var resp [1]Response
	err := e.CallRun(ctx, to, []Request{req}, resp[:])
	return resp[0], err
}

// CallRun implements RunCaller over persistent connections: it takes an
// idle connection to the peer, or dials when every one is busy, performs
// one exchange on it per maxRunLen requests and parks it for the next
// call. Canceling ctx severs the connection, unblocking any in-flight read
// or write with ctx's error. A severed or half-closed connection fails fast
// with an ErrUnreachable-classified error after one re-dial: requests are
// idempotent reads, so retrying a broken exchange on a fresh connection is
// safe — a reused connection may simply have been closed by the peer while
// idle — and a break on the fresh one means the peer is genuinely gone.
func (e *TCPEndpoint) CallRun(ctx context.Context, to int, reqs []Request, resps []Response) error {
	if to < 0 || to >= len(e.addrs) {
		return fmt.Errorf("transport: rank %d out of range", to)
	}
	if len(reqs) == 0 {
		return nil // a count-0 run frame is malformed: send none
	}
	if len(reqs) > 1 && slices.ContainsFunc(reqs, func(r Request) bool { return r.Kind != KindFetch }) {
		return errors.New("transport: a run carries fetches only") // its items have no kind field
	}
	if len(reqs) > maxRunLen {
		if err := e.CallRun(ctx, to, reqs[:maxRunLen], resps); err != nil {
			return err
		}
		return e.CallRun(ctx, to, reqs[maxRunLen:], resps[maxRunLen:])
	}
	c, err := e.acquire(ctx, to)
	if err != nil {
		return err
	}
	err, retryable := e.exchange(ctx, to, reqs, resps, c)
	if retryable && ctx.Err() == nil {
		if c != nil {
			e.dropIdle(to)
		}
		err, _ = e.exchange(ctx, to, reqs, resps, nil)
	}
	return err
}

// exchange performs one exchange on c, dialing first when c is nil. The
// connection is parked for reuse only after a complete, well-formed
// response; an exchange cut short in any way — cancellation, a per-attempt
// deadline, a broken socket, a malformed header — closes it, because the
// next caller would otherwise read this caller's response. The second
// return reports whether the failure was a connection-level break worth one
// re-dial (as opposed to cancellation, a closed endpoint, or a protocol
// error).
func (e *TCPEndpoint) exchange(ctx context.Context, to int, reqs []Request, resps []Response, c *tcpConn) (err error, retryable bool) {
	if c == nil {
		conn, err := (&net.Dialer{}).DialContext(ctx, "tcp", e.addrs[to])
		if err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return cerr, false
			}
			// A refused or failed dial is peer-down evidence: the peer's
			// listener is gone (its Close ran) or the host is unreachable.
			return fmt.Errorf("transport: dial rank %d: %w: %w", to, ErrUnreachable, err), true
		}
		// Register the outgoing connection so closing this endpoint severs
		// it, in flight or idle; Close may have raced the dial, in which
		// case track already closed the connection.
		if c = (&tcpConn{Conn: conn}); !e.track(c) {
			return ErrClosed, false
		}
	}
	defer func() {
		if !c.end() || err != nil {
			e.discard(c)
			return
		}
		e.mu.Lock()
		if !e.closed { // else Close severed it with the rest of conns
			e.idle[to] = append(e.idle[to], c)
		}
		e.mu.Unlock()
	}()
	if err := c.begin(ctx); err != nil {
		return err, false
	}
	// sever maps an I/O failure on the established connection: to the
	// context's error when cancellation severed it, to ErrClosed when our
	// own Close did, and otherwise to an ErrUnreachable-classified broken
	// connection (the peer closed, crashed, or reset mid-exchange) that
	// the caller may retry on a fresh dial.
	sever := func(op string, err error) (error, bool) {
		if cerr := ctx.Err(); cerr != nil {
			return cerr, false
		}
		e.mu.Lock()
		closed := e.closed
		e.mu.Unlock()
		if closed {
			return ErrClosed, false
		}
		return fmt.Errorf("transport: %s rank %d: %w: %w", op, to, ErrUnreachable, err), true
	}

	c.frame = appendFrame(c.frame[:0], e.rank, reqs)
	if _, err := c.Write(c.frame); err != nil {
		return sever("write to", err)
	}
	c.frame = slices.Grow(c.frame[:0], len(reqs)*respHeadSize)[:len(reqs)*respHeadSize]
	if _, err := io.ReadFull(c, c.frame); err != nil {
		return sever("read from", err)
	}
	for i, req := range reqs {
		resp, n, err := decodeResponseHeader(c.frame[i*respHeadSize:])
		if err != nil {
			// A malformed header is a protocol error, not a broken peer; do
			// not classify it as unreachable or retry it.
			return fmt.Errorf("transport: response from rank %d: %w", to, err), false
		}
		if n > 0 {
			resp.Data = slices.Grow(req.Buf[:0], int(n))[:n] // see Request.Buf
			if _, err := io.ReadFull(c, resp.Data); err != nil {
				return sever("read from", err)
			}
		}
		resps[i] = resp
	}
	return nil, false
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
		conns := make([]*tcpConn, 0, len(e.conns))
		for c := range e.conns {
			conns = append(conns, c)
		}
		e.conns = nil
		idle := slices.Concat(e.idle...) // nobody else can take them now
		clear(e.idle)
		e.mu.Unlock()
		e.lifeStop()
		for _, c := range conns {
			c.Close()
		}
		e.discard(idle...) // their watches
		e.closeErr = e.listener.Close()
	})
	return e.closeErr
}
