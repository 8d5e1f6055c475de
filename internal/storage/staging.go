package storage

import (
	"context"
	"errors"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
)

// Entry is one staged sample.
type Entry struct {
	Pos  int
	ID   int32
	Data []byte
}

// slot is one ring cell; full marks an entry, whose Data may be empty.
type slot struct {
	Entry
	full bool
}

// Staging is the staging buffer of paper Sec. 5.2.2: a byte-budget circular
// buffer filled by concurrent prefetcher goroutines and drained in exact
// access order by the trainer. Producers may complete out of order; PopRun
// always delivers position 0, 1, 2, ... Samples are dropped on pop (the
// paper's Rule 2-4 approximation: a consumed sample is the best eviction
// candidate). Payload memory circulates too (Buffer, Release).
type Staging struct {
	capBytes int64
	clock    clock.Clock  // clock.Real; tests set a manual one
	stalled  atomic.Int64 // nanoseconds PopRun has parked, read without mu

	mu sync.Mutex
	// ring holds position p in slot p % len(ring), a power of two.
	ring    []slot
	used    int64
	nextPop int
	top     int // one past the highest position staged
	closed  bool
	// A PushRun rings popWake while PopRun is parked (popParked), and Close
	// closes it; the first producer to park on the byte budget makes
	// pushWake, closed by the next PopRun or Close.
	popWake   chan struct{}
	popParked bool
	pushWake  chan struct{}

	// free holds released buffers by size-class ordinal: the 224 classes
	// of 1 B up to 1 GiB, the wire cap of a fetched payload (sixteen up
	// to 16 B, then eight per power of two); freeBytes <= capBytes.
	free      [224][][]byte
	freeBytes int64
}

// ErrClosed is returned by operations on a closed staging buffer.
var ErrClosed = errors.New("storage: staging buffer closed")

// NewStaging returns a staging buffer with the given byte budget.
func NewStaging(capBytes int64) *Staging {
	return &Staging{capBytes: capBytes, clock: clock.Real, ring: make([]slot, 16), popWake: make(chan struct{}, 1)}
}

// Push is PushRun of the one entry for stream position pos.
func (s *Staging) Push(ctx context.Context, pos int, id int32, data []byte) error {
	return s.PushRun(ctx, []Entry{{Pos: pos, ID: id, Data: data}})
}

// PushRun stages run, entries of one or more consecutive stream positions,
// with one budget check. It blocks while the run does not fit the budget,
// unless it starts at the next position to pop or fills a gap below the
// highest staged one, which the consumer waits for: a run over the budget
// cannot deadlock, and T producers claiming runs within the budget from one
// counter (the job's staging threads) stage at most the budget plus T-1 runs.
// Canceling ctx unblocks the call with ctx's error. A run that is not
// consecutive or holds a staged or delivered position is rejected whole.
func (s *Staging) PushRun(ctx context.Context, run []Entry) error {
	first, size := run[0].Pos, int64(0)
	for i := range run {
		size += int64(len(run[i].Data))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for !s.closed && s.used+size > s.capBytes && first != s.nextPop && first >= s.top && clock.Err(ctx) == nil {
		if s.pushWake == nil {
			s.pushWake = make(chan struct{})
		}
		wake := s.pushWake
		s.mu.Unlock()
		_ = s.clock.WaitUntil(ctx, clock.Never, wake) // the loop reads ctx
		s.mu.Lock()
	}
	if s.closed {
		return ErrClosed
	}
	if err := clock.Err(ctx); err != nil {
		return err
	}
	last := first + len(run) - 1
	for last-s.nextPop >= len(s.ring) { // double the ring; pending positions re-slot
		ring := make([]slot, 2*len(s.ring))
		for p := s.nextPop; p < s.nextPop+len(s.ring); p++ {
			ring[p&(len(ring)-1)] = s.ring[p&(len(s.ring)-1)]
		}
		s.ring = ring
	}
	mask := len(s.ring) - 1
	for i := range run {
		if pos := run[i].Pos; pos != first+i || pos < s.nextPop || s.ring[pos&mask].full {
			return errors.New("storage: staging run not consecutive, or a position staged or delivered")
		}
	}
	for i := range run {
		s.ring[(first+i)&mask] = slot{run[i], true}
	}
	s.used += size
	s.top = max(s.top, last+1)
	if first == s.nextPop && s.popParked {
		s.popParked = false
		select {
		case s.popWake <- struct{}{}:
		default: // a ring that a canceled PopRun left is pending
		}
	}
	return nil
}

// Pop is PopRun into one entry.
func (s *Staging) Pop(ctx context.Context) (Entry, error) {
	var e [1]Entry
	_, err := s.PopRun(ctx, e[:])
	return e[0], err
}

// PopRun moves into dst the entries of the consecutive staged positions from
// the next one, up to len(dst) >= 1, and returns how many. It blocks until
// the next position is staged; the time it blocks, on the buffer's clock,
// adds to Stalled. After Close it returns ErrClosed once the in-order prefix
// has drained, and ctx's error if ctx ends first; an error moves nothing.
// PopRun has one caller at a time.
func (s *Staging) PopRun(ctx context.Context, dst []Entry) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if err := clock.Err(ctx); err != nil {
			return 0, err
		}
		n := 0
		for ; n < len(dst); n++ {
			sl := &s.ring[(s.nextPop+n)&(len(s.ring)-1)]
			if !sl.full {
				break
			}
			dst[n] = sl.Entry
			s.used -= int64(len(sl.Data))
			*sl = slot{} // no payload stays reachable from the ring
		}
		if n > 0 {
			s.nextPop += n
			if s.pushWake != nil {
				close(s.pushWake)
				s.pushWake = nil
			}
			return n, nil
		}
		if s.closed {
			return 0, ErrClosed
		}
		start := s.clock.Now()
		s.popParked = true
		s.mu.Unlock()
		_ = s.clock.WaitUntil(ctx, clock.Never, s.popWake) // the loop reads ctx
		s.mu.Lock()
		s.stalled.Add(int64(s.clock.Now().Sub(start)))
	}
}

// Buffer returns an n-byte buffer to read a payload into: a released one of
// n's size class, or a new one of that capacity.
func (s *Staging) Buffer(n int) []byte {
	c, ord := sizeClass(n)
	s.mu.Lock()
	defer s.mu.Unlock()
	if ord >= len(s.free) || len(s.free[ord]) == 0 {
		return make([]byte, n, c)
	}
	l := s.free[ord]
	s.free[ord], s.freeBytes = l[:len(l)-1], s.freeBytes-int64(c)
	return l[len(l)-1][:n]
}

// Release returns consumed Buffers, which the caller must not touch again,
// to the free list; what exceeds the byte budget is left to the GC.
func (s *Staging) Release(bufs ...[]byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, b := range bufs {
		if c, ord := sizeClass(cap(b)); c == cap(b) && ord < len(s.free) && s.freeBytes+int64(c) <= s.capBytes {
			s.free[ord] = append(s.free[ord], b)
			s.freeBytes += int64(c)
		}
	}
}

// sizeClass rounds n up to a buffer capacity c: eight classes per power of
// two, so a buffer is at most an eighth larger than its payload. ord numbers
// the classes densely from 0 for 1 byte; a capacity of 0 gets an ordinal
// past every free list.
func sizeClass(n int) (c, ord int) {
	shift := max(bits.Len(uint(n-1))-4, 0)
	m := (n-1)>>shift + 1
	return m << shift, 8*shift + m - 1
}

// Used returns the bytes currently staged.
func (s *Staging) Used() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.used
}

// Stalled returns the total time PopRun has blocked, on the buffer's clock.
func (s *Staging) Stalled() time.Duration { return time.Duration(s.stalled.Load()) }

// Close wakes all waiters; PopRun drains staged in-order entries then
// reports ErrClosed, PushRun fails immediately.
func (s *Staging) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		s.closed = true
		close(s.popWake)
		if s.pushWake != nil {
			close(s.pushWake)
			s.pushWake = nil
		}
	}
}
