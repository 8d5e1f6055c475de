package storage

import (
	"context"
	"errors"
	"math/bits"
	"sync"
)

// Entry is one staged sample.
type Entry struct {
	Pos  int
	ID   int32
	Data []byte
}

// Staging is the staging buffer of paper Sec. 5.2.2: a byte-budget circular
// buffer filled by concurrent prefetcher goroutines and drained in exact
// access order by the trainer. Producers may complete out of order; Pop
// always delivers position 0, 1, 2, ... Samples are dropped on Pop (the
// paper's Rule 2-4 approximation: a consumed sample is the best eviction
// candidate). Payload memory circulates too (Buffer, Release).
type Staging struct {
	capBytes int64

	mu       sync.Mutex
	notFull  *sync.Cond
	notEmpty *sync.Cond
	pending  map[int]Entry
	used     int64
	nextPop  int
	closed   bool

	// free holds released buffers by capacity; freeBytes <= capBytes.
	free      map[int][][]byte
	freeBytes int64
}

// ErrClosed is returned by operations on a closed staging buffer.
var ErrClosed = errors.New("storage: staging buffer closed")

// NewStaging returns a staging buffer with the given byte budget.
func NewStaging(capBytes int64) *Staging {
	s := &Staging{capBytes: capBytes, pending: make(map[int]Entry), free: make(map[int][][]byte)}
	s.notFull = sync.NewCond(&s.mu)
	s.notEmpty = sync.NewCond(&s.mu)
	return s
}

// noopStop is watch's return for contexts that can never be canceled.
var noopStop = func() bool { return false }

// watch wakes every waiter when ctx is canceled, so a Push/Pop blocked on a
// condition variable observes the cancellation. Callers register it lazily,
// under s.mu, only when actually about to Cond.Wait — the common non-blocking
// path stays free of AfterFunc bookkeeping. Registration under the mutex is
// what closes the lost-wakeup window: the callback also takes s.mu before
// broadcasting, so it cannot fire between the caller's ctx check and its
// Wait. Uncancellable contexts (context.Background and friends) skip the
// registration entirely.
func (s *Staging) watch(ctx context.Context) (stop func() bool) {
	if ctx.Done() == nil {
		return noopStop
	}
	return context.AfterFunc(ctx, func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.notFull.Broadcast()
		s.notEmpty.Broadcast()
	})
}

// Push inserts the sample fetched for stream position pos, blocking while
// the byte budget is exhausted. The producer owning the next position to be
// consumed is always admitted, so a sample larger than the whole budget
// cannot deadlock the pipeline. Canceling ctx unblocks the call with ctx's
// error.
func (s *Staging) Push(ctx context.Context, pos int, id int32, data []byte) error {
	size := int64(len(data))
	s.mu.Lock()
	defer s.mu.Unlock()
	var stop func() bool
	for !s.closed && ctx.Err() == nil && s.used+size > s.capBytes && pos != s.nextPop {
		if stop == nil {
			stop = s.watch(ctx)
			defer stop()
		}
		s.notFull.Wait()
	}
	if s.closed {
		return ErrClosed
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if _, dup := s.pending[pos]; dup {
		return errors.New("storage: duplicate staging position")
	}
	s.pending[pos] = Entry{Pos: pos, ID: id, Data: data}
	s.used += size
	s.notEmpty.Broadcast()
	return nil
}

// Pop removes and returns the entry for the next stream position, blocking
// until it has been staged. It returns ErrClosed after Close once the
// in-order prefix has drained, and ctx's error if the context is canceled
// while waiting.
func (s *Staging) Pop(ctx context.Context) (Entry, error) { return s.pop(ctx, true) }

// TryPop is Pop that never waits: false, removing nothing, when Pop would
// block or fail.
func (s *Staging) TryPop(ctx context.Context) (Entry, bool) {
	e, err := s.pop(ctx, false)
	return e, err == nil
}

// pop is Pop; without wait, it fails where Pop would block.
func (s *Staging) pop(ctx context.Context, wait bool) (Entry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var stop func() bool
	for {
		if err := ctx.Err(); err != nil {
			return Entry{}, err
		}
		if e, ok := s.pending[s.nextPop]; ok {
			delete(s.pending, s.nextPop)
			s.nextPop++
			s.used -= int64(len(e.Data))
			s.notFull.Broadcast()
			return e, nil
		}
		if s.closed || !wait {
			return Entry{}, ErrClosed
		}
		if stop == nil {
			stop = s.watch(ctx)
			defer stop()
		}
		s.notEmpty.Wait()
	}
}

// Buffer returns an n-byte buffer to read a payload into: a released one of
// n's size class, or a new one of that capacity.
func (s *Staging) Buffer(n int) []byte {
	c := sizeClass(n)
	s.mu.Lock()
	defer s.mu.Unlock()
	l := s.free[c]
	if len(l) == 0 {
		return make([]byte, n, c)
	}
	s.free[c], s.freeBytes = l[:len(l)-1], s.freeBytes-int64(c)
	return l[len(l)-1][:n]
}

// Release returns consumed Buffers, which the caller must not touch again,
// to the free list; what exceeds the byte budget is left to the GC.
func (s *Staging) Release(bufs ...[]byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, b := range bufs {
		if c := cap(b); c == sizeClass(c) && s.freeBytes+int64(c) <= s.capBytes {
			s.free[c] = append(s.free[c], b)
			s.freeBytes += int64(c)
		}
	}
}

// sizeClass rounds n up to a buffer capacity: eight classes per power of
// two, so a buffer is at most an eighth larger than its payload.
func sizeClass(n int) int {
	shift := max(bits.Len(uint(n-1))-4, 0)
	return ((n-1)>>shift + 1) << shift
}

// Used returns the bytes currently staged.
func (s *Staging) Used() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.used
}

// Close wakes all waiters; Pop drains staged in-order entries then reports
// ErrClosed, Push fails immediately.
func (s *Staging) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.notFull.Broadcast()
	s.notEmpty.Broadcast()
}
