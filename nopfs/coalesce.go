package nopfs

import (
	"context"
	"sync"

	"repro/internal/access"
)

// flights is one rank's in-flight read table, a singleflight keyed by sample
// id: a rank's class prefetcher and staging prefetchers can all miss one
// locally-assigned sample while the first read still queues in the PFS
// limiter, and the table turns those misses into one read. It is per rank
// on purpose (ranks model separate nodes) and caches nothing: once a read
// is retired, failed or not, the next caller reads again.
type flights struct {
	mu sync.Mutex
	// m holds the samples being read. An entry stays nil until a second
	// caller needs something to wait on, so a read nobody joins — nearly
	// all of them on an unthrottled PFS — allocates nothing.
	m map[access.SampleID]*flight
}

// flight is what callers who joined a read wait on; data and err are
// written before done is closed and read only after it.
type flight struct {
	done chan struct{}
	data []byte
	err  error
}

// join makes the caller sample k's reader (leader: it reads, publishes what
// later callers should find, then calls retire) or, when k is already being
// read, returns the flight to wait on.
func (t *flights) join(k access.SampleID) (f *flight, leader bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, reading := t.m[k]
	if !reading {
		if t.m == nil {
			t.m = make(map[access.SampleID]*flight)
		}
		t.m[k] = nil
		return nil, true
	}
	if f == nil {
		f = &flight{done: make(chan struct{})}
		t.m[k] = f
	}
	return f, false
}

// retire ends the leader's read of k and hands its result to every caller
// that joined meanwhile; whoever arrives later leads a read of its own.
func (t *flights) retire(k access.SampleID, data []byte, err error) {
	t.mu.Lock()
	f := t.m[k]
	delete(t.m, k)
	t.mu.Unlock()
	if f != nil {
		f.data, f.err = data, err
		close(f.done)
	}
}

// wait returns the leader's result, or ctx's error if that comes first.
func (f *flight) wait(ctx context.Context) ([]byte, error) {
	select {
	case <-f.done:
		return f.data, f.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}
