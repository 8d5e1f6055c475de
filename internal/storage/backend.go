package storage

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// Backend is one storage class's byte store. Implementations are safe for
// concurrent use. Capacity is enforced: Put fails when the sample would not
// fit, mirroring the cache-assignment capacity model. Put and Get honour
// context cancellation: a rate-limited operation returns the context's
// error instead of sleeping out its bandwidth reservation.
type Backend interface {
	// Name identifies the class in stats ("ram", "ssd", ...).
	Name() string
	// Put stores sample id, taking ownership of data: the caller must not
	// modify it afterwards. It returns false (without storing) when the
	// payload would exceed remaining capacity.
	Put(ctx context.Context, id int32, data []byte) (bool, error)
	// Get returns the stored payload, or ok=false if absent. The bytes may
	// be shared: callers must not modify them.
	Get(ctx context.Context, id int32) (data []byte, ok bool, err error)
	// Has reports whether the sample is stored.
	Has(id int32) bool
	// Used returns the bytes currently stored.
	Used() int64
	// Capacity returns the byte capacity.
	Capacity() int64
}

// Memory is a RAM-backed Backend with optional read/write rate limiting.
type Memory struct {
	name       string
	capacity   int64
	readLimit  *Limiter
	writeLimit *Limiter

	mu   sync.RWMutex
	data map[int32][]byte
	used int64
}

// NewMemory returns a memory backend with the given capacity in bytes and
// read/write limiters (nil = unlimited).
func NewMemory(name string, capacity int64, read, write *Limiter) *Memory {
	return &Memory{
		name: name, capacity: capacity,
		readLimit: read, writeLimit: write,
		data: make(map[int32][]byte),
	}
}

// Name implements Backend.
func (m *Memory) Name() string { return m.name }

// Put implements Backend, storing data itself. Capacity is claimed (and the
// sample published) before the bandwidth cost is paid, so rejected puts
// never charge the shared limiter; a canceled Put rolls the sample back out.
func (m *Memory) Put(ctx context.Context, id int32, data []byte) (bool, error) {
	size := int64(len(data))
	m.mu.Lock()
	if _, exists := m.data[id]; exists {
		m.mu.Unlock()
		return true, nil
	}
	if m.used+size > m.capacity {
		m.mu.Unlock()
		return false, nil
	}
	m.data[id] = data
	m.used += size
	m.mu.Unlock()
	if err := m.writeLimit.Wait(ctx, size); err != nil {
		m.mu.Lock()
		delete(m.data, id)
		m.used -= size
		m.mu.Unlock()
		return false, err
	}
	return true, nil
}

// Get implements Backend.
func (m *Memory) Get(ctx context.Context, id int32) ([]byte, bool, error) {
	m.mu.RLock()
	data, ok := m.data[id]
	m.mu.RUnlock()
	if !ok {
		return nil, false, nil
	}
	if err := m.readLimit.Wait(ctx, int64(len(data))); err != nil {
		return nil, false, err
	}
	return data, true, nil
}

// Has implements Backend.
func (m *Memory) Has(id int32) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	_, ok := m.data[id]
	return ok
}

// Used implements Backend.
func (m *Memory) Used() int64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.used
}

// Capacity implements Backend.
func (m *Memory) Capacity() int64 { return m.capacity }

// FS is a filesystem-backed Backend (the paper's mmap/POSIX prefetcher
// target): one file per cached sample under a root directory.
type FS struct {
	name       string
	root       string
	capacity   int64
	readLimit  *Limiter
	writeLimit *Limiter

	mu      sync.RWMutex
	have    map[int32]int64 // id -> size, published (fully written) samples
	pending map[int32]struct{}
	used    int64
}

// NewFS returns a filesystem backend rooted at dir (created if needed).
func NewFS(name, dir string, capacity int64, read, write *Limiter) (*FS, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: fs backend: %w", err)
	}
	return &FS{
		name: name, root: dir, capacity: capacity,
		readLimit: read, writeLimit: write,
		have:    make(map[int32]int64),
		pending: make(map[int32]struct{}),
	}, nil
}

func (f *FS) path(id int32) string {
	return filepath.Join(f.root, fmt.Sprintf("s%08d.bin", id))
}

// Name implements Backend.
func (f *FS) Name() string { return f.name }

// Put implements Backend. Capacity is reserved up front (so concurrent Puts
// cannot oversubscribe), the payload is written to a temp file and renamed
// into place, and only then is the sample published — a concurrent Get can
// never observe a torn write.
func (f *FS) Put(ctx context.Context, id int32, data []byte) (bool, error) {
	size := int64(len(data))
	f.mu.Lock()
	if _, exists := f.have[id]; exists {
		f.mu.Unlock()
		return true, nil
	}
	if _, writing := f.pending[id]; writing {
		// Another Put is in flight for the same sample; treat as stored.
		f.mu.Unlock()
		return true, nil
	}
	if f.used+size > f.capacity {
		f.mu.Unlock()
		return false, nil
	}
	f.pending[id] = struct{}{}
	f.used += size
	f.mu.Unlock()

	abort := func(err error) (bool, error) {
		f.mu.Lock()
		delete(f.pending, id)
		f.used -= size
		f.mu.Unlock()
		return false, err
	}
	tmp := f.path(id) + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return abort(fmt.Errorf("storage: fs put %d: %w", id, err))
	}
	if err := os.Rename(tmp, f.path(id)); err != nil {
		os.Remove(tmp)
		return abort(fmt.Errorf("storage: fs put %d: %w", id, err))
	}
	if err := f.writeLimit.Wait(ctx, size); err != nil {
		os.Remove(f.path(id))
		return abort(err)
	}
	f.mu.Lock()
	delete(f.pending, id)
	f.have[id] = size
	f.mu.Unlock()
	return true, nil
}

// Get implements Backend.
func (f *FS) Get(ctx context.Context, id int32) ([]byte, bool, error) {
	f.mu.RLock()
	_, ok := f.have[id]
	f.mu.RUnlock()
	if !ok {
		return nil, false, nil
	}
	data, err := os.ReadFile(f.path(id))
	if err != nil {
		return nil, false, fmt.Errorf("storage: fs get %d: %w", id, err)
	}
	if err := f.readLimit.Wait(ctx, int64(len(data))); err != nil {
		return nil, false, err
	}
	return data, true, nil
}

// Has implements Backend.
func (f *FS) Has(id int32) bool {
	f.mu.RLock()
	defer f.mu.RUnlock()
	_, ok := f.have[id]
	return ok
}

// Used implements Backend.
func (f *FS) Used() int64 {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.used
}

// Capacity implements Backend.
func (f *FS) Capacity() int64 { return f.capacity }
