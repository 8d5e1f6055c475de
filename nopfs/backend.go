package nopfs

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"repro/internal/storage"
)

// StorageBackend is the byte store behind one storage class. Implementations
// must be safe for concurrent use and honour context cancellation on their
// blocking paths; Put takes ownership of its bytes and Get may return shared
// ones (see the embedded interface's contract). The built-in kinds are
// in-memory ("mem") and directory-backed ("dir") stores; custom kinds plug
// in through RegisterBackend and Class.Backend.
type StorageBackend = storage.Backend

// BackendFactory builds one rank's backend for a storage class. The class
// is the per-rank view (Class.Dir already carries the rank suffix inside a
// cluster); rank identifies the worker for factories that shard external
// resources.
type BackendFactory func(ctx context.Context, rank int, class Class) (StorageBackend, error)

// Built-in backend kinds.
const (
	// BackendMemory stores samples in RAM (the default for classes without
	// a Dir).
	BackendMemory = "mem"
	// BackendDir stores one file per sample under Class.Dir (the default
	// for classes with a Dir).
	BackendDir = "dir"
)

var (
	backendMu sync.RWMutex
	backends  = map[string]BackendFactory{}
)

// RegisterBackend adds a storage-backend kind to the registry. It panics on
// an empty kind, nil factory, or duplicate registration.
func RegisterBackend(kind string, f BackendFactory) {
	if kind == "" || f == nil {
		panic("nopfs: RegisterBackend with empty kind or nil factory")
	}
	backendMu.Lock()
	defer backendMu.Unlock()
	if _, dup := backends[kind]; dup {
		panic(fmt.Sprintf("nopfs: RegisterBackend called twice for %q", kind))
	}
	backends[kind] = f
}

// BackendByKind resolves a registered backend factory.
func BackendByKind(kind string) (BackendFactory, error) {
	backendMu.RLock()
	defer backendMu.RUnlock()
	f, ok := backends[kind]
	if !ok {
		return nil, fmt.Errorf("nopfs: unknown storage backend %q (registered: %v)", kind, backendKindsLocked())
	}
	return f, nil
}

// BackendKinds returns the registered backend kinds, sorted.
func BackendKinds() []string {
	backendMu.RLock()
	defer backendMu.RUnlock()
	return backendKindsLocked()
}

func backendKindsLocked() []string {
	kinds := make([]string, 0, len(backends))
	for k := range backends {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	return kinds
}

// backendKind resolves the effective kind for a class: an explicit
// Class.Backend wins; otherwise a Dir selects the directory store and
// everything else the memory store.
func backendKind(c Class) string {
	switch {
	case c.Backend != "":
		return c.Backend
	case c.Dir != "":
		return BackendDir
	default:
		return BackendMemory
	}
}

// newClassBackend builds the backend for one rank's storage class through
// the registry.
func newClassBackend(ctx context.Context, rank int, c Class) (StorageBackend, error) {
	f, err := BackendByKind(backendKind(c))
	if err != nil {
		return nil, err
	}
	b, err := f(ctx, rank, c)
	if err != nil {
		return nil, fmt.Errorf("nopfs: class %q: %w", c.Name, err)
	}
	if b == nil {
		return nil, fmt.Errorf("nopfs: class %q: backend factory %q returned nil", c.Name, backendKind(c))
	}
	return b, nil
}

func init() {
	RegisterBackend(BackendMemory, func(_ context.Context, _ int, c Class) (StorageBackend, error) {
		return storage.NewMemory(c.Name, c.CapacityBytes,
			storage.NewLimiter(c.ReadMBps), storage.NewLimiter(c.WriteMBps)), nil
	})
	RegisterBackend(BackendDir, func(_ context.Context, _ int, c Class) (StorageBackend, error) {
		if c.Dir == "" {
			return nil, fmt.Errorf("backend %q needs Class.Dir", BackendDir)
		}
		return storage.NewFS(c.Name, c.Dir, c.CapacityBytes,
			storage.NewLimiter(c.ReadMBps), storage.NewLimiter(c.WriteMBps))
	})
}
