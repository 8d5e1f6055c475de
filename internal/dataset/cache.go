package dataset

import "sync"

// Synthetic datasets are immutable after New and a pure function of their
// Spec, yet every sweep-grid cell used to rebuild its scenario's dataset
// from scratch — F truncated-normal draws per cell. Cached memoises the
// construction per Spec so concurrent cells share one dataset object, the
// same compute-once discipline the plan-artifact cache applies to shuffles.

// cacheEntry is one spec's compute-once slot: the first caller builds under
// once, concurrent first callers block on it, and later callers read the
// result.
type cacheEntry struct {
	once sync.Once
	d    *Synthetic
	err  error
}

var (
	cacheMu    sync.Mutex
	cache      = map[Spec]*cacheEntry{}
	cacheBytes int64 // table bytes of the built entries in cache
)

// cacheByteLimit bounds the memo by retained table bytes (each entry holds
// F × 8 bytes of its one size table: a paper-scale ImageNet-22k dataset is
// ~115 MB). Real processes use a handful of (preset, scale) specs; the
// bound only guards pathological spec churn — e.g. a sweep materialising
// many distinct paper-scale specs. On overflow the memo is cleared
// wholesale: entries are cheap to rebuild and LRU bookkeeping is not worth
// carrying for a map that normally holds < 10 entries. A variable so tests
// can drive the overflow path without materialising a gigabyte.
var cacheByteLimit int64 = 1 << 30

// entryBytes approximates a dataset's retained memory: its float64 size
// table in MB.
func entryBytes(d *Synthetic) int64 { return int64(d.Len()) * 8 }

// Cached returns the shared immutable dataset for spec, building it once:
// concurrent first callers share one build. Callers must treat the dataset
// as read-only, which every consumer already does.
func Cached(spec Spec) (*Synthetic, error) {
	cacheMu.Lock()
	e, ok := cache[spec]
	if !ok {
		e = &cacheEntry{}
		cache[spec] = e
	}
	cacheMu.Unlock()
	e.once.Do(func() {
		if e.d, e.err = New(spec); e.err != nil {
			return
		}
		n := entryBytes(e.d)
		cacheMu.Lock()
		defer cacheMu.Unlock()
		if cache[spec] != e {
			return // cleared while building: only this entry's callers share it
		}
		if cacheBytes+n > cacheByteLimit {
			cache = map[Spec]*cacheEntry{spec: e}
			cacheBytes = 0
		}
		cacheBytes += n
	})
	return e.d, e.err
}
