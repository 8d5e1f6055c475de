package dataset

import "sync"

// Synthetic datasets are immutable after New and a pure function of their
// Spec, yet every sweep-grid cell used to rebuild its scenario's dataset
// from scratch — F truncated-normal draws per cell. Cached memoises the
// construction per Spec so concurrent cells share one dataset object, the
// same compute-once discipline the plan-artifact cache applies to shuffles.

var (
	cacheMu    sync.Mutex
	cache      = map[Spec]*Synthetic{}
	cacheBytes int64
)

// cacheByteLimit bounds the memo by retained table bytes (each entry holds
// F × 16 bytes of sizes+sizesMB: a paper-scale ImageNet-22k dataset is
// ~230 MB). Real processes use a handful of (preset, scale) specs; the
// bound only guards pathological spec churn — e.g. a sweep materialising
// many distinct paper-scale specs. On overflow the memo is cleared
// wholesale: entries are cheap to rebuild and LRU bookkeeping is not worth
// carrying for a map that normally holds < 10 entries. A variable so tests
// can drive the overflow path without materialising a gigabyte.
var cacheByteLimit int64 = 1 << 30

// entryBytes approximates a dataset's retained memory: the int64 size
// table plus the float64 MB view.
func entryBytes(d *Synthetic) int64 { return int64(d.Len()) * 16 }

// Cached returns the shared immutable dataset for spec, building it once.
// Callers must treat the dataset as read-only, which every consumer
// already does.
func Cached(spec Spec) (*Synthetic, error) {
	cacheMu.Lock()
	d, ok := cache[spec]
	cacheMu.Unlock()
	if ok {
		return d, nil
	}
	d, err := New(spec)
	if err != nil {
		return nil, err
	}
	cacheMu.Lock()
	if cacheBytes+entryBytes(d) > cacheByteLimit {
		cache = map[Spec]*Synthetic{}
		cacheBytes = 0
	}
	// A racing builder may have inserted first; keep the existing object so
	// every consumer shares one identity.
	if prev, ok := cache[spec]; ok {
		d = prev
	} else {
		cache[spec] = d
		cacheBytes += entryBytes(d)
	}
	cacheMu.Unlock()
	return d, nil
}
