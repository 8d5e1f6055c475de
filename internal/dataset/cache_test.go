package dataset

import (
	"runtime"
	"sync"
	"testing"
)

// resetCache empties the Cached memo and restores the byte limit; tests
// that manipulate the shared memo call it on entry and exit so ordering
// (including -shuffle=on) cannot leak state across tests.
func resetCache(limit int64) func() {
	cacheMu.Lock()
	cache = map[Spec]*cacheEntry{}
	cacheBytes = 0
	old := cacheByteLimit
	cacheByteLimit = limit
	cacheMu.Unlock()
	return func() {
		cacheMu.Lock()
		cache = map[Spec]*cacheEntry{}
		cacheBytes = 0
		cacheByteLimit = old
		cacheMu.Unlock()
	}
}

func cachedSpec(name string, f int, seed uint64) Spec {
	return Spec{Name: name, F: f, MeanSize: 2048, StddevSize: 256, Classes: 4, Seed: seed}
}

// TestCachedSameSpecSharesIdentity: every caller of one spec — including
// concurrent first requesters — gets the same object.
func TestCachedSameSpecSharesIdentity(t *testing.T) {
	defer resetCache(1 << 30)()
	spec := cachedSpec("identity", 512, 1)
	const callers = 16
	got := make([]*Synthetic, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			d, err := Cached(spec)
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = d
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if got[i] != got[0] {
			t.Fatalf("caller %d received a distinct object for the same spec", i)
		}
	}
}

// TestCachedCrossSpecIsolation: specs differing in any single field get
// distinct objects with their own size tables — one spec's dataset must
// never be served for another's, however similar.
func TestCachedCrossSpecIsolation(t *testing.T) {
	defer resetCache(1 << 30)()
	base := cachedSpec("isolation", 256, 7)
	variants := []Spec{base, base, base, base, base, base}
	variants[1].Seed = 8
	variants[2].F = 257
	variants[3].MeanSize = 4096
	variants[4].Classes = 5
	variants[5].Name = "isolation-b"

	objs := make([]*Synthetic, len(variants))
	for i, spec := range variants {
		d, err := Cached(spec)
		if err != nil {
			t.Fatal(err)
		}
		objs[i] = d
	}
	for i := 1; i < len(objs); i++ {
		if objs[i] == objs[0] {
			t.Errorf("variant %d (%+v) shares the base spec's object", i, variants[i])
		}
	}
	// Distinct seeds draw distinct size tables (same F, mean, stddev).
	same := true
	for k := 0; k < objs[0].Len() && k < objs[1].Len(); k++ {
		if objs[0].Size(k) != objs[1].Size(k) {
			same = false
			break
		}
	}
	if same {
		t.Error("seed variant shares the base size table")
	}
	// And re-requesting each variant still hits its own object.
	for i, spec := range variants {
		d, err := Cached(spec)
		if err != nil {
			t.Fatal(err)
		}
		if d != objs[i] {
			t.Errorf("variant %d lost cache identity on re-request", i)
		}
	}
}

// TestCachedOverflowClearsAndRebuilds: pushing the memo past its byte limit
// clears it wholesale; subsequent requests rebuild working datasets.
func TestCachedOverflowClears(t *testing.T) {
	// Each 512-sample entry retains 8 KB; a 20 KB limit holds two.
	defer resetCache(20 << 10)()
	a, err := Cached(cachedSpec("ov-a", 512, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Cached(cachedSpec("ov-b", 512, 2)); err != nil {
		t.Fatal(err)
	}
	// Third entry overflows: the memo clears, then admits it.
	c1, err := Cached(cachedSpec("ov-c", 512, 3))
	if err != nil {
		t.Fatal(err)
	}
	// a was dropped with the wholesale clear: a re-request rebuilds an
	// equivalent (but distinct) object...
	a2, err := Cached(cachedSpec("ov-a", 512, 1))
	if err != nil {
		t.Fatal(err)
	}
	if a2 == a {
		t.Error("overflow did not clear the memo")
	}
	for k := 0; k < a.Len(); k++ {
		if a.Size(k) != a2.Size(k) {
			t.Fatalf("rebuilt dataset diverges at sample %d", k)
		}
	}
	// ...while entries admitted after the clear keep their identity.
	c2, err := Cached(cachedSpec("ov-c", 512, 3))
	if err != nil {
		t.Fatal(err)
	}
	if c2 != c1 {
		t.Error("post-clear entry lost identity")
	}
}

// TestCachedRejectsBadSpec: construction errors pass through and poison
// nothing.
func TestCachedRejectsBadSpec(t *testing.T) {
	defer resetCache(1 << 30)()
	if _, err := Cached(Spec{Name: "bad", F: -1}); err == nil {
		t.Fatal("invalid spec accepted")
	}
	if _, err := Cached(cachedSpec("good", 64, 1)); err != nil {
		t.Fatalf("valid spec failed after a bad one: %v", err)
	}
}

// TestCachedBuildsOnceUnderConcurrency: sixteen concurrent first callers of
// one spec share a single build, so together they allocate about what one
// New does — not one size table each.
func TestCachedBuildsOnceUnderConcurrency(t *testing.T) {
	defer resetCache(1 << 30)()
	spec := cachedSpec("once", 1<<18, 5)
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	one := allocated(func() {
		if _, err := New(spec); err != nil {
			t.Fatal(err)
		}
	})
	const callers = 16
	all := allocated(func() {
		var wg sync.WaitGroup
		start := make(chan struct{})
		for i := 0; i < callers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if _, err := Cached(spec); err != nil {
					t.Error(err)
				}
			}()
		}
		close(start)
		wg.Wait()
	})
	if ratio := float64(all) / float64(one); ratio > 1.5 {
		t.Errorf("%d concurrent first callers allocated %.2f× one New (%d B vs %d B), want ≤ 1.5×",
			callers, ratio, all, one)
	}
}
