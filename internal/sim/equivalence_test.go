package sim

import (
	"reflect"
	"testing"

	"repro/internal/access"
	"repro/internal/plancache"
)

// equivalencePanels are the Fig. 8 panels covered by the cached-vs-naive
// equivalence table: one per storage regime shape (tiny/partial/oversized
// dataset), all at test scale.
var equivalencePanels = []string{"fig8a", "fig8b", "fig8e"}

// runAllPolicies simulates every policy on the panel and returns the
// results keyed by policy name.
func runAllPolicies(t *testing.T, id string, seed uint64) map[string]*Result {
	t.Helper()
	s, err := ScenarioByID(id)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := s.Config(testScale, seed)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]*Result{}
	for _, pol := range AllPolicies() {
		r, err := Run(cfg, pol)
		if err != nil {
			t.Fatalf("policy %s: %v", pol.Name(), err)
		}
		out[r.Policy] = r
	}
	return out
}

// TestCachedMatchesNaiveArtifactPath is the end-to-end equivalence gate:
// for every policy on several panels, the full simulator Result (timing
// series, per-location breakdowns, coverage, failure flags) must be
// byte-identical between the naive single-threaded artifact path and the
// cached/parallel path — both cold and warm.
func TestCachedMatchesNaiveArtifactPath(t *testing.T) {
	for _, id := range equivalencePanels {
		id := id
		t.Run(id, func(t *testing.T) {
			// Collected in a closure so the deferred restore runs even when
			// runAllPolicies aborts via t.Fatal (Goexit): global naive mode
			// must never leak into later tests.
			naive := func() map[string]*Result {
				defer plancache.SetNaive(plancache.SetNaive(true))
				return runAllPolicies(t, id, 42)
			}()

			cold := runAllPolicies(t, id, 42) // may or may not hit earlier tests' entries
			warm := runAllPolicies(t, id, 42) // guaranteed warm

			for name, want := range naive {
				for pass, got := range map[string]*Result{"cold": cold[name], "warm": warm[name]} {
					if got == nil {
						t.Fatalf("%s: missing %s result", name, pass)
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s: %s cached result differs from naive path:\n got %+v\nwant %+v",
							name, pass, got, want)
					}
				}
			}
		})
	}
}

// TestWarmCellsDoZeroShuffleWork is the acceptance probe: once a scenario's
// plan artifacts are cached, re-running the full policy panel — the shape of
// a warm sweep-grid cell — performs zero epoch shuffles.
func TestWarmCellsDoZeroShuffleWork(t *testing.T) {
	runAllPolicies(t, "fig8a", 17) // prime the cache for this seed
	before := access.ShuffleCount()
	runAllPolicies(t, "fig8a", 17)
	if n := access.ShuffleCount() - before; n != 0 {
		t.Fatalf("warm policy panel performed %d shuffles, want 0", n)
	}
}

// TestPolicyPanelSharesOneShufflePass verifies the cache collapses a cold
// P-policy panel to a single shuffle pass (E shuffles), not P×E.
func TestPolicyPanelSharesOneShufflePass(t *testing.T) {
	s, err := ScenarioByID("fig8b")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := s.Config(testScale, 23) // fresh seed: cold for this test
	if err != nil {
		t.Fatal(err)
	}
	before := access.ShuffleCount()
	for _, pol := range AllPolicies() {
		if _, err := Run(cfg, pol); err != nil {
			t.Fatal(err)
		}
	}
	if n := access.ShuffleCount() - before; n != int64(cfg.Work.Epochs) {
		t.Fatalf("cold policy panel performed %d shuffles, want one pass of %d", n, cfg.Work.Epochs)
	}
}
