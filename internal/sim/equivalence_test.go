package sim

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/access"
	"repro/internal/plancache"
)

// equivalencePanels are the Fig. 8 panels covered by the cold-vs-warm
// equivalence table: one per storage regime shape (tiny/partial/oversized
// dataset), all at test scale.
var equivalencePanels = []string{"fig8a", "fig8b", "fig8e"}

// runAllPolicies simulates every policy on the panel, in Fig. 8 bar order or
// reversed, with plan artifacts from plans, and returns the results keyed by
// policy name.
func runAllPolicies(t *testing.T, id string, seed uint64, reversed bool, plans *plancache.Cache) map[string]*Result {
	t.Helper()
	s, err := ScenarioByID(id)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := s.Config(testScale, seed)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Plans = plans
	pols := AllPolicies()
	if reversed {
		slices.Reverse(pols)
	}
	out := map[string]*Result{}
	for _, pol := range pols {
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
// byte-identical between the run that builds the plan's shared artifacts and
// a warm run in the opposite policy order. Each policy's cold result is
// computed before the policies after it have touched the cache and its warm
// result after all of them have, so with one seed per order a policy that
// mutates a shared artifact shows up whichever side of its reader it sits on.
func TestCachedMatchesNaiveArtifactPath(t *testing.T) {
	for _, id := range equivalencePanels {
		id := id
		t.Run(id, func(t *testing.T) {
			for i, reversed := range []bool{false, true} {
				seed, plans := uint64(4200+i), plancache.New(0, 0) // the first pass is cold
				cold := runAllPolicies(t, id, seed, reversed, plans)
				warm := runAllPolicies(t, id, seed, !reversed, plans)
				for name, want := range cold {
					if got := warm[name]; !reflect.DeepEqual(got, want) {
						t.Errorf("%s (reversed=%v): warm result differs from cold:\n got %+v\nwant %+v",
							name, reversed, got, want)
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
	plans := plancache.New(0, 0)
	runAllPolicies(t, "fig8a", 17, false, plans) // prime the cache for this seed
	before := access.ShuffleCount()
	runAllPolicies(t, "fig8a", 17, false, plans)
	if n := access.ShuffleCount() - before; n != 0 {
		t.Fatalf("warm policy panel performed %d shuffles, want 0", n)
	}
	if st := plans.Stats(); st.Misses != 1 {
		t.Fatalf("two policy panels on one plan: %+v, want 1 miss", st)
	}
}

// TestPolicyPanelSharesOneShufflePass verifies the cache collapses a cold
// P-policy panel to a single shuffle pass (E shuffles), not P×E.
func TestPolicyPanelSharesOneShufflePass(t *testing.T) {
	s, err := ScenarioByID("fig8b")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := s.Config(testScale, 1800)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Plans = plancache.New(0, 0)
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
