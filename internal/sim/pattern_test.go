package sim

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/access"
	"repro/internal/chaos"
	"repro/internal/plancache"
)

// patternSpecs are the access-pattern specs the simulator equivalence tests
// cross with the policy panel: one per pattern kind, plus the uniform
// baseline spelled explicitly.
var patternSpecs = []string{
	"",
	"zipf:s=1.1,drift=0.05",
	"boost:frac=0.1,factor=8",
	"curriculum:buckets=4",
	"mix:w=0.6/0.3/0.1",
	"elastic:join=1@1,leave=2@2",
}

// patternConfig builds a test-scale fig8a config with the given access spec.
func patternConfig(t *testing.T, spec string, seed uint64) Config {
	t.Helper()
	return patternConfigOn(t, "fig8a", spec, seed)
}

// patternConfigOn is patternConfig on any Fig. 8 panel.
func patternConfigOn(t *testing.T, panel, spec string, seed uint64) Config {
	t.Helper()
	s, err := ScenarioByID(panel)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := s.Config(testScale, seed)
	if err != nil {
		t.Fatal(err)
	}
	canon, err := access.CanonicalSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Access = canon
	return cfg
}

// TestPatternCachedMatchesNaive extends the cached-vs-naive artifact
// equivalence to every access pattern: the parallel plan-cache build and the
// naive single-threaded path must produce byte-identical Results.
func TestPatternCachedMatchesNaive(t *testing.T) {
	for _, spec := range patternSpecs {
		if spec == "" {
			continue // the uniform case is TestCachedMatchesNaiveArtifactPath
		}
		t.Run(spec, func(t *testing.T) {
			cfg := patternConfig(t, spec, 57)
			naive := func() map[string]*Result {
				defer plancache.SetNaive(plancache.SetNaive(true))
				out := map[string]*Result{}
				for _, pol := range AllPolicies() {
					r, err := Run(cfg, pol)
					if err != nil {
						t.Fatal(err)
					}
					out[r.Policy] = r
				}
				return out
			}()
			for _, pol := range AllPolicies() {
				got, err := Run(cfg, pol)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, naive[got.Policy]) {
					t.Errorf("%s under %q: cached result differs from naive path", got.Policy, spec)
				}
			}
		})
	}
}

// TestElasticEpochAccounting checks the simulated worker's epoch series
// tracks the elastic boundaries: every plan epoch appears exactly once, with
// inactive epochs recorded as zero-duration entries.
func TestElasticEpochAccounting(t *testing.T) {
	cfg := patternConfig(t, "elastic:join=1@1,leave=2@2", 33)
	res, err := Run(cfg, NewNoPFS())
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed {
		t.Fatalf("run failed: %s", res.FailReason)
	}
	if got, want := len(res.EpochSeconds), cfg.Work.Epochs; got != want {
		t.Fatalf("EpochSeconds has %d entries, want %d", got, want)
	}
	art := plancache.Shared().Artifacts(*cfg.Plan())
	if len(art.EpochEnds) == 0 {
		t.Fatal("elastic plan has no EpochEnds artifacts")
	}
	ends := art.EpochEnds[0]
	var total float64
	for e, sec := range res.EpochSeconds {
		start := 0
		if e > 0 {
			start = ends[e-1]
		}
		if ends[e] == start && sec != 0 {
			t.Errorf("epoch %d: worker 0 inactive but epoch took %g s", e, sec)
		}
		total += sec
	}
	if diff := total - res.ExecSeconds; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("epoch series sums to %g, exec time %g", total, res.ExecSeconds)
	}
}

// TestElasticRejectsStructuralChaos pins the validation rule: crash
// redistribution slices peer streams assuming uniform per-epoch counts,
// which an elastic membership schedule violates.
func TestElasticRejectsStructuralChaos(t *testing.T) {
	cfg := patternConfig(t, "elastic:join=1@1", 7)
	prof, err := chaos.ParseProfile("crash:1@1")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Chaos = prof
	if err := cfg.Validate(); err == nil {
		t.Fatal("elastic pattern + crash profile validated, want error")
	} else if !strings.Contains(err.Error(), "elastic") {
		t.Fatalf("unexpected error: %v", err)
	}
	// Non-structural chaos (a straggler) composes fine with elastic plans.
	prof, err = chaos.ParseProfile("straggler:1x2@1")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Chaos = prof
	if err := cfg.Validate(); err != nil {
		t.Fatalf("elastic + non-structural chaos rejected: %v", err)
	}
	// Content patterns keep uniform partitions, so crashes stay legal.
	cfg = patternConfig(t, "zipf:s=1.1", 7)
	prof, err = chaos.ParseProfile("crash:1@1")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Chaos = prof
	if err := cfg.Validate(); err != nil {
		t.Fatalf("zipf + crash rejected: %v", err)
	}
}

// TestDigestCoversAccessPattern: two configs differing only in access spec
// must produce distinct digests (the memo-soundness precondition), and the
// digest must be a pure function of the spec string.
func TestDigestCoversAccessPattern(t *testing.T) {
	base := patternConfig(t, "", 11)
	seen := map[uint64]string{}
	for _, spec := range patternSpecs {
		cfg := base
		canon, err := access.CanonicalSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Access = canon
		d := cfg.Digest()
		if prev, dup := seen[d]; dup {
			t.Errorf("digest collision between %q and %q", prev, spec)
		}
		seen[d] = spec
		cfg2 := base
		cfg2.Access = canon
		if cfg2.Digest() != d {
			t.Errorf("digest not deterministic for %q", spec)
		}
	}
}
