package sim

import (
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
