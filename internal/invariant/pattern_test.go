package invariant

import (
	"testing"

	"repro/internal/access"
	"repro/internal/prng"
	isim "repro/internal/sim"
)

// The access-pattern half of the invariant suite: the laws every workload
// shape — non-uniform frequencies, curriculum orders, dataset mixtures,
// elastic membership — must obey, driven over randomized {pattern x policy
// x chaos} configurations. The uniform baseline rides along as pattern
// kind 0 of RandomPattern, so every law is also continuously re-proven for
// the classic shuffle.

// patternPlan derives the access plan of a pattern-carrying config.
func patternPlan(cfg isim.Config) *access.Plan {
	return cfg.Plan()
}

// TestPatternChaosSweep is the randomized {pattern x policy x chaos} sweep:
// 25 trials draw a random plan, a random access pattern, and (on odd
// trials) a random fault profile, then drive every policy through the
// simulator and assert the laws:
//
//   - the basic result laws (CheckResult) hold under every pattern;
//   - the frequency-weighted no-prefetch bound holds fault-free: Naive runs
//     the same pattern, so its execution time already integrates the
//     pattern's repeated hot-sample accesses (CheckStallBound);
//   - the plan's frequency accounting conserves the access volume
//     (CheckFrequencyConservation);
//   - mixture epochs conserve each dataset part exactly
//     (CheckMixConservation);
//   - elastic partitions deliver every scheduled round exactly once across
//     the per-epoch active sets (CheckExactlyOnce).
//
// Crashes are drawn for every pattern, elastic membership included.
func TestPatternChaosSweep(t *testing.T) {
	g := prng.New(0xACCE55)
	for trial := 0; trial < 25; trial++ {
		tc := randomCase(t, g, false)
		cfg := tc.cfg
		raw := RandomPattern(g.Derive(uint64(trial)), cfg.Work.Workers, cfg.Work.Epochs)
		spec, err := access.CanonicalSpec(raw)
		if err != nil {
			t.Fatalf("trial %d: RandomPattern emitted invalid spec %q: %v", trial, raw, err)
		}
		cfg.Access = spec
		pat, err := access.ParseAccessSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		if trial%2 == 1 {
			cfg.Chaos = RandomProfile(g.Derive(uint64(100+trial)), cfg.Work.Workers, cfg.Work.Epochs,
				len(cfg.Sys.Node.Classes), true)
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("trial %d (pattern %q): config invalid: %v", trial, spec, err)
		}

		plan := patternPlan(cfg)
		if err := CheckFrequencyConservation(plan); err != nil {
			t.Errorf("trial %d (pattern %q): %v", trial, spec, err)
		}
		if pat.Kind == access.KindMix {
			for e := 0; e < plan.E; e++ {
				if err := CheckMixConservation(plan.EpochOrder(e), plan.F, len(pat.Weights)); err != nil {
					t.Errorf("trial %d (pattern %q) epoch %d: %v", trial, spec, e, err)
				}
			}
		}
		if pat.Elastic() {
			streams := plan.AllWorkerStreams()
			delivered := make([][]int, len(streams))
			for w, s := range streams {
				delivered[w] = make([]int, len(s))
				for i, id := range s {
					delivered[w][i] = int(id)
				}
			}
			scheduled := make([][]access.SampleID, plan.E)
			for e := 0; e < plan.E; e++ {
				scheduled[e] = plan.EpochOrder(e)[:plan.EpochLimit()]
			}
			if err := CheckExactlyOnce(delivered, scheduled); err != nil {
				t.Errorf("trial %d (pattern %q): %v", trial, spec, err)
			}
		}

		naive := run(t, cfg, isim.NewNaive())
		for _, pol := range isim.AllPolicies() {
			r := run(t, cfg, pol)
			if err := CheckResult(r); err != nil {
				t.Errorf("trial %d (%s, pattern %q, chaos=%q) %s: %v",
					trial, tc.name, spec, cfg.Chaos.Label(), r.Policy, err)
			}
			if cfg.Chaos.Empty() {
				if err := CheckStallBound(r, naive); err != nil {
					t.Errorf("trial %d (%s, pattern %q): %v", trial, tc.name, spec, err)
				}
			}
		}
	}
}

// TestElasticComposesWithCrashChaos: an elastic membership schedule
// combines with a crash profile — both reshape the partition, and crash
// redistribution slices each rank's stream at its own epoch ends — so the
// config validates and every policy's run satisfies the result laws.
func TestElasticComposesWithCrashChaos(t *testing.T) {
	g := prng.New(0xE1A5)
	tc := randomCase(t, g, false)
	cfg := tc.cfg
	cfg.Work.Epochs = 3
	cfg.Work.Workers = 3
	cfg.Access = "elastic:leave=1@1"
	cfg.Chaos = RandomProfile(g, cfg.Work.Workers, cfg.Work.Epochs, len(cfg.Sys.Node.Classes), true)
	for len(cfg.Chaos.Crashes) == 0 {
		cfg.Chaos = RandomProfile(g, cfg.Work.Workers, cfg.Work.Epochs, len(cfg.Sys.Node.Classes), true)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("elastic pattern + crash profile %q rejected: %v", cfg.Chaos.Label(), err)
	}
	for _, pol := range isim.AllPolicies() {
		r := run(t, cfg, pol)
		if err := CheckResult(r); err != nil {
			t.Errorf("%s under %q: %v", r.Policy, cfg.Chaos.Label(), err)
		}
	}
}
