package sim

import (
	"slices"
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
	cfg.Plans = plancache.New(0, 0)
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
	art := cfg.Plans.Artifacts(*cfg.Plan())
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

// TestElasticComposesWithCrashChaos: an elastic membership schedule and a
// node crash compose. Rank 1 joins at epoch 1 and crashes there, so worker 0
// absorbs its share of rank 1's plan rounds from epoch 1 on: the config
// validates, and every policy runs with one epoch-series entry per epoch
// summing to its training time.
func TestElasticComposesWithCrashChaos(t *testing.T) {
	cfg := patternConfig(t, "elastic:join=1@1", 7)
	prof, err := chaos.ParseProfile("crash:1@1")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Chaos = prof
	if err := cfg.Validate(); err != nil {
		t.Fatalf("elastic pattern + crash profile rejected: %v", err)
	}
	for _, pol := range AllPolicies() {
		res, err := Run(cfg, pol)
		if err != nil {
			t.Fatalf("%s: %v", pol.Name(), err)
		}
		if res.Failed {
			t.Fatalf("%s failed: %s", pol.Name(), res.FailReason)
		}
		if got, want := len(res.EpochSeconds), cfg.Work.Epochs; got != want {
			t.Fatalf("%s: EpochSeconds has %d entries, want %d", pol.Name(), got, want)
		}
		total := res.SetupSeconds
		for _, sec := range res.EpochSeconds {
			total += sec
		}
		if diff := total - res.ExecSeconds; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("%s: setup plus epoch series is %g, exec time %g", pol.Name(), total, res.ExecSeconds)
		}
	}
}

// TestKernelInputEnds: every policy's kernel input, fault-free and under
// node-crash, on every pattern, carries one epoch end per epoch,
// non-decreasing, the last at the stream's length — whatever rule built the
// stream. The kept partial batch of the run without DropLast is where
// LocalityAware's reordering outgrows the plan's epochs.
func TestKernelInputEnds(t *testing.T) {
	for _, spec := range patternSpecs {
		for _, preset := range []string{"fault-free", "node-crash"} {
			for _, dropLast := range []bool{true, false} {
				cfg := patternConfigOn(t, "fig8c", spec, 91)
				cfg.DropLast = dropLast
				if preset != "fault-free" {
					prof, err := chaos.PresetByName(preset)
					if err != nil {
						t.Fatal(err)
					}
					cfg.Chaos = prof
				}
				env, err := newEnv(&cfg)
				if err != nil {
					t.Fatal(err)
				}
				for _, pol := range kernelPolicies() {
					lean, _, err := env.prepare(pol)
					if err != nil {
						continue // the scenario is beyond the policy
					}
					in := env.runInput(pol.rule, lean)
					ends := in.Ends
					if len(ends) != cfg.Work.Epochs || ends[len(ends)-1] != len(in.Stream) || !slices.IsSorted(ends) {
						t.Errorf("%s under %q, %s, DropLast %v: ends %v for a stream of %d over %d epochs",
							pol.Name(), spec, preset, dropLast, ends, len(in.Stream), cfg.Work.Epochs)
					}
				}
			}
		}
	}
}

// TestLocalityStreamDrawsEachEpochFromItsOrder: LocalityAware reorders
// within each global batch, so every epoch of its stream is a sub-multiset
// of that epoch's consumed order, here regenerated by EpochOrder rather
// than rebuilt from the plan's streams as the policy does.
func TestLocalityStreamDrawsEachEpochFromItsOrder(t *testing.T) {
	for _, spec := range patternSpecs {
		cfg := patternConfigOn(t, "fig8c", spec, 92)
		cfg.DropLast = true
		env, err := newEnv(&cfg)
		if err != nil {
			t.Fatal(err)
		}
		stream, ends := localityStream(env, env.placement(plancache.FamilyShard))
		start := 0
		for e, end := range ends {
			left := map[access.SampleID]int{}
			for _, k := range env.Plan.EpochOrder(e)[:env.Plan.EpochLimit()] {
				left[k]++
			}
			for _, k := range stream[start:end] {
				if left[k]--; left[k] < 0 {
					t.Errorf("%q epoch %d: sample %d is not left in the epoch's order", spec, e, k)
					break
				}
			}
			start = end
		}
	}
}
