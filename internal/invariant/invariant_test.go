package invariant

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"repro/internal/chaos"
	"repro/internal/dataset"
	"repro/internal/hwspec"
	"repro/internal/prng"
	isim "repro/internal/sim"
	"repro/internal/sweep"
)

var bgCtx = context.Background()

// trialCase is one randomized simulator configuration.
type trialCase struct {
	cfg  isim.Config
	name string
}

// randomCase draws a random plan and environment: dataset size, worker
// count, epochs, batch size, cache capacities, and PFS jitter all vary.
// uniformSizes fixes the sample-size distribution to a constant, which the
// cache-monotonicity trials use (nested greedy placements by construction).
func randomCase(t *testing.T, g *prng.Generator, uniformSizes bool) trialCase {
	t.Helper()
	f := 64 + g.Intn(256)
	workers := 2 + g.Intn(4)
	epochs := 1 + g.Intn(4)
	batch := 2 + g.Intn(7)
	for workers*batch > f {
		batch--
	}
	var stddev int64 = 4 << 10
	if uniformSizes {
		stddev = 0
	}
	spec := dataset.Spec{
		Name: fmt.Sprintf("inv-f%d", f), F: f,
		MeanSize: 16 << 10, StddevSize: stddev,
		Classes: 10, Seed: g.Uint64(),
	}
	ds, err := dataset.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	sys := isim.ScaleSystem(hwspec.SmallCluster(), 0.5e-5*(1+9*g.Float64()))
	jitter := 0.0
	if g.Float64() < 0.4 {
		jitter = 0.5 * g.Float64()
	}
	cfg := isim.Config{
		Sys: sys, Work: hwspec.Workload{
			Name:        "invariant",
			ComputeMBps: 32 + 128*g.Float64(), PreprocMBps: 100 + 200*g.Float64(),
			BatchPerWorker: batch, Epochs: epochs, Workers: workers,
		},
		DS: ds, Seed: g.Uint64(), PFSJitter: jitter, DropLast: g.Float64() < 0.5,
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("random config invalid: %v", err)
	}
	return trialCase{cfg: cfg, name: spec.Name}
}

// run simulates one policy, failing the test on engine errors.
func run(t *testing.T, cfg isim.Config, pol isim.Policy) *isim.Result {
	t.Helper()
	r, err := isim.Run(cfg, pol)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestSimulatorLaws drives the basic laws and the no-prefetch stall bound
// over randomized plans, with and without randomized fault profiles
// (crashes included — the structural laws must hold under re-planning too).
func TestSimulatorLaws(t *testing.T) {
	g := prng.New(0x1AB5)
	for trial := 0; trial < 20; trial++ {
		tc := randomCase(t, g, false)
		cfg := tc.cfg
		if trial%2 == 1 {
			cfg.Chaos = RandomProfile(g.Derive(uint64(trial)), cfg.Work.Workers, cfg.Work.Epochs,
				len(cfg.Sys.Node.Classes), true)
		}
		naive := run(t, cfg, isim.NewNaive())
		lower := run(t, cfg, isim.NewLowerBound())
		sameStream := SameStreamPolicies()
		for _, pol := range isim.AllPolicies() {
			r := run(t, cfg, pol)
			if err := CheckResult(r); err != nil {
				t.Errorf("trial %d (%s, chaos=%q) %s: %v", trial, tc.name, cfg.Chaos.Label(), r.Policy, err)
			}
			if cfg.Chaos.Empty() {
				// The no-prefetch stall bound is a fault-free law (see
				// CheckStallBound).
				if err := CheckStallBound(r, naive); err != nil {
					t.Errorf("trial %d (%s): %v", trial, tc.name, err)
				}
			}
			if sameStream[r.Policy] {
				if err := CheckNotSlower(lower, r, "lower bound"); err != nil {
					t.Errorf("trial %d (%s, chaos=%q): LowerBound beaten: %v", trial, tc.name, cfg.Chaos.Label(), err)
				}
			}
		}
	}
}

// TestCacheTierMonotonicity verifies that enlarging any cache tier never
// increases execution time: doubling the RAM class, the SSD class, or both
// must leave NoPFS at most as slow, fault-free and under non-structural
// chaos alike. Sample sizes are uniform so greedy placements nest exactly.
func TestCacheTierMonotonicity(t *testing.T) {
	g := prng.New(0xCAC4E)
	enlarge := func(cfg isim.Config, class int, factor float64) isim.Config {
		classes := make([]hwspec.StorageClass, len(cfg.Sys.Node.Classes))
		copy(classes, cfg.Sys.Node.Classes)
		if class < 0 {
			for i := range classes {
				classes[i].CapacityMB *= factor
			}
		} else {
			classes[class].CapacityMB *= factor
		}
		cfg.Sys.Node.Classes = classes
		return cfg
	}
	for trial := 0; trial < 12; trial++ {
		tc := randomCase(t, g, true)
		cfg := tc.cfg
		if trial%2 == 1 {
			cfg.Chaos = RandomProfile(g.Derive(uint64(trial)), cfg.Work.Workers, cfg.Work.Epochs,
				len(cfg.Sys.Node.Classes), false)
		}
		base := run(t, cfg, isim.NewNoPFS())
		for _, class := range []int{0, 1, -1} {
			larger := run(t, enlarge(cfg, class, 2), isim.NewNoPFS())
			if err := CheckNotSlower(larger, base, "cache monotonicity"); err != nil {
				t.Errorf("trial %d (%s, class %d, chaos=%q): %v", trial, tc.name, class, cfg.Chaos.Label(), err)
			}
		}
	}
}

// TestFaultRemovalMonotonicity verifies that removing a non-structural
// fault never slows a run: for every policy, the clean execution is at most
// the faulted one. (Crashes are structural — they change the access
// schedule itself — and are exempt by design.)
func TestFaultRemovalMonotonicity(t *testing.T) {
	g := prng.New(0xFA17)
	for trial := 0; trial < 12; trial++ {
		tc := randomCase(t, g, false)
		clean := tc.cfg
		faulted := clean
		faulted.Chaos = RandomProfile(g.Derive(uint64(trial)), clean.Work.Workers, clean.Work.Epochs,
			len(clean.Sys.Node.Classes), false)
		if faulted.Chaos.Empty() {
			continue
		}
		for _, pol := range isim.AllPolicies() {
			rc := run(t, clean, pol)
			// Policies carry per-run placement state: rebuild a fresh
			// instance for the faulted run.
			fresh, err := isim.PolicyByName(rc.Policy)
			if err != nil {
				t.Fatal(err)
			}
			rf := run(t, faulted, fresh)
			if err := CheckNotSlower(rc, rf, "fault-removal monotonicity"); err != nil {
				t.Errorf("trial %d (%s, chaos=%q): %v", trial, tc.name, faulted.Chaos.Spec(), err)
			}
		}
	}
}

// TestCrashRedistributionKeepsEpochStructure: a crash redistributes the
// crashed worker's plan to the survivors — the simulated worker's later
// epochs absorb extra samples, the epoch count stays E, and the basic laws
// hold.
func TestCrashRedistributionKeepsEpochStructure(t *testing.T) {
	g := prng.New(0xC7A54)
	tc := randomCase(t, g, false)
	cfg := tc.cfg
	cfg.Work.Epochs = 3
	cfg.Work.Workers = 4
	clean := run(t, cfg, isim.NewNoPFS())

	cfg.Chaos = chaos.Profile{Crashes: []chaos.Crash{{Worker: 1, AtEpoch: 1}}}
	crashed := run(t, cfg, isim.NewNoPFS())
	if err := CheckResult(crashed); err != nil {
		t.Fatal(err)
	}
	if len(crashed.EpochSeconds) != len(clean.EpochSeconds) {
		t.Fatalf("crash changed epoch count: %d vs %d", len(crashed.EpochSeconds), len(clean.EpochSeconds))
	}
	// The surviving worker consumes ~1/3 more samples in epochs 1-2; its
	// batches grow accordingly.
	if len(crashed.BatchSeconds) <= len(clean.BatchSeconds) {
		t.Errorf("crash did not grow the survivor's stream: %d vs %d batches",
			len(crashed.BatchSeconds), len(clean.BatchSeconds))
	}
}

// TestDeterminismAcrossPoolWidths encodes a chaos-injected simulator grid
// at pool widths 1 and 8: the reports must be bit-identical, fault profiles
// (crashes and fabric randomness included) notwithstanding.
func TestDeterminismAcrossPoolWidths(t *testing.T) {
	g := prng.New(0xDE7)
	tc := randomCase(t, g, false)
	profile := chaos.Profile{
		Name:       "mixed",
		Stragglers: []chaos.Straggler{{Worker: 1, Factor: 2, FromEpoch: 1}},
		Tiers:      []chaos.TierDegradation{{Class: 0, Factor: 3}, {Class: chaos.PFSTier, Factor: 2, FromEpoch: 1}},
		Crashes:    []chaos.Crash{{Worker: 2, AtEpoch: 1}},
		Fabric:     chaos.FabricFault{LatencySeconds: 0.001, JitterSeconds: 0.001, FailRate: 0.1},
	}
	grid := func() *sweep.Grid {
		return &sweep.Grid{
			Name: "invariant-determinism",
			Scenarios: []sweep.ScenarioSpec{{
				ID: tc.name,
				Config: func(seed uint64) (isim.Config, error) {
					cfg := tc.cfg
					cfg.Seed = seed
					return cfg, nil
				},
			}},
			Policies: sweep.AllPolicySpecs(),
			Profiles: sweep.ChaosProfiles(chaos.Profile{Name: "clean"}, profile),
			Replicas: 3, BaseSeed: 11,
		}
	}
	encode := func(parallel int) []byte {
		rep, err := (&sweep.Runner{Parallel: parallel}).Run(bgCtx, grid())
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := sweep.WriteJSON(&buf, rep); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	serial, wide := encode(1), encode(8)
	if !bytes.Equal(serial, wide) {
		t.Error("chaos-injected grid reports differ between pool widths 1 and 8")
	}
	if !bytes.Contains(serial, []byte(`"profile": "mixed"`)) {
		t.Error("report missing the profile column")
	}
}

// TestCheckPFSReadBound pins the filesystem-read law on hand-built cases:
// per rank, one read per assigned sample plus one per unassigned sample
// staged from the PFS, and the ranks must account for every dataset read.
// (nopfs.TestPFSReadBound drives it against a live throttled cluster.)
func TestCheckPFSReadBound(t *testing.T) {
	// Two ranks, six samples; rank 0 caches {0, 1}, rank 1 caches {2}.
	assigned := func(rank int, k int32) bool {
		return (rank == 0 && k < 2) || (rank == 1 && k == 2)
	}
	// Rank 0 staged 0 itself and 3, 4, 3 uncached: bound 2 + 3. Rank 1
	// staged 5 twice (its class prefetcher read 2): bound 1 + 2.
	staged := [][]int32{{0, 3, 4, 3}, {5, 5}}
	if err := CheckPFSReadBound([]int64{5, 3}, 8, staged, 6, assigned); err != nil {
		t.Fatalf("reads at the bound rejected: %v", err)
	}
	if err := CheckPFSReadBound([]int64{4, 2}, 6, staged, 6, assigned); err != nil {
		t.Fatalf("reads under the bound rejected: %v", err)
	}
	if err := CheckPFSReadBound([]int64{6, 3}, 9, staged, 6, assigned); err == nil {
		t.Error("rank 0 reading an assigned sample twice accepted")
	}
	if err := CheckPFSReadBound([]int64{5, 3}, 9, staged, 6, assigned); err == nil {
		t.Error("a dataset read no rank accounts for accepted")
	}
	if err := CheckPFSReadBound([]int64{5, 3}, 8, [][]int32{{0, 3, 0}, {5, 5}}, 6, assigned); err == nil {
		t.Error("an assigned sample staged from the PFS twice accepted")
	}
	if err := CheckPFSReadBound([]int64{5}, 5, staged, 6, assigned); err == nil {
		t.Error("mismatched rank counts accepted")
	}
}
