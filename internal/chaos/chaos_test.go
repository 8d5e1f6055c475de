package chaos

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/prng"
)

func TestEmptyProfile(t *testing.T) {
	var p Profile
	if !p.Empty() {
		t.Error("zero profile not Empty")
	}
	if err := p.Validate(); err != nil {
		t.Errorf("zero profile invalid: %v", err)
	}
	if p.Compile(42) != nil {
		t.Error("empty profile compiled to a non-nil schedule")
	}
	if p.Label() != "none" {
		t.Errorf("empty label = %q", p.Label())
	}
}

func TestNilScheduleIsNeutral(t *testing.T) {
	var s *Schedule
	if f := s.Slowdown(1, 2, 4); f != 1 {
		t.Errorf("nil Slowdown = %g", f)
	}
	if f := s.BarrierFactor(0, 0, 4); f != 1 {
		t.Errorf("nil BarrierFactor = %g", f)
	}
	if r, err := s.Survivor(4); r != 0 || err != nil {
		t.Errorf("nil Survivor = %d, %v", r, err)
	}
	if f := s.TierFactor(0, 3); f != 1 {
		t.Errorf("nil TierFactor = %g", f)
	}
	if s.CrashedAt(1, 5, 4) || s.HasCrashes(4) || len(s.CrashedWorkers(5, 4)) != 0 {
		t.Error("nil schedule reports crashes")
	}
	if d, fail := s.FabricCall(0, 7, 1); d != 0 || fail {
		t.Error("nil FabricCall injects faults")
	}
	if len(s.DegradedClasses()) != 0 || s.MaxTierFactor(0) != 1 {
		t.Error("nil schedule degrades tiers")
	}
}

func TestValidateRejectsBadProfiles(t *testing.T) {
	bad := []Profile{
		{Stragglers: []Straggler{{Worker: 1, Factor: 0.5}}},
		{Stragglers: []Straggler{{Worker: -1, Factor: 2}}},
		{Tiers: []TierDegradation{{Class: -2, Factor: 2}}},
		{Tiers: []TierDegradation{{Class: 0, Factor: 0}}},
		{Crashes: []Crash{{Worker: 1, AtEpoch: 0}}},
		{Fabric: FabricFault{FailRate: 1}},
		{Fabric: FabricFault{LatencySeconds: -1}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad profile %d accepted: %+v", i, p)
		}
	}
}

func TestScheduleQueries(t *testing.T) {
	p := Profile{
		Stragglers: []Straggler{{Worker: 1, Factor: 2, FromEpoch: 1}},
		Tiers: []TierDegradation{
			{Class: 0, Factor: 4, FromEpoch: 2},
			{Class: PFSTier, Factor: 3, FromEpoch: 0},
		},
		Crashes: []Crash{{Worker: 2, AtEpoch: 2}},
	}
	s := p.Compile(7)
	const n = 4

	if f := s.Slowdown(1, 0, n); f != 1 {
		t.Errorf("straggler active before FromEpoch: %g", f)
	}
	if f := s.Slowdown(1, 1, n); f != 2 {
		t.Errorf("straggler factor = %g, want 2", f)
	}
	if f := s.Slowdown(0, 1, n); f != 1 {
		t.Errorf("non-straggler slowed: %g", f)
	}
	if f := s.BarrierFactor(0, 1, n); f != 2 {
		t.Errorf("barrier = %g, want 2 (worker 1 straggles)", f)
	}
	if f := s.BarrierFactor(1, 1, n); f != 1 {
		t.Errorf("barrier worker 1 observes = %g, want 1 (it does not wait on itself)", f)
	}
	if f := s.TierFactor(0, 1); f != 1 {
		t.Errorf("tier degraded before FromEpoch: %g", f)
	}
	if f := s.TierFactor(0, 2); f != 4 {
		t.Errorf("tier factor = %g, want 4", f)
	}
	if f := s.TierFactor(PFSTier, 0); f != 3 {
		t.Errorf("pfs factor = %g, want 3", f)
	}
	if f := s.MaxTierFactor(0); f != 4 {
		t.Errorf("max tier factor = %g", f)
	}
	if got := s.DegradedClasses(); len(got) != 1 || got[0] != 0 {
		t.Errorf("degraded classes = %v", got)
	}
	if s.CrashedAt(2, 1, n) {
		t.Error("crash before AtEpoch")
	}
	if !s.CrashedAt(2, 2, n) || !s.CrashedAt(2, 3, n) {
		t.Error("crash not permanent from AtEpoch")
	}
	if got := s.CrashedWorkers(2, n); len(got) != 1 || got[0] != 2 {
		t.Errorf("crashed workers = %v", got)
	}
	if !s.HasCrashes(n) {
		t.Error("HasCrashes false")
	}
	// A crashed straggler no longer paces the barrier.
	s2 := Profile{
		Stragglers: []Straggler{{Worker: 2, Factor: 3, FromEpoch: 0}},
		Crashes:    []Crash{{Worker: 2, AtEpoch: 1}},
	}.Compile(7)
	if f := s2.BarrierFactor(0, 0, n); f != 3 {
		t.Errorf("pre-crash barrier = %g, want 3", f)
	}
	if f := s2.BarrierFactor(0, 1, n); f != 1 {
		t.Errorf("post-crash barrier = %g, want 1", f)
	}
}

// TestCrashLandsOnNamedRank: a crash lands on the rank it names, modulo the
// cluster size, rank 0 included; the lowest rank that never crashes is the
// survivor, and a schedule that crashes every rank has none.
func TestCrashLandsOnNamedRank(t *testing.T) {
	s := Profile{Crashes: []Crash{{Worker: 4, AtEpoch: 1}}}.Compile(1)
	// Worker 4 maps to rank 0 on a 4-rank cluster.
	if !s.CrashedAt(0, 1, 4) || s.CrashedAt(0, 0, 4) {
		t.Error("crash:4@1 does not crash rank 0 at epoch 1 of 4 ranks")
	}
	if s.CrashedAt(1, 1, 4) || s.CrashEpoch(1, 4) != -1 {
		t.Error("crash:4@1 moved onto rank 1")
	}
	if r, err := s.Survivor(4); r != 1 || err != nil {
		t.Errorf("Survivor(4) = %d, %v; want 1", r, err)
	}
	all, err := ParseProfile("crash:0@1,crash:1@2")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := all.Compile(1).Survivor(2); !errors.Is(err, ErrNoSurvivor) {
		t.Errorf("crashing both of 2 ranks: Survivor error %v, want ErrNoSurvivor", err)
	}
	if r, err := all.Compile(1).Survivor(3); r != 2 || err != nil {
		t.Errorf("Survivor(3) = %d, %v; want 2", r, err)
	}
	// Single-worker clusters cannot crash.
	if s.HasCrashes(1) || s.CrashedAt(0, 9, 1) {
		t.Error("single-worker cluster crashed")
	}
}

// callIndexDraw is FabricCall before it took an attempt: the draw of
// (seed, caller, call), written out here so attempt 0 stays pinned to it.
func callIndexDraw(f FabricFault, seed uint64, caller int, call uint64) (float64, bool) {
	sm := prng.NewSplitMix64((seed ^ fabricStream) +
		(uint64(caller)+1)*0x9e3779b97f4a7c15 + (call+1)*0xd1b54a32d192ed03)
	delay := f.LatencySeconds + f.JitterSeconds*unitFloat(sm.Next())
	return delay, unitFloat(sm.Next()) < f.FailRate
}

func TestFabricCallDeterministicAndRateBounded(t *testing.T) {
	p := Profile{Fabric: FabricFault{LatencySeconds: 0.001, JitterSeconds: 0.002, FailRate: 0.2}}
	s := p.Compile(99)
	const calls = 4000
	var fails [3]int
	both := 0 // positions whose attempts 0 and 1 both fail
	for i := uint64(0); i < calls; i++ {
		// Attempt 0 is the draw the simulator's cells were recorded with.
		d, f := s.FabricCall(3, i, 0)
		if wd, wf := callIndexDraw(p.Fabric, 99, 3, i); d != wd || f != wf {
			t.Fatalf("position %d attempt 0: draw (%g, %v), the call-index draw (%g, %v)", i, d, f, wd, wf)
		}
		var failed [3]bool
		for a := range failed {
			d1, f1 := s.FabricCall(3, i, uint64(a))
			d2, f2 := s.FabricCall(3, i, uint64(a))
			if d1 != d2 || f1 != f2 {
				t.Fatalf("FabricCall not stateless at position %d attempt %d", i, a)
			}
			if d1 < 0.001 || d1 > 0.003 {
				t.Fatalf("delay %g outside [latency, latency+jitter]", d1)
			}
			if failed[a] = f1; f1 {
				fails[a]++
			}
		}
		if failed[0] && failed[1] {
			both++
		}
	}
	for a, n := range fails {
		if rate := float64(n) / calls; rate < 0.15 || rate > 0.25 {
			t.Errorf("attempt %d: fail rate %.3f far from configured 0.2", a, rate)
		}
	}
	// Independent attempts fail together at the product of their rates
	// (0.04); a retry that redrew attempt 0 would fail together at 0.2.
	if rate := float64(both) / calls; rate < 0.025 || rate > 0.06 {
		t.Errorf("attempts 0 and 1 both fail at %.3f of positions, want ≈ 0.04 (independent)", rate)
	}
	// Distinct callers draw distinct streams.
	same := 0
	for i := uint64(0); i < 100; i++ {
		a, _ := s.FabricCall(0, i, 0)
		b, _ := s.FabricCall(1, i, 0)
		if a == b {
			same++
		}
	}
	if same == 100 {
		t.Error("caller rank does not influence the fault stream")
	}
}

func TestParseProfileRoundTrip(t *testing.T) {
	spec := "straggler:1x2@1,tier:pfsx3,tier:0x4@2,crash:2@1,lat:5ms,jitter:2ms,drop:0.05"
	p, err := ParseProfile(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Stragglers) != 1 || p.Stragglers[0] != (Straggler{Worker: 1, Factor: 2, FromEpoch: 1}) {
		t.Errorf("stragglers = %+v", p.Stragglers)
	}
	if len(p.Tiers) != 2 || p.Tiers[0] != (TierDegradation{Class: PFSTier, Factor: 3}) ||
		p.Tiers[1] != (TierDegradation{Class: 0, Factor: 4, FromEpoch: 2}) {
		t.Errorf("tiers = %+v", p.Tiers)
	}
	if len(p.Crashes) != 1 || p.Crashes[0] != (Crash{Worker: 2, AtEpoch: 1}) {
		t.Errorf("crashes = %+v", p.Crashes)
	}
	if p.Fabric.LatencySeconds != 0.005 || p.Fabric.JitterSeconds != 0.002 || p.Fabric.FailRate != 0.05 {
		t.Errorf("fabric = %+v", p.Fabric)
	}
	// Spec → Parse → Spec is a fixed point.
	back, err := ParseProfile(p.Spec())
	if err != nil {
		t.Fatalf("reparsing %q: %v", p.Spec(), err)
	}
	if back.Spec() != p.Spec() {
		t.Errorf("spec round trip: %q != %q", back.Spec(), p.Spec())
	}
}

func TestParseProfileErrors(t *testing.T) {
	for _, spec := range []string{
		"nonsense",
		"straggler:1",
		"straggler:ax2",
		"tier:0x0.5", // factor < 1 rejected by Validate
		"crash:1",
		"lat:xyz",
		"drop:2",
	} {
		if _, err := ParseProfile(spec); err == nil {
			t.Errorf("ParseProfile(%q) accepted", spec)
		}
	}
}

func TestPresetsAreValidAndNamed(t *testing.T) {
	names := map[string]bool{}
	for _, p := range Presets() {
		if p.Name == "" {
			t.Error("preset without a name")
		}
		if names[p.Name] {
			t.Errorf("duplicate preset name %q", p.Name)
		}
		names[p.Name] = true
		if err := p.Validate(); err != nil {
			t.Errorf("preset %q invalid: %v", p.Name, err)
		}
		if p.Empty() {
			t.Errorf("preset %q injects nothing", p.Name)
		}
		got, err := ParseProfile(p.Name)
		if err != nil {
			t.Errorf("preset %q not parseable by name: %v", p.Name, err)
		} else if got.Name != p.Name {
			t.Errorf("ParseProfile(%q) returned %q", p.Name, got.Name)
		}
	}
	if !names["meltdown"] || !names["straggler"] {
		t.Errorf("expected presets missing from %v", PresetNames())
	}
	if list := strings.Join(PresetNames(), ","); !strings.Contains(list, "flaky-fabric") {
		t.Errorf("PresetNames() = %v", PresetNames())
	}
}
