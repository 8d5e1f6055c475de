package chaos

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/prng"
)

// Schedule is a Profile compiled against one cell seed: the deterministic
// event schedule both engines consult. Every method is a stateless pure
// function of (profile, seed, arguments) — no draw depends on call order —
// so concurrent queries are race-free and chaos-injected grids stay
// bit-identical at any pool width.
//
// A nil *Schedule is the fault-free schedule: every query returns its
// neutral value, so engines compile once (Profile.Compile returns nil for
// the empty profile) and call unconditionally.
type Schedule struct {
	p    Profile
	seed uint64
}

// Compile derives the deterministic event schedule for one cell seed. The
// empty profile compiles to nil.
func (p Profile) Compile(seed uint64) *Schedule {
	if p.Empty() {
		return nil
	}
	return &Schedule{p: p, seed: seed}
}

// mapWorker folds a profile worker index onto a cluster of n ranks.
func mapWorker(w, n int) int {
	if n <= 0 {
		return 0
	}
	return w % n
}

// crashRank maps a crash onto a cluster of n ranks. Clusters of one worker
// cannot crash.
func crashRank(w, n int) (int, bool) {
	if n <= 1 {
		return 0, false
	}
	return mapWorker(w, n), true
}

// ErrNoSurvivor rejects a crash schedule that crashes every rank of a
// cluster: no rank would be left to absorb the crashed ranks' plan rounds.
var ErrNoSurvivor = errors.New("chaos: the crash schedule leaves no rank alive")

// Survivor returns the lowest rank of an n-rank cluster that never crashes,
// or ErrNoSurvivor when every rank does.
func (s *Schedule) Survivor(n int) (int, error) {
	for r := 0; r < n; r++ {
		if s.CrashEpoch(r, n) < 0 {
			return r, nil
		}
	}
	return 0, fmt.Errorf("%w (%d ranks)", ErrNoSurvivor, n)
}

// Slowdown returns the straggler multiplier (>= 1) for one worker at one
// epoch. Crashed workers no longer straggle.
func (s *Schedule) Slowdown(worker, epoch, n int) float64 {
	if s == nil {
		return 1
	}
	if s.CrashedAt(worker, epoch, n) {
		return 1
	}
	factor := 1.0
	for _, st := range s.p.Stragglers {
		if mapWorker(st.Worker, n) == worker && epoch >= st.FromEpoch && st.Factor > factor {
			factor = st.Factor
		}
	}
	return factor
}

// BarrierFactor returns the allreduce pacing multiplier rank self observes
// at one epoch: training advances at the slowest surviving peer's rate, so
// the max straggler factor among self's peers gates every iteration.
func (s *Schedule) BarrierFactor(self, epoch, n int) float64 {
	if s == nil {
		return 1
	}
	factor := 1.0
	for _, st := range s.p.Stragglers {
		w := mapWorker(st.Worker, n)
		if w == self || epoch < st.FromEpoch || st.Factor <= factor {
			continue
		}
		if s.CrashedAt(w, epoch, n) {
			continue
		}
		factor = st.Factor
	}
	return factor
}

// TierFactor returns the bandwidth-division multiplier (>= 1) for reads from
// one storage class (or PFSTier) at one epoch.
func (s *Schedule) TierFactor(class, epoch int) float64 {
	if s == nil {
		return 1
	}
	factor := 1.0
	for _, t := range s.p.Tiers {
		if t.Class == class && epoch >= t.FromEpoch && t.Factor > factor {
			factor = t.Factor
		}
	}
	return factor
}

// MaxTierFactor returns the largest factor any epoch applies to the class —
// the steady-state degradation the live path throttles towards.
func (s *Schedule) MaxTierFactor(class int) float64 {
	if s == nil {
		return 1
	}
	factor := 1.0
	for _, t := range s.p.Tiers {
		if t.Class == class && t.Factor > factor {
			factor = t.Factor
		}
	}
	return factor
}

// DegradedClasses returns the set of node-local class indices the profile
// degrades at any epoch (PFSTier excluded), in ascending order.
func (s *Schedule) DegradedClasses() []int {
	if s == nil {
		return nil
	}
	seen := map[int]bool{}
	var out []int
	for _, t := range s.p.Tiers {
		if t.Class >= 0 && !seen[t.Class] {
			seen[t.Class] = true
			out = append(out, t.Class)
		}
	}
	sort.Ints(out)
	return out
}

// CrashedAt reports whether the given rank is gone at the given epoch.
func (s *Schedule) CrashedAt(worker, epoch, n int) bool {
	c := s.CrashEpoch(worker, n)
	return c >= 0 && epoch >= c
}

// CrashedWorkers returns the ranks gone at the given epoch, ascending.
func (s *Schedule) CrashedWorkers(epoch, n int) []int {
	var out []int
	for r := 0; r < n; r++ {
		if s.CrashedAt(r, epoch, n) {
			out = append(out, r)
		}
	}
	return out
}

// HasCrashes reports whether any crash applies on a cluster of n ranks: a
// crash lands on any cluster of two or more (crashRank).
func (s *Schedule) HasCrashes(n int) bool { return s != nil && n > 1 && len(s.p.Crashes) > 0 }

// fabricStream salts the fabric-fault PRNG derivation so it cannot collide
// with the training shuffle streams derived from the same seed.
const fabricStream = 0xfab51c

// FabricCall draws the fault outcome of attempt number attempt at the
// remote fetch for stream position pos: the injected delay in seconds
// (latency + uniform jitter) and whether it fails transiently. The draw is
// a pure function of (seed, caller, pos, attempt), never of execution
// order, so both engines fail the same fetches. It runs once per remote
// fetch inside the simulator's allocation-lean hot loop, so the draw is two
// SplitMix64 finalizer rounds over a mixed counter state — no generator
// construction per call.
func (s *Schedule) FabricCall(caller int, pos, attempt uint64) (delaySeconds float64, fail bool) {
	if s == nil || s.p.Fabric.zero() {
		return 0, false
	}
	f := s.p.Fabric
	delaySeconds = f.LatencySeconds
	if f.JitterSeconds == 0 && f.FailRate == 0 {
		return delaySeconds, false
	}
	// Distinct odd multipliers keep (caller, pos, attempt) on distinct
	// states (attempt 0 adds nothing); SplitMix64's bijective finalizer
	// decorrelates the draws.
	sm := prng.NewSplitMix64((s.seed ^ fabricStream) +
		(uint64(caller)+1)*0x9e3779b97f4a7c15 + (pos+1)*0xd1b54a32d192ed03 + attempt*0xa0761d6478bd642f)
	delaySeconds += f.JitterSeconds * unitFloat(sm.Next())
	fail = unitFloat(sm.Next()) < f.FailRate
	return delaySeconds, fail
}

// unitFloat maps a uniform 64-bit draw onto [0, 1) with 53 bits of
// precision (the prng.Generator.Float64 construction).
func unitFloat(v uint64) float64 {
	return float64(v>>11) / (1 << 53)
}
