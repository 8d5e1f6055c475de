package sim

import (
	"repro/internal/chaos"
	"repro/internal/perfmodel"
)

// This file is the simulator's half of the fault-injection contract
// (internal/chaos): crash re-planning reshapes the simulated worker's stream
// before the hot loop, and chaosAdjust stretches per-fetch durations inside
// it. All adjustments are duration-only (the policy's source decisions and
// the γ heuristic see the fault-free world), which is what makes removing a
// non-structural fault provably never slow a run — the monotonicity law the
// invariant suite asserts.

// chaosAdjust applies the per-fetch fault effects to one source choice:
// crashed-holder rerouting, tier bandwidth rescaling, and fabric
// latency/jitter/transient failures. f is the stream position (the
// deterministic fabric-draw index); epoch the current epoch.
func chaosAdjust(env *Env, sched *chaos.Schedule, epoch, f int, sz float64, choice *perfmodel.Choice, res *Result) {
	n := env.Plan.N
	// A crashed holder serves nothing: the fetch lands on the PFS, which is
	// always available (its clairvoyant placement was redistributed, but the
	// bytes it cached are gone).
	if choice.Loc == perfmodel.LocRemote && sched.CrashedAt(int(choice.Holder), epoch, n) {
		*choice = perfmodel.Choice{
			Loc: perfmodel.LocPFS, Class: -1,
			Seconds: env.Rate.FetchPFS(sz, env.Gamma()),
		}
	}
	// Tier degradation divides the serving tier's bandwidth.
	switch choice.Loc {
	case perfmodel.LocPFS:
		choice.Seconds *= sched.TierFactor(chaos.PFSTier, epoch)
	case perfmodel.LocLocal, perfmodel.LocRemote:
		if choice.Class >= 0 {
			choice.Seconds *= sched.TierFactor(choice.Class, epoch)
		}
	}
	// Fabric faults hit remote fetches only: added latency/jitter, and a
	// transient failure costs the full timed-out attempt plus the PFS
	// fallback (never cheaper than succeeding, so fault removal is monotone
	// even when a policy's remote pick was slower than the PFS).
	if choice.Loc == perfmodel.LocRemote {
		delay, fail := sched.FabricCall(0, uint64(f))
		choice.Seconds += delay
		if fail {
			choice.Seconds += env.Rate.FetchPFS(sz, env.Gamma()) * sched.TierFactor(chaos.PFSTier, epoch)
			res.RemoteFalsePositives++
		}
	}
}
