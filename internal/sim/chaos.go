package sim

import (
	"repro/internal/chaos"
	"repro/internal/perfmodel"
)

// This file is the simulator's half of the fault-injection contract
// (internal/chaos). A node crash is a plan-time fact: before the hot loop it
// reshapes the simulated worker's stream and takes the crashed holders'
// copies out of its source tags (runInput), so the policy's source decisions
// and the γ heuristic never see them. The other faults are duration-only:
// chaosAdjust stretches per-fetch durations inside the loop, which is what
// makes removing a non-structural fault provably never slow a run — the
// monotonicity law the invariant suite asserts.

// chaosAdjust returns the seconds of one source choice under the per-fetch
// fault effects: tier bandwidth rescaling, and fabric latency/jitter/
// transient failures. f is the stream position (the
// deterministic fabric-draw index); epoch the current epoch.
func chaosAdjust(env *Env, sched *chaos.Schedule, epoch, f int, sz float64, choice perfmodel.Choice, res *Result) float64 {
	sec := choice.Seconds
	// Tier degradation divides the serving tier's bandwidth.
	switch choice.Loc {
	case perfmodel.LocPFS:
		sec *= sched.TierFactor(chaos.PFSTier, epoch)
	case perfmodel.LocLocal, perfmodel.LocRemote:
		if choice.Class >= 0 {
			sec *= sched.TierFactor(choice.Class, epoch)
		}
	}
	// Fabric faults hit remote fetches only: added latency/jitter, and a
	// transient failure costs the full timed-out attempt plus the PFS
	// fallback (never cheaper than succeeding, so fault removal is monotone
	// even when a policy's remote pick was slower than the PFS).
	if choice.Loc == perfmodel.LocRemote {
		delay, fail := sched.FabricCall(env.obs, uint64(f))
		sec += delay
		if fail {
			sec += env.Rate.FetchPFS(sz, env.Gamma()) * sched.TierFactor(chaos.PFSTier, epoch)
			res.RemoteFalsePositives++
		}
	}
	return sec
}
