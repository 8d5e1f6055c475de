package sim

import (
	"repro/internal/chaos"
	"repro/internal/perfmodel"
)

// This file is the simulator's half of the fault-injection contract
// (internal/chaos). A node crash is a plan-time fact: before the hot loop it
// reshapes the simulated worker's stream and takes the crashed holders'
// copies out of its source tags (runInput), so the policy's source decisions
// and the γ heuristic never see them. The other faults only add seconds, in
// simulate, after γ has folded the policy's decision: a degraded tier's
// factor, and on a remote fetch the fabric's delay and, when the draw at its
// stream position (attempt 0, the live zero policy's draw) fails, the fetch
// the policy's rule makes without that holder. So removing a non-structural
// fault provably never slows a run — the monotonicity law the invariant
// suite asserts.

// tierFactor returns the degradation factor, at the epoch, of the tier that
// serves a fetch from loc (storage class cls, -1 for none).
func tierFactor(sched *chaos.Schedule, epoch int, loc perfmodel.Location, cls int) float64 {
	switch {
	case loc == perfmodel.LocPFS:
		return sched.TierFactor(chaos.PFSTier, epoch)
	case cls >= 0:
		return sched.TierFactor(cls, epoch)
	}
	return 1
}
