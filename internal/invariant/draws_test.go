package invariant

import (
	"fmt"
	"strings"

	"repro/internal/chaos"
	"repro/internal/prng"
)

// The property tests' random draws: access-pattern specs and fault profiles.

// RandomPattern draws a random access-pattern spec for property tests,
// covering every generator kind. Elastic schedules are valid by
// construction (events target existing ranks at epochs 1..E-1, never
// emptying an epoch's active set); they require workers >= 2 and epochs >= 2
// and fall back to a non-structural kind otherwise. Deterministic in the
// generator's state.
func RandomPattern(g *prng.Generator, workers, epochs int) string {
	kind := g.Intn(6)
	if kind == 5 && (workers < 2 || epochs < 2) {
		kind = g.Intn(5)
	}
	switch kind {
	case 0:
		return ""
	case 1:
		spec := fmt.Sprintf("zipf:s=%.2f", 0.8+0.8*g.Float64())
		if g.Float64() < 0.5 {
			spec += fmt.Sprintf(",drift=%.2f", 0.05+0.2*g.Float64())
		}
		return spec
	case 2:
		return fmt.Sprintf("boost:frac=%.2f,factor=%d", 0.05+0.3*g.Float64(), 2+g.Intn(8))
	case 3:
		spec := fmt.Sprintf("curriculum:buckets=%d", 2+g.Intn(5))
		if g.Float64() < 0.3 {
			spec += ",shuffle=off"
		}
		return spec
	case 4:
		parts := make([]string, 2+g.Intn(3))
		for i := range parts {
			parts[i] = fmt.Sprintf("%.2f", 0.1+g.Float64())
		}
		return "mix:w=" + strings.Join(parts, "/")
	default:
		// One membership event keeps every epoch's active set non-empty
		// for workers >= 2; add a second on a distinct rank when room.
		epoch := func() int { return 1 + g.Intn(epochs-1) }
		if g.Float64() < 0.5 {
			spec := fmt.Sprintf("elastic:join=%d@%d", workers-1, epoch())
			if workers >= 3 && g.Float64() < 0.5 {
				spec += fmt.Sprintf(",leave=%d@%d", g.Intn(workers-1), epoch())
			}
			return spec
		}
		return fmt.Sprintf("elastic:leave=%d@%d", g.Intn(workers), epoch())
	}
}

// RandomProfile draws a random fault profile for property tests: a mix of
// stragglers, tier degradations (including the PFS), and fabric faults,
// plus — when structural is true — node crashes. Deterministic in the
// generator's state.
func RandomProfile(g *prng.Generator, workers, epochs, classes int, structural bool) chaos.Profile {
	p := chaos.Profile{Name: "random"}
	factor := func() float64 { return 1 + 3*g.Float64() }
	epoch := func() int { return g.Intn(epochs) }
	if g.Float64() < 0.7 {
		p.Stragglers = append(p.Stragglers, chaos.Straggler{
			Worker: g.Intn(workers), Factor: factor(), FromEpoch: epoch(),
		})
	}
	if g.Float64() < 0.7 {
		class := chaos.PFSTier
		if classes > 0 && g.Float64() < 0.7 {
			class = g.Intn(classes)
		}
		p.Tiers = append(p.Tiers, chaos.TierDegradation{
			Class: class, Factor: factor(), FromEpoch: epoch(),
		})
	}
	if g.Float64() < 0.7 {
		p.Fabric = chaos.FabricFault{
			LatencySeconds: 0.002 * g.Float64(),
			JitterSeconds:  0.002 * g.Float64(),
			FailRate:       0.3 * g.Float64(),
		}
	}
	if structural && epochs > 1 && workers > 1 && g.Float64() < 0.6 {
		p.Crashes = append(p.Crashes, chaos.Crash{
			Worker: g.Intn(workers), AtEpoch: 1 + g.Intn(epochs-1),
		})
	}
	return p
}
