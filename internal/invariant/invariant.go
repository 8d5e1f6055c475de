// Package invariant is the repo's property/metamorphic test harness: the
// laws every simulated (and live) run must obey, stated as reusable checks.
//
// The checks are exported so future scenario work — new policies, new fault
// profiles, new hardware presets — can assert the same laws instead of
// re-deriving ad-hoc expectations. The package's tests drive them over
// randomized plans and fault profiles; they double as the acceptance oracle
// for the chaos layer:
//
//   - Basic laws (CheckResult): stall and exec times are non-negative,
//     stall never exceeds exec, coverage lies in [0, 1], and the per-epoch
//     series sums back to the run's training time.
//   - No-prefetch bound (CheckStallBound): a pipelined policy's stall time
//     cannot exceed the fully synchronous Naive run's execution time — if
//     waiting on the staging buffer cost more than doing all I/O inline,
//     the pipeline would be worse than no pipeline.
//   - Cache monotonicity (CheckNotSlower): enlarging any cache tier never
//     increases epoch time — more capacity means a superset of caching
//     options under the argmin fetch rule.
//   - Fault-removal monotonicity (CheckNotSlower): removing a
//     non-structural fault (stragglers, tier degradation, fabric faults —
//     anything that stretches durations without changing the access
//     schedule) never slows a run. The chaos layer guarantees this by
//     construction: faults perturb durations only, never the policy's
//     source decisions or the γ-estimation feedback.
//   - Determinism: identical grids produce bit-identical encoded reports at
//     any engine pool width, chaos included.
//   - Exactly-once delivery (CheckExactlyOnce): under node crashes the
//     survivors' redistributed streams partition the plan — every scheduled
//     sample round is delivered exactly once, none lost, none duplicated.
//     The same law gates elastic membership schedules: the per-epoch active
//     ranks partition every epoch's order with nothing lost to a join or
//     leave.
//   - Frequency conservation (CheckFrequencyConservation): the plan's
//     access-frequency tables account for every scheduled round — the
//     per-worker tables agree with the all-worker pass and sum to exactly
//     E x EpochLimit accesses, whatever the pattern. The no-prefetch stall
//     bound is frequency-weighted under non-uniform patterns for free: the
//     Naive baseline pays every repeated hot-sample access, so comparing
//     against it weights the bound by the pattern's frequencies.
//   - Mixture conservation (CheckMixConservation): a mix pattern's epoch
//     order is a permutation in which every dataset part contributes
//     exactly its size — the weighted interleaver reorders, never resamples.
//   - Live stall bound (CheckLiveStallBound): a live cluster's measured
//     stall stays inside an order-of-magnitude envelope of the simulator's
//     prediction for the same plan and fault profile.
//   - Filesystem read bound (CheckPFSReadBound): a live rank reads a sample
//     it is assigned to cache from the shared filesystem at most once in
//     the run, and any other sample only to stage it; the ranks' read
//     counts account for every read the dataset served.
package invariant

import (
	"fmt"
	"math"

	"repro/internal/access"
	"repro/internal/chaos"
	"repro/internal/prng"
	isim "repro/internal/sim"
)

// Tol is the relative tolerance for the monotonicity comparisons: the laws
// hold exactly in the model's real-number semantics, and floating-point
// evaluation tracks it to well below this.
const Tol = 1e-9

// CheckResult verifies the basic laws of one simulated result. Failed
// results (configurations that legitimately cannot run) pass trivially.
func CheckResult(r *isim.Result) error {
	if r.Failed {
		return nil
	}
	switch {
	case r.StallSeconds < 0:
		return fmt.Errorf("invariant: stall %g < 0", r.StallSeconds)
	case r.ExecSeconds < 0 || math.IsNaN(r.ExecSeconds) || math.IsInf(r.ExecSeconds, 0):
		return fmt.Errorf("invariant: exec %g not a finite non-negative time", r.ExecSeconds)
	case r.SetupSeconds < 0:
		return fmt.Errorf("invariant: setup %g < 0", r.SetupSeconds)
	case r.StallSeconds > r.ExecSeconds*(1+Tol):
		return fmt.Errorf("invariant: stall %g exceeds exec %g", r.StallSeconds, r.ExecSeconds)
	case r.Coverage < 0 || r.Coverage > 1+Tol:
		return fmt.Errorf("invariant: coverage %g outside [0, 1]", r.Coverage)
	}
	var epochSum float64
	for i, e := range r.EpochSeconds {
		if e < 0 {
			return fmt.Errorf("invariant: epoch %d duration %g < 0", i, e)
		}
		epochSum += e
	}
	// Epoch durations cover at most the training time (exec minus
	// prestaging setup). One-sided: policies that reorder their stream
	// (LocalityAware) can leave a sub-epoch tail beyond the last boundary.
	training := r.ExecSeconds - r.SetupSeconds
	if epochSum > training*(1+1e-6)+Tol {
		return fmt.Errorf("invariant: epoch sum %g exceeds training time %g", epochSum, training)
	}
	for i, b := range r.BatchSeconds {
		if b < 0 {
			return fmt.Errorf("invariant: batch %d duration %g < 0", i, b)
		}
	}
	return nil
}

// CheckStallBound verifies the no-prefetch bound: the policy's total stall
// time cannot exceed the synchronous no-prefetch run's execution time for
// the same fault-free configuration. The bound is a fault-free law: Naive
// never touches caches or the fabric, so faults targeting those tiers slow
// the compared policy while leaving the bound untouched.
func CheckStallBound(r, noPrefetch *isim.Result) error {
	if r.Failed || noPrefetch.Failed {
		return nil
	}
	if r.StallSeconds > noPrefetch.ExecSeconds*(1+Tol) {
		return fmt.Errorf("invariant: stall %g exceeds the no-prefetch bound %g (%s vs %s)",
			r.StallSeconds, noPrefetch.ExecSeconds, r.Policy, noPrefetch.Policy)
	}
	return nil
}

// SameStreamPolicies lists the policies that consume the plan's true access
// stream end to end. Only for these is LowerBound ("Perfect") an actual
// execution-time lower bound — policies that cycle their cached subset
// (ParallelStaging, opportunistic DeepIO) or reorder and resize the stream
// (LocalityAware) train on different bytes.
func SameStreamPolicies() map[string]bool {
	return map[string]bool{
		isim.NameLowerBound:    true,
		isim.NameNaive:         true,
		isim.NameStagingBuffer: true,
		isim.NameDeepIOOrdered: true,
		isim.NameLBANNDynamic:  true,
		isim.NameLBANNPreload:  true,
		isim.NameNoPFS:         true,
	}
}

// CheckNotSlower verifies the monotonicity laws: the "better" run (larger
// caches, or faults removed) must not be slower than the "worse" one.
func CheckNotSlower(better, worse *isim.Result, law string) error {
	if better.Failed || worse.Failed {
		return nil
	}
	if better.ExecSeconds > worse.ExecSeconds*(1+Tol) {
		return fmt.Errorf("invariant: %s violated: %g > %g (%s)",
			law, better.ExecSeconds, worse.ExecSeconds, better.Policy)
	}
	return nil
}

// CheckExactlyOnce verifies the crash-recovery conservation law: the
// per-rank delivered id sequences, taken together, form exactly the multiset
// of sample rounds in the scheduled streams — nothing lost to the crash,
// nothing delivered twice by the redistribution. The per-rank order is not
// part of this law (checkable separately against the redistributed streams);
// conservation is what must survive any redistribution rule.
func CheckExactlyOnce(delivered [][]int, scheduled [][]access.SampleID) error {
	need := make(map[int]int)
	total := 0
	for _, stream := range scheduled {
		for _, id := range stream {
			need[int(id)]++
			total++
		}
	}
	got := 0
	for rank, ids := range delivered {
		for _, id := range ids {
			if need[id] == 0 {
				return fmt.Errorf("invariant: rank %d delivered sample %d more times than scheduled", rank, id)
			}
			need[id]--
			got++
		}
	}
	if got != total {
		return fmt.Errorf("invariant: delivered %d sample rounds, schedule has %d", got, total)
	}
	return nil
}

// CheckLiveStallBound gates a live run's measured stall time against the
// simulator's prediction for the same plan and fault profile. Live wall
// clocks are noisy and the simulator models datacenter hardware, so this is
// deliberately an order-of-magnitude envelope — slack × the simulated stall
// plus an absolute floor — not a tight band: it catches pathological live
// behaviour (a fetch path hanging on a dead peer for seconds) while staying
// robust to CI machine jitter.
func CheckLiveStallBound(liveSeconds, simSeconds, slack, floorSeconds float64) error {
	if liveSeconds < 0 || math.IsNaN(liveSeconds) {
		return fmt.Errorf("invariant: live stall %g not a non-negative time", liveSeconds)
	}
	bound := simSeconds*slack + floorSeconds
	if liveSeconds > bound {
		return fmt.Errorf("invariant: live stall %gs exceeds sim-predicted bound %gs (sim %gs × %g + %gs floor)",
			liveSeconds, bound, simSeconds, slack, floorSeconds)
	}
	return nil
}

// CheckPFSReadBound verifies the live engine's filesystem-read law. reads[r]
// is every PFS read rank r issued (nopfs.Stats.PFSReads: staged fetches and
// class fills), staged[r] the samples it delivered with a PFS source,
// assigned(r, k) whether the placement has r cache sample k (of f samples),
// and datasetReads what the dataset itself counted. A rank has no reason to
// read an assigned sample twice — the first read caches it, and its class
// and staging prefetchers share one read — and reads an unassigned one only
// to stage it, so
//
//	reads[r] <= |{k : assigned(r, k)}| + |{k in staged[r] : !assigned(r, k)}|
//
// on every schedule, not just on average (staged[r] is a subset of the
// rank's stream, so "one per assigned sample plus one per unassigned stream
// position" follows). No assigned sample is staged from the PFS twice, and
// the per-rank counts sum to datasetReads, so no read escapes the
// accounting the bound is stated in.
func CheckPFSReadBound(reads []int64, datasetReads int64, staged [][]access.SampleID, f int,
	assigned func(rank int, k access.SampleID) bool) error {
	if len(reads) != len(staged) {
		return fmt.Errorf("invariant: %d read counts for %d ranks", len(reads), len(staged))
	}
	var total int64
	for r, ids := range staged {
		var bound int64
		for k := 0; k < f; k++ {
			if assigned(r, access.SampleID(k)) {
				bound++
			}
		}
		seen := make(map[access.SampleID]bool)
		for _, k := range ids {
			switch {
			case !assigned(r, k):
				bound++
			case seen[k]:
				return fmt.Errorf("invariant: rank %d staged sample %d, which it is assigned to cache, from the PFS twice", r, k)
			default:
				seen[k] = true
			}
		}
		if reads[r] > bound {
			return fmt.Errorf("invariant: rank %d issued %d PFS reads, bound is %d (one per assigned sample + one per unassigned sample staged from the PFS)",
				r, reads[r], bound)
		}
		total += reads[r]
	}
	if total != datasetReads {
		return fmt.Errorf("invariant: ranks account for %d PFS reads, the dataset served %d", total, datasetReads)
	}
	return nil
}

// CheckFrequencyConservation verifies the frequency accounting laws of a
// plan's access pattern: the per-worker frequency tables agree entry for
// entry with the all-worker pass, and the total access count is exactly
// E x EpochLimit — with-replacement patterns (zipf, boost) repeat samples
// but never change the volume, and elastic membership only repartitions it.
func CheckFrequencyConservation(p *access.Plan) error {
	freqs := p.Frequencies()
	var total int64
	for w := range freqs {
		wf := p.WorkerFrequencies(w)
		for i := range wf {
			if wf[i] != freqs[w][i] {
				return fmt.Errorf("invariant: worker %d sample %d frequency %d (per-worker) vs %d (all-worker)",
					w, i, wf[i], freqs[w][i])
			}
			total += int64(wf[i])
		}
	}
	if want := int64(p.E) * int64(p.EpochLimit()); total != want {
		return fmt.Errorf("invariant: pattern %q schedules %d accesses, plan has %d",
			p.Access, total, want)
	}
	return nil
}

// CheckMixConservation verifies a mixture epoch order: it is a permutation
// of the dataset, and each of the K contiguous parts contributes exactly its
// size — the weighted interleaver decides order, never multiplicity.
func CheckMixConservation(order []access.SampleID, f, parts int) error {
	if len(order) != f {
		return fmt.Errorf("invariant: mix order has %d entries, dataset has %d", len(order), f)
	}
	seen := make([]bool, f)
	counts := make([]int, parts)
	for _, id := range order {
		if id < 0 || int(id) >= f {
			return fmt.Errorf("invariant: mix order emits sample %d outside [0,%d)", id, f)
		}
		if seen[id] {
			return fmt.Errorf("invariant: mix order repeats sample %d", id)
		}
		seen[id] = true
		counts[access.MixPart(id, f, parts)]++
	}
	for k := 0; k < parts; k++ {
		want := (k+1)*f/parts - k*f/parts
		if counts[k] != want {
			return fmt.Errorf("invariant: mix part %d contributes %d samples, owns %d", k, counts[k], want)
		}
	}
	return nil
}

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
		return "mix:w=" + joinSlash(parts)
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

// joinSlash joins mixture weights with the spec grammar's '/' separator.
func joinSlash(parts []string) string {
	out := parts[0]
	for _, p := range parts[1:] {
		out += "/" + p
	}
	return out
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
