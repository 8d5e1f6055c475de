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
//   - Source agreement (CheckSourceAgreement): a live rank serves every
//     stream position from where the placement's source tag, the
//     simulator's input, says — local, else remote, else PFS — but for
//     three counted timing outcomes: a remote false positive, a late local
//     (at most once per sample) and an early local.
//   - Crash rule (CheckCrashTags, CheckCrashedHolderCalls): a crash is a
//     plan-time fact. A source tag never promises a remote copy on a
//     holder that has crashed by its position's epoch, and every promise
//     the schedule clears is exactly such a position; a live rank never
//     calls such a holder.
package invariant

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/access"
	"repro/internal/perfmodel"
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

// SourceMismatches counts the timing outcomes CheckSourceAgreement allows
// where what served a position differs from its source tag.
type SourceMismatches struct {
	// FalsePositives: the tag promised a remote copy, the PFS served it.
	FalsePositives int
	// LateLocals: the tag promised a local copy, a peer or the PFS served
	// it, because no fetch had stored it yet.
	LateLocals int
	// EarlyLocals: the tag promised no local copy, the rank's class served
	// it, because a class fill or another fetch stored it first.
	EarlyLocals int
}

// CheckSourceAgreement verifies the source law: a live rank serves each
// position of its stream from where the placement's source tag for it says
// (cachepolicy.Tags, the simulator's input: the local class in the low
// nibble, else the remote holder in the high one, else the PFS), except
// for the three timing outcomes SourceMismatches counts. A mismatch of any
// other kind is an error. Early and late locals need assigned(k), that the
// rank caches sample k. A rank stores an assigned sample the first time it
// fetches it from anywhere else, so a late local is its sample's only
// non-local fetch: every earlier position of the sample is served locally,
// because it coalesced onto, or found, what the late one stored.
func CheckSourceAgreement(tags []byte, observed []perfmodel.Location, stream []access.SampleID,
	assigned func(access.SampleID) bool) (SourceMismatches, error) {
	var n SourceMismatches
	if len(tags) != len(stream) || len(observed) != len(stream) {
		return n, fmt.Errorf("invariant: %d tags and %d observed sources for %d positions", len(tags), len(observed), len(stream))
	}
	fetched := make(map[access.SampleID]bool) // served from outside the rank's classes
	for f, k := range stream {
		want, got := perfmodel.LocPFS, observed[f]
		switch {
		case tags[f]&0x0f != 0:
			want = perfmodel.LocLocal
		case tags[f]>>4 != 0:
			want = perfmodel.LocRemote
		}
		switch {
		case got == want:
		case want == perfmodel.LocRemote && got == perfmodel.LocPFS:
			n.FalsePositives++
		case want == perfmodel.LocLocal && assigned(k) && !fetched[k]:
			n.LateLocals++
		case got == perfmodel.LocLocal && want != perfmodel.LocLocal && assigned(k):
			n.EarlyLocals++
		default:
			return n, fmt.Errorf("invariant: position %d (sample %d, assigned %v): tag %#02x says %s, %s served it",
				f, k, assigned(k), tags[f], want, got)
		}
		if got != perfmodel.LocLocal {
			fetched[k] = true
		}
	}
	return n, nil
}

// CheckCrashTags verifies the crash rule of the source tags against the
// fault-free tags of the same stream: where the holder RemoteAvail names
// (holder(f)) is gone by position f (gone(h, f)), the tag keeps its local
// nibble and promises no remote copy; everywhere else it is the fault-free
// tag. So no tag names a crashed holder, and each cleared promise did.
func CheckCrashTags(plain, tags []byte, holder func(f int) int, gone func(h, f int) bool) error {
	if len(tags) != len(plain) {
		return fmt.Errorf("invariant: %d crash tags for %d positions", len(tags), len(plain))
	}
	for f, want := range plain {
		if want>>4 != 0 && gone(holder(f), f) {
			want &= 0x0f
		}
		if tags[f] != want {
			return fmt.Errorf("invariant: position %d (holder %d): crash tag %#02x, want %#02x", f, holder(f), tags[f], want)
		}
	}
	return nil
}

// CheckCrashedHolderCalls verifies the live half of the crash rule on one
// rank's fetch calls, the i-th to holder to[i] for samples[i]: none reaches
// a holder gone (crashEpoch(h) >= 0) by the epoch of the position it
// fetches for, under the rank's delivery stream and its cumulative epoch
// ends. The law reads no position off a call and places it at the
// earliest one it can serve: a sample the rank is assigned to cache may be
// fetched by its class fill from the first position on, any other only by
// the staging path, at one of its own positions.
func CheckCrashedHolderCalls(to []int, samples, stream []access.SampleID, ends []int,
	assigned func(access.SampleID) bool, crashEpoch func(h int) int) error {
	first := make(map[access.SampleID]int, len(stream))
	for f := len(stream) - 1; f >= 0; f-- {
		first[stream[f]] = f
	}
	for i, k := range samples {
		f, ok := first[k]
		if assigned(k) {
			f, ok = 0, true
		}
		if !ok {
			return fmt.Errorf("invariant: call %d fetched sample %d, which the rank neither caches nor delivers", i, k)
		}
		if epoch, c := sort.SearchInts(ends, f+1), crashEpoch(to[i]); c >= 0 && epoch >= c {
			return fmt.Errorf("invariant: call %d fetched sample %d from holder %d, gone at epoch %d, for epoch %d or later", i, k, to[i], c, epoch)
		}
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
