package chaos

import (
	"repro/internal/access"
)

// This file is the shared half of the crash-recovery contract: the
// round-robin redistribution of a crashed worker's plan entries across the
// survivors. Both engines consult the same pure function of the schedule —
// the simulator reshapes its observed rank's stream before its hot loop and
// the live Job reshapes each rank's delivery stream at setup — so sim-vs-live
// stall under the same crash profile converges and exactly-once delivery is
// checkable against the union of the redistributed streams
// (internal/invariant).

// CrashEpoch returns the first epoch at which worker is gone on a cluster
// of n ranks, or -1 when it never crashes.
func (s *Schedule) CrashEpoch(worker, n int) int {
	if s == nil {
		return -1
	}
	first := -1
	for _, c := range s.p.Crashes {
		if r, ok := crashRank(c.Worker, n); ok && r == worker {
			if first < 0 || c.AtEpoch < first {
				first = c.AtEpoch
			}
		}
	}
	return first
}

// survivorOrdinal returns self's index among the survivors (the ranks not
// in crashed, which is ascending). The ordinal selects self's round-robin
// share of each orphaned slice.
func survivorOrdinal(self int, crashed []int) int {
	ord := self
	for _, c := range crashed {
		if c < self {
			ord--
		}
	}
	return ord
}

// RedistributeStream applies crash re-planning to one worker's delivery
// stream and its cumulative epoch ends. The stream is sliced at its own
// ends, whatever rule built it: the plan's partition, an elastic
// membership schedule's unequal one, or a policy's reordering. From each
// crash epoch onwards the crashed workers' plan entries — sliced at their
// plan epoch ends from peer — are split round-robin across the survivors in
// rank order, and self appends its share after its own entries for the
// epoch.
//
// If self itself crashes, its stream ends at its crash epoch: the returned
// stream holds only the pre-crash prefix (own entries plus any shares of
// earlier crashes).
//
// The second return carries the cumulative end-of-epoch boundaries of the
// reshaped stream (one entry per epoch self survives the start of). A
// schedule without crashes returns the stream and ends untouched.
//
// The function is a stateless pure function of (schedule, arguments): both
// engines compute identical redistributions from a shared profile, which
// is what lets the live path recover clairvoyantly — survivors know the
// orphaned plan rounds without any runtime ownership negotiation.
func (s *Schedule) RedistributeStream(
	self, n int,
	stream []access.SampleID, ends []int,
	peer func(worker int) (stream []access.SampleID, ends []int),
) ([]access.SampleID, []int) {
	if s == nil || !s.HasCrashes(n) {
		return stream, ends
	}
	selfCrash := s.CrashEpoch(self, n)
	out := make([]access.SampleID, 0, len(stream)+len(stream)/n+1)
	outEnds := make([]int, 0, len(ends))
	off := 0
	for e, end := range ends {
		if selfCrash >= 0 && e >= selfCrash {
			break // self is gone: deliver only the pre-crash prefix
		}
		out = append(out, stream[off:end]...)
		off = end
		if crashed := s.CrashedWorkers(e, n); len(crashed) > 0 {
			survivors := n - len(crashed)
			ord := survivorOrdinal(self, crashed)
			for _, w := range crashed {
				// Worker w's plan entries for this epoch, from the shared
				// plan streams; survivors split them round-robin in rank
				// order, so survivor ordinal k takes positions lo+k,
				// lo+k+S, lo+k+2S, ...
				ws, we := peer(w)
				lo := 0
				if e > 0 {
					lo = we[e-1]
				}
				for i := lo + ord; i < we[e]; i += survivors {
					out = append(out, ws[i])
				}
			}
		}
		outEnds = append(outEnds, len(out))
	}
	return out, outEnds
}

// SurvivorStreams is a test/verification helper: it redistributes every
// rank's plan stream under the schedule and returns the per-rank reshaped
// streams and boundaries, keyed by rank. Ranks that crash get their
// truncated prefix. The union of the returned streams is exactly the set
// of samples a live cluster must deliver — the exactly-once oracle.
func (s *Schedule) SurvivorStreams(n int,
	peer func(worker int) (stream []access.SampleID, ends []int),
) (streams [][]access.SampleID, bounds [][]int) {
	streams = make([][]access.SampleID, n)
	bounds = make([][]int, n)
	for r := 0; r < n; r++ {
		stream, ends := peer(r)
		streams[r], bounds[r] = s.RedistributeStream(r, n, stream, ends, peer)
	}
	return streams, bounds
}
