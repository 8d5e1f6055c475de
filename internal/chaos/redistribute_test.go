package chaos

import (
	"reflect"
	"testing"

	"repro/internal/access"
)

// planStreams builds n synthetic plan streams of epochs x pe entries each;
// worker w's entries are w*100+i so every ID is globally unique and its
// origin is readable in failures. The second return is every worker's
// epoch ends (the multiples of pe), and the third serves both as the peer
// lookup RedistributeStream takes.
func planStreams(n, epochs, pe int) ([][]access.SampleID, []int, func(int) ([]access.SampleID, []int)) {
	out := make([][]access.SampleID, n)
	for w := 0; w < n; w++ {
		s := make([]access.SampleID, epochs*pe)
		for i := range s {
			s[i] = access.SampleID(w*100 + i)
		}
		out[w] = s
	}
	ends := make([]int, epochs)
	for e := range ends {
		ends[e] = (e + 1) * pe
	}
	return out, ends, func(w int) ([]access.SampleID, []int) { return out[w], ends }
}

func compileSpec(t *testing.T, spec string) *Schedule {
	t.Helper()
	p, err := ParseProfile(spec)
	if err != nil {
		t.Fatal(err)
	}
	return p.Compile(7)
}

func TestRedistributeStreamFaultFree(t *testing.T) {
	streams, planEnds, peer := planStreams(2, 2, 3)
	var nilSched *Schedule
	out, ends := nilSched.RedistributeStream(0, 2, streams[0], planEnds, peer)
	if &out[0] != &streams[0][0] || &ends[0] != &planEnds[0] {
		t.Fatal("nil schedule must return the stream and its ends untouched")
	}
	// A schedule without crashes is equally neutral.
	s := compileSpec(t, "lat:1ms")
	out, ends = s.RedistributeStream(0, 2, streams[0], planEnds, peer)
	if &out[0] != &streams[0][0] || &ends[0] != &planEnds[0] {
		t.Fatal("crash-free schedule must return the stream and its ends untouched")
	}
}

func TestCrashEpoch(t *testing.T) {
	s := compileSpec(t, "crash:2@1")
	if got := s.CrashEpoch(2, 4); got != 1 {
		t.Errorf("CrashEpoch(2) = %d, want 1", got)
	}
	if got := s.CrashEpoch(1, 4); got != -1 {
		t.Errorf("CrashEpoch(1) = %d, want -1", got)
	}
	var nilSched *Schedule
	if got := nilSched.CrashEpoch(2, 4); got != -1 {
		t.Errorf("nil CrashEpoch = %d, want -1", got)
	}
	// Earliest of several crashes aimed at the same rank wins.
	multi := compileSpec(t, "crash:2@3,crash:2@1")
	if got := multi.CrashEpoch(2, 4); got != 1 {
		t.Errorf("multi CrashEpoch = %d, want 1", got)
	}
}

func TestRedistributeStreamRoundRobinShares(t *testing.T) {
	const n, epochs, pe = 4, 3, 4
	streams, planEnds, peer := planStreams(n, epochs, pe)
	s := compileSpec(t, "crash:2@1")

	// Survivor rank 0 (ordinal 0) takes positions lo, lo+3, ...
	got0, ends0 := s.RedistributeStream(0, n, streams[0], planEnds, peer)
	want0 := append([]access.SampleID(nil), streams[0][0:4]...)
	want0 = append(want0, streams[0][4:8]...)
	want0 = append(want0, streams[2][4], streams[2][7])
	want0 = append(want0, streams[0][8:12]...)
	want0 = append(want0, streams[2][8], streams[2][11])
	if !reflect.DeepEqual(got0, want0) {
		t.Errorf("rank 0 stream = %v, want %v", got0, want0)
	}
	if want := []int{4, 10, 16}; !reflect.DeepEqual(ends0, want) {
		t.Errorf("rank 0 bounds = %v, want %v", ends0, want)
	}

	// Survivor rank 3 has ordinal 2 (rank 2 crashed below it).
	got3, _ := s.RedistributeStream(3, n, streams[3], planEnds, peer)
	want3 := append([]access.SampleID(nil), streams[3][0:4]...)
	want3 = append(want3, streams[3][4:8]...)
	want3 = append(want3, streams[2][6])
	want3 = append(want3, streams[3][8:12]...)
	want3 = append(want3, streams[2][10])
	if !reflect.DeepEqual(got3, want3) {
		t.Errorf("rank 3 stream = %v, want %v", got3, want3)
	}

	// The crashed rank delivers only its pre-crash prefix.
	got2, ends2 := s.RedistributeStream(2, n, streams[2], planEnds, peer)
	if !reflect.DeepEqual(got2, streams[2][0:4]) {
		t.Errorf("crashed rank stream = %v, want its epoch-0 prefix", got2)
	}
	if want := []int{4}; !reflect.DeepEqual(ends2, want) {
		t.Errorf("crashed rank bounds = %v, want %v", ends2, want)
	}
}

// TestSurvivorStreamsExactlyOnce is the conservation law the live engine is
// held to: under any crash schedule, the union of all ranks' redistributed
// streams delivers every non-orphaned plan entry exactly once — the crashed
// rank's pre-crash prefix included, its post-crash entries exactly once via
// the survivors' shares.
func TestSurvivorStreamsExactlyOnce(t *testing.T) {
	for _, spec := range []string{"crash:2@1", "crash:1@1,crash:3@2", "crash:0@2"} {
		const n, epochs, pe = 4, 3, 4
		streams, _, peer := planStreams(n, epochs, pe)
		s := compileSpec(t, spec)
		got, _ := s.SurvivorStreams(n, peer)
		counts := map[access.SampleID]int{}
		for _, rs := range got {
			for _, id := range rs {
				counts[id]++
			}
		}
		// Expected: every entry of every worker's plan stream, except the
		// post-crash entries of crashed workers are owed exactly once too
		// (they move to survivors), so the full union is all entries.
		want := map[access.SampleID]int{}
		for w := 0; w < n; w++ {
			for _, id := range streams[w] {
				want[id] = 1
			}
		}
		if !reflect.DeepEqual(counts, want) {
			for id, c := range counts {
				if want[id] != c {
					t.Errorf("%s: sample %d delivered %d times, want %d", spec, id, c, want[id])
				}
			}
			for id := range want {
				if _, ok := counts[id]; !ok {
					t.Errorf("%s: sample %d never delivered", spec, id)
				}
			}
		}
	}
}

// TestRedistributeUnevenPolicyStream pins that a stream is sliced at its own
// ends, however uneven: a policy stream of 10 entries whose epochs hold 4, 1
// and 5 keeps that structure, and the orphaned entries land after the epoch
// they belong to.
func TestRedistributeUnevenPolicyStream(t *testing.T) {
	const n, epochs, pe = 2, 3, 4
	streams, _, peer := planStreams(n, epochs, pe)
	s := compileSpec(t, "crash:1@2")
	policy := streams[0][:10]
	got, ends := s.RedistributeStream(0, n, policy, []int{4, 5, 10}, peer)
	want := append([]access.SampleID(nil), policy[0:4]...)
	want = append(want, policy[4:5]...)
	want = append(want, policy[5:10]...)
	want = append(want, streams[1][8:12]...) // sole survivor takes all of epoch 2
	if !reflect.DeepEqual(got, want) {
		t.Errorf("stream = %v, want %v", got, want)
	}
	if wantEnds := []int{4, 5, 14}; !reflect.DeepEqual(ends, wantEnds) {
		t.Errorf("bounds = %v, want %v", ends, wantEnds)
	}
	// A rank with nothing of its own (an elastic rank before it joins)
	// still takes its share of a crash.
	got, ends = s.RedistributeStream(0, n, nil, []int{0, 0, 0}, peer)
	if want := streams[1][8:12]; !reflect.DeepEqual(got, want) || !reflect.DeepEqual(ends, []int{0, 0, 4}) {
		t.Errorf("empty stream: got %v at %v, want %v at [0 0 4]", got, ends, want)
	}
}
