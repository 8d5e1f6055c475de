package cachepolicy

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/access"
	"repro/internal/dataset"
	"repro/internal/hwspec"
	"repro/internal/prng"
)

// referenceBuild is the comparison-sort placement the counting-sort ranking
// replaced, kept as the property test's oracle: candidates sorted by
// (freq desc, firstPos asc) — or firstPos alone when ignoreFreq — filled
// greedily, then every fill list sorted by first access.
func referenceBuild(plan *access.Plan, streams [][]access.SampleID, ds Sizer, node hwspec.Node, ignoreFreq, lean bool) *Assignment {
	a := newAssignment(plan.N, plan.F, len(node.Classes), plan.E*plan.F, lean, false)
	for w := 0; w < plan.N; w++ {
		freq := map[int32]int{}
		firstPos := map[int32]int32{}
		var cand []int32
		for pos, k := range streams[w] {
			if freq[k] == 0 {
				firstPos[k] = int32(pos)
				cand = append(cand, k)
			}
			freq[k]++
		}
		byFirst := func(x, y int32) int { return int(firstPos[x]) - int(firstPos[y]) }
		slices.SortFunc(cand, func(x, y int32) int {
			if !ignoreFreq && freq[x] != freq[y] {
				return freq[y] - freq[x]
			}
			return byFirst(x, y)
		})
		remaining := classCaps(node)
		for _, k := range cand {
			sz := ds.Size(int(k))
			for c := range remaining {
				if remaining[c] >= sz {
					remaining[c] -= sz
					a.words.place(w, k, int8(c), sz, firstPos[k])
					break
				}
			}
		}
		for _, list := range a.FillOrder[w] {
			slices.SortFunc(list, byFirst)
		}
	}
	return a
}

// holder is one decoded best-holder slot.
type holder struct {
	class, worker int
	pos           int32
}

// holderPair recovers sample k's best-two holder slots through the
// accessors alone: RemoteBest names slot 1 (asked by nobody) and slot 2
// (asked by slot 1's worker), and a slot's availability position is one
// below the first asker position at which RemoteAvail admits it.
func holderPair(a *Assignment, k int32) (pair [2]holder) {
	asker := -1
	for i := range pair {
		c, w := a.RemoteBest(asker, k)
		pair[i] = holder{class: c, worker: w}
		if c < 0 {
			pair[1] = pair[i]
			break
		}
		pair[i].pos = int32(sort.Search(math.MaxInt32, func(pos int) bool {
			gc, gw := a.RemoteAvail(asker, k, int32(pos))
			return gc == c && gw == w
		})) - 1
		asker = w
	}
	return pair
}

// equalAssignments compares everything a consumer can observe: which rows
// are tracked, the local placements and holder slots of samples [0, f), fill
// orders and cached bytes.
func equalAssignments(f int32, got, want *Assignment) error {
	if got.N != want.N || got.Lean() != want.Lean() {
		return fmt.Errorf("N, Lean: %d %v vs %d %v", got.N, got.Lean(), want.N, want.Lean())
	}
	for w := 0; w < want.N; w++ {
		if len(got.FillOrder[w]) != len(want.FillOrder[w]) {
			return fmt.Errorf("FillOrder[%d]: %d classes vs %d", w, len(got.FillOrder[w]), len(want.FillOrder[w]))
		}
		for c := range want.FillOrder[w] {
			if !slices.Equal(got.FillOrder[w][c], want.FillOrder[w][c]) {
				return fmt.Errorf("FillOrder[%d][%d]: %v vs %v", w, c, got.FillOrder[w][c], want.FillOrder[w][c])
			}
		}
		if want.FillOrder[w] == nil {
			continue // untracked
		}
		for k := int32(0); k < f; k++ {
			if gc, wc := got.Local(w, k), want.Local(w, k); gc != wc || wc >= 0 && got.LocalPos(w, k) != want.LocalPos(w, k) {
				return fmt.Errorf("local[%d][%d]: class %d pos %d vs class %d pos %d", w, k, gc, got.LocalPos(w, k), wc, want.LocalPos(w, k))
			}
		}
	}
	for k := int32(0); k < f; k++ {
		if g, w := holderPair(got, k), holderPair(want, k); g != w {
			return fmt.Errorf("holders of %d: %+v vs %+v", k, g, w)
		}
	}
	if !slices.Equal(got.CachedBytes, want.CachedBytes) {
		return fmt.Errorf("CachedBytes: %v vs %v", got.CachedBytes, want.CachedBytes)
	}
	return nil
}

// TestRankThenFillMatchesReferenceSort pins the linear-time placement
// against the comparator sort on random plans under every access-pattern
// preset — zipf draws with replacement (frequencies above E), elastic ranks
// with empty or shortened streams, mixtures, curricula — for both families
// and both layouts, on variable-size datasets and nodes small enough that
// every class overflows.
func TestRankThenFillMatchesReferenceSort(t *testing.T) {
	specs := []string{""}
	for _, pat := range access.Presets() {
		specs = append(specs, pat.Spec())
	}
	g := prng.New(20260927)
	for trial := 0; trial < 6; trial++ {
		f := 40 + g.Intn(400)
		plan := access.Plan{
			Seed: g.Uint64(), F: f, N: 3 + g.Intn(6), E: 3 + g.Intn(6),
			BatchPerWorker: 1 + g.Intn(8), DropLast: g.Intn(2) == 0,
		}
		ds := dataset.MustNew(dataset.Spec{
			Name: "rank", F: f, MeanSize: 1 << 20, StddevSize: 400 << 10, Classes: 3, Seed: g.Uint64(),
		})
		// Per-worker share of the dataset is ~F/N MB per epoch.
		share := float64(f) / float64(plan.N)
		nodes := []hwspec.Node{
			nodeWithMB(share/4, share/2),
			nodeWithMB(share, 0),
			nodeWithMB(4*float64(f), 0), // everything fits
		}
		// A rank that joins after the last epoch never runs: an empty stream.
		idle := fmt.Sprintf("elastic:join=1@%d", plan.E)
		for _, spec := range append(specs[:len(specs):len(specs)], idle) {
			plan.Access = spec
			if err := plan.Validate(); err != nil {
				t.Fatalf("trial %d %q: %v", trial, spec, err)
			}
			streams := plan.AllWorkerStreams()
			for _, byFreq := range []bool{true, false} {
				rank := RankStreams(&plan, streams, byFreq)
				for ni, node := range nodes {
					for _, lean := range []bool{true, false} {
						want := referenceBuild(&plan, streams, ds, node, !byFreq, lean)
						if err := equalAssignments(int32(f), rank.Fill(ds, node, lean), want); err != nil {
							t.Fatalf("trial %d plan %+v node %d byFreq=%v lean=%v: %v", trial, plan, ni, byFreq, lean, err)
						}
					}
				}
			}
		}
	}
}

// TestFillStopsWhenFullIsExact: Fill leaves a worker's candidates once no
// class has room for the dataset's smallest sample; the unabridged loop of
// referenceBuild, which tries every candidate, places the same samples —
// with many samples exactly the minimum size, a few far larger, and
// capacities from nothing to more than the dataset.
func TestFillStopsWhenFullIsExact(t *testing.T) {
	g := prng.New(6)
	for trial := 0; trial < 40; trial++ {
		f := 40 + g.Intn(200)
		plan := access.Plan{Seed: g.Uint64(), F: f, N: 1 + g.Intn(5), E: 1 + g.Intn(4), BatchPerWorker: 1 + g.Intn(4)}
		sizes := make(sizeTable, f)
		for k := range sizes {
			switch g.Intn(4) {
			case 0, 1:
				sizes[k] = 100 // the minimum
			case 2:
				sizes[k] = 100 + int64(g.Intn(50))
			default:
				sizes[k] = 1000 + int64(g.Intn(4000))
			}
		}
		var total int64
		for _, sz := range sizes {
			total += sz
		}
		capOf := func() float64 {
			return float64([]int64{0, 99, 100, 250, total / int64(4*plan.N), total / int64(plan.N), 2 * total}[g.Intn(7)]) / bytesPerMB
		}
		node := nodeWithMB(capOf(), capOf())
		streams := plan.AllWorkerStreams()
		for _, byFreq := range []bool{true, false} {
			got := RankStreams(&plan, streams, byFreq).Fill(sizes, node, false)
			if err := equalAssignments(int32(f), got, referenceBuild(&plan, streams, sizes, node, !byFreq, false)); err != nil {
				t.Fatalf("trial %d plan %+v node %+v byFreq=%v: %v", trial, plan, node.Classes, byFreq, err)
			}
		}
	}
}

// sizeTable is a Sizer over explicit sample sizes.
type sizeTable []int64

func (s sizeTable) Len() int         { return len(s) }
func (s sizeTable) Size(k int) int64 { return s[k] }

// TestBuildWrappersRankThenFill: the exported builders are exactly
// rank-then-fill, one ranking per call.
func TestBuildWrappersRankThenFill(t *testing.T) {
	plan := testPlan(300, 4, 6)
	ds := fixedSizer{n: 300, size: 1 << 20}
	node := nodeWithMB(30, 50)
	streams := plan.AllWorkerStreams()
	builders := []struct {
		name         string
		build        func(*access.Plan, [][]access.SampleID, Sizer, hwspec.Node) *Assignment
		byFreq, lean bool
	}{
		{"BuildNoPFSFromStreams", BuildNoPFSFromStreams, true, false},
		{"BuildNoPFSLean", BuildNoPFSLean, true, true},
		{"BuildRandomFromStreams", BuildRandomFromStreams, false, false},
		{"BuildRandomLean", BuildRandomLean, false, true},
	}
	for _, b := range builders {
		before := RankCount()
		got := b.build(plan, streams, ds, node)
		if n := RankCount() - before; n != 1 {
			t.Errorf("%s ranked %d times, want 1", b.name, n)
		}
		if err := equalAssignments(int32(plan.F), got, referenceBuild(plan, streams, ds, node, !b.byFreq, b.lean)); err != nil {
			t.Errorf("%s: %v", b.name, err)
		}
	}
}

// TestRankApproxBytes: the ranking costs 4 bytes per (worker, distinct
// sample), half the 8-byte budget it was sized at.
func TestRankApproxBytes(t *testing.T) {
	plan := testPlan(200, 4, 5)
	streams := plan.AllWorkerStreams()
	var distinct int64
	for _, s := range streams {
		seen := map[int32]bool{}
		for _, k := range s {
			seen[k] = true
		}
		distinct += int64(len(seen))
	}
	for _, byFreq := range []bool{true, false} {
		if got := RankStreams(plan, streams, byFreq).ApproxBytes(); got != 4*distinct {
			t.Errorf("byFreq=%v: ApproxBytes = %d, want %d", byFreq, got, 4*distinct)
		}
	}
}
