package cachepolicy

import (
	"fmt"
	"slices"
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
	a := newAssignment(plan.N, plan.F, len(node.Classes), lean)
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
					a.place(w, k, int8(c), sz, firstPos[k])
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

// equalAssignments compares everything a consumer can observe: local words,
// holder words, fill orders and cached bytes.
func equalAssignments(got, want *Assignment) error {
	if got.N != want.N {
		return fmt.Errorf("N: %d vs %d", got.N, want.N)
	}
	for w := 0; w < want.N; w++ {
		if (got.local[w] == nil) != (want.local[w] == nil) {
			return fmt.Errorf("worker %d: tracked %v vs %v", w, got.local[w] != nil, want.local[w] != nil)
		}
		if err := equalWords(fmt.Sprintf("local[%d]", w), got.local[w], want.local[w]); err != nil {
			return err
		}
		if len(got.FillOrder[w]) != len(want.FillOrder[w]) {
			return fmt.Errorf("FillOrder[%d]: %d classes vs %d", w, len(got.FillOrder[w]), len(want.FillOrder[w]))
		}
		for c := range want.FillOrder[w] {
			if !slices.Equal(got.FillOrder[w][c], want.FillOrder[w][c]) {
				return fmt.Errorf("FillOrder[%d][%d]: %v vs %v", w, c, got.FillOrder[w][c], want.FillOrder[w][c])
			}
		}
	}
	if err := equalWords("best1", got.best1, want.best1); err != nil {
		return err
	}
	if err := equalWords("best2", got.best2, want.best2); err != nil {
		return err
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
						if err := equalAssignments(rank.Fill(ds, node, lean), want); err != nil {
							t.Fatalf("trial %d plan %+v node %d byFreq=%v lean=%v: %v", trial, plan, ni, byFreq, lean, err)
						}
					}
				}
			}
		}
	}
}

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
		if err := equalAssignments(got, referenceBuild(plan, streams, ds, node, !b.byFreq, b.lean)); err != nil {
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
