package cachepolicy

import "testing"

// TestLeanMatchesFullBuilders: every Lean builder must produce exactly the
// tracked subset of its full counterpart — identical worker-0 local
// placements and fill orders, identical global best-holder pairs, identical
// per-worker cached-byte totals — across every builder family. The simulator
// observes worker 0 through these views, so this equality is what makes lean
// assignments a pure memory optimisation.
func TestLeanMatchesFullBuilders(t *testing.T) {
	ds := fixedSizer{n: 300, size: 1 << 20}
	node := nodeWithMB(30, 50)
	plan := testPlan(300, 4, 6)
	streams := plan.AllWorkerStreams()
	order := plan.EpochOrder(0)

	pairs := []struct {
		name       string
		full, lean *Assignment
	}{
		{"nopfs", BuildNoPFSFromStreams(plan, streams, ds, node), BuildNoPFSLean(plan, streams, ds, node)},
		{"random", RankStreams(plan, streams, false).Fill(ds, node, false), RankStreams(plan, streams, false).Fill(ds, node, true)},
		{"firsttouch", BuildFirstTouchFromOrder(plan, order, ds, node), BuildFirstTouchLean(plan, order, ds, node)},
		{"shard", BuildShard(300, 4, ds, node), BuildShardLean(300, 4, ds, node)},
		{"preload", BuildPreload(300, 4, ds, node), BuildPreloadLean(300, 4, ds, node)},
	}
	for _, p := range pairs {
		t.Run(p.name, func(t *testing.T) {
			if p.lean.Lean() == p.full.Lean() {
				t.Fatalf("Lean() = %v for both builds", p.full.Lean())
			}
			// The lean build is the full one with rows 1..N-1 dropped.
			tracked := *p.full
			tracked.FillOrder = append([][][]int32{p.full.FillOrder[0]}, make([][][]int32, p.full.N-1)...)
			if err := equalAssignments(int32(plan.F), p.lean, &tracked); err != nil {
				t.Error(err)
			}
			// Untracked rows really are untracked: that is the memory saving.
			// One local row and the holder pair, four bytes a word here.
			if got, want := p.lean.words.tableBytes(), int64(3*4*plan.F); got != want {
				t.Errorf("lean build holds %d bytes of words, want %d", got, want)
			}
			if p.lean.ApproxBytes() >= p.full.ApproxBytes() {
				t.Errorf("lean build not smaller: %d vs %d bytes", p.lean.ApproxBytes(), p.full.ApproxBytes())
			}
		})
	}
}
