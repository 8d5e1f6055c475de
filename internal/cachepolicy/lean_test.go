package cachepolicy

import "testing"

// TestLeanMatchesFullBuilders: a build that tracks one rank must produce
// exactly the tracked subset of its full counterpart — identical local
// placements and fill orders for that rank, identical global best-holder
// pairs, identical per-worker cached-byte totals — across every builder
// family and for every rank tracked. A caller that evaluates one rank reads
// it through these views, so this equality is what makes tracking one rank
// a pure memory optimisation. The exported Lean wrappers are the rank-0
// builds.
func TestLeanMatchesFullBuilders(t *testing.T) {
	ds := fixedSizer{n: 300, size: 1 << 20}
	node := nodeWithMB(30, 50)
	plan := testPlan(300, 4, 6)
	streams := plan.AllWorkerStreams()
	order := plan.EpochOrder(0)

	families := []struct {
		name  string
		build func(track int) *Assignment
		lean  *Assignment
	}{
		{"nopfs", func(track int) *Assignment { return RankStreams(plan, streams, true).Fill(ds, node, track) }, BuildNoPFSLean(plan, streams, ds, node)},
		{"random", func(track int) *Assignment { return RankStreams(plan, streams, false).Fill(ds, node, track) }, nil},
		{"firsttouch", func(track int) *Assignment { return BuildFirstTouchFromOrder(plan, order, ds, node, track) }, BuildFirstTouchLean(plan, order, ds, node)},
		{"shard", func(track int) *Assignment { return BuildShard(300, 4, ds, node, track) }, BuildShardLean(300, 4, ds, node)},
		{"preload", func(track int) *Assignment { return BuildPreload(300, 4, ds, node, track) }, BuildPreloadLean(300, 4, ds, node)},
	}
	for _, p := range families {
		t.Run(p.name, func(t *testing.T) {
			full := p.build(-1)
			if p.lean != nil {
				if err := equalAssignments(int32(plan.F), p.lean, p.build(0)); err != nil {
					t.Errorf("Lean wrapper is not the rank-0 build: %v", err)
				}
			}
			for w := 0; w < plan.N; w++ {
				lean := p.build(w)
				// The tracked build is the full one with every other row dropped.
				tracked := *full
				tracked.FillOrder = make([][][]int32, full.N)
				tracked.FillOrder[w] = full.FillOrder[w]
				if err := equalAssignments(int32(plan.F), lean, &tracked); err != nil {
					t.Errorf("rank %d: %v", w, err)
				}
				// Untracked rows really are untracked: that is the memory saving.
				// One local row and the holder pair, four bytes a word here.
				if got, want := lean.words.tableBytes(), int64(3*4*plan.F); got != want {
					t.Errorf("rank %d: tracked build holds %d bytes of words, want %d", w, got, want)
				}
				if lean.ApproxBytes() >= full.ApproxBytes() {
					t.Errorf("rank %d: tracked build not smaller: %d vs %d bytes", w, lean.ApproxBytes(), full.ApproxBytes())
				}
			}
		})
	}
}
