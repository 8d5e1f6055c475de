package cachepolicy

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"repro/internal/access"
	"repro/internal/dataset"
	"repro/internal/hwspec"
	"repro/internal/prng"
)

// isWide reports which instantiation backs the assignment.
func isWide(a *Assignment) bool {
	_, wide := a.words.(*packed[uint64])
	return wide
}

// nodeWithClasses builds a node of n equal storage classes.
func nodeWithClasses(n int, capMB float64) hwspec.Node {
	node := hwspec.Node{}
	for c := 0; c < n; c++ {
		node.Classes = append(node.Classes, hwspec.StorageClass{Name: fmt.Sprint("c", c), CapacityMB: capMB, Threads: 1})
	}
	return node
}

// TestWidthsAgree: the 32-bit and the forced 64-bit instantiation of every
// builder answer every query alike — on random small plans (uniform and
// elastic), variable sample sizes, and capacities from nothing to more than
// the dataset.
func TestWidthsAgree(t *testing.T) {
	g := prng.New(20261003)
	for trial := 0; trial < 12; trial++ {
		f := 30 + g.Intn(300)
		plan := &access.Plan{
			Seed: g.Uint64(), F: f, N: 1 + g.Intn(6), E: 1 + g.Intn(5),
			BatchPerWorker: 1 + g.Intn(4), DropLast: g.Intn(2) == 0,
		}
		if plan.N > 2 && trial%3 == 0 {
			plan.Access = "elastic:join=1@1"
		}
		if err := plan.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		ds := dataset.MustNew(dataset.Spec{
			Name: "width", F: f, MeanSize: 1 << 20, StddevSize: 300 << 10, Classes: 3, Seed: g.Uint64(),
		})
		node := nodeWithMB(float64(f)*[]float64{0, 0.05, 0.2, 1.5}[g.Intn(4)], float64(f)*[]float64{0, 0.1, 0.5}[g.Intn(3)])
		streams := plan.AllWorkerStreams()
		order := plan.EpochOrder(0)
		for _, lean := range []bool{false, true} {
			builders := map[string]func(wide bool) *Assignment{
				"nopfs":      func(wide bool) *Assignment { return RankStreams(plan, streams, true).fill(ds, node, lean, wide) },
				"random":     func(wide bool) *Assignment { return RankStreams(plan, streams, false).fill(ds, node, lean, wide) },
				"firsttouch": func(wide bool) *Assignment { return buildFirstTouch(plan, order, ds, node, lean, wide) },
				"shard":      func(wide bool) *Assignment { return buildShard(f, plan.N, ds, node, lean, wide) },
				"preload":    func(wide bool) *Assignment { return buildPreload(f, plan.N, ds, node, lean, wide) },
			}
			for name, build := range builders {
				narrow, wide := build(false), build(true)
				if isWide(narrow) || !isWide(wide) {
					t.Fatalf("trial %d %s: widths %v/%v, want narrow/wide", trial, name, isWide(narrow), isWide(wide))
				}
				if err := sameAnswers(plan, streams, ds, narrow, wide); err != nil {
					t.Fatalf("trial %d %s lean=%v plan %+v: %v", trial, name, lean, *plan, err)
				}
			}
		}
	}
}

// sameAnswers compares two assignments through every query the package
// offers, at every stream position and one past the end.
func sameAnswers(plan *access.Plan, streams [][]access.SampleID, ds Sizer, a, b *Assignment) error {
	if err := equalAssignments(int32(plan.F), a, b); err != nil {
		return err
	}
	if a.Coverage(ds) != b.Coverage(ds) {
		return fmt.Errorf("Coverage: %v vs %v", a.Coverage(ds), b.Coverage(ds))
	}
	for w, stream := range streams {
		for k := int32(0); int(k) < plan.F; k++ {
			if a.CachedAnywhere(k) != b.CachedAnywhere(k) {
				return fmt.Errorf("CachedAnywhere(%d)", k)
			}
			for _, pos := range []int32{AlwaysAvail, 0, int32(len(stream) / 2), int32(len(stream))} {
				ac, aw := a.RemoteAvail(w, k, pos)
				bc, bw := b.RemoteAvail(w, k, pos)
				if ac != bc || aw != bw {
					return fmt.Errorf("RemoteAvail(%d, %d, %d): (%d, %d) vs (%d, %d)", w, k, pos, ac, aw, bc, bw)
				}
				if a.FillOrder[w] != nil && a.LocalAvail(w, k, pos) != b.LocalAvail(w, k, pos) {
					return fmt.Errorf("LocalAvail(%d, %d, %d): %d vs %d", w, k, pos, a.LocalAvail(w, k, pos), b.LocalAvail(w, k, pos))
				}
			}
		}
		if a.FillOrder[w] != nil && !bytes.Equal(a.Tags(w, stream), b.Tags(w, stream)) {
			return fmt.Errorf("Tags of worker %d differ", w)
		}
	}
	return nil
}

// TestWidthBoundaries pins the bit-count rule at its edges: 32 bits of
// fields stay narrow and 33 go wide, a lone worker spends no bits on ranks,
// fifteen classes fit four bits, and a prestaged copy outranks one made at
// stream position 0 in both widths.
func TestWidthBoundaries(t *testing.T) {
	// class+1 ≤ 3 takes 2 bits and ranks 0..7 take 3, leaving 27 for the
	// biased position: maxPos+2 = 2^27-1 fits, 2^27 does not.
	for _, tc := range []struct {
		n, classes, maxPos int
		wide               bool
	}{
		{8, 3, 1<<27 - 3, false},
		{8, 3, 1<<27 - 2, true},
		{9, 3, 1<<27 - 3, true},  // a ninth rank is a fourth bit
		{8, 4, 1<<27 - 3, true},  // class+1 = 4 is a third bit
		{1, 3, 1<<30 - 3, false}, // N = 1: 2 + 30 + 0
		{1, 15, 1<<28 - 3, false},
		{1, 15, 1<<28 - 2, true},
		{1 << 16, 1, int(AlwaysAvail), false}, // a one-class shard: 1 + 1 + 16
	} {
		a := newAssignment(tc.n, 4, tc.classes, tc.maxPos, true, false)
		if isWide(a) != tc.wide {
			t.Errorf("N=%d classes=%d maxPos=%d: wide=%v, want %v", tc.n, tc.classes, tc.maxPos, isWide(a), tc.wide)
		}
		if tc.maxPos < 0 {
			continue
		}
		// The extreme values of every field survive the round trip, and an
		// earlier copy in the same class takes the first slot.
		top, last := int8(tc.classes-1), tc.n-1
		a.words.place(0, 1, top, 10, AlwaysAvail)
		a.words.place(0, 2, 0, 10, int32(tc.maxPos))
		want := [2]holder{{int(top), 0, AlwaysAvail}, {class: -1, worker: -1}}
		if last > 0 {
			a.words.place(last, 1, top, 10, int32(tc.maxPos))
			want[1] = holder{int(top), last, int32(tc.maxPos)}
		}
		if got := holderPair(a, 1); got != want {
			t.Errorf("%+v: holders of sample 1 = %+v, want %+v", tc, got, want)
		}
		if a.Local(0, 1) != int(top) || a.LocalPos(0, 1) != AlwaysAvail || a.Local(0, 2) != 0 || a.LocalPos(0, 2) != int32(tc.maxPos) || a.Local(0, 3) != -1 {
			t.Errorf("%+v: local round trip failed", tc)
		}
	}

	// AlwaysAvail sorts before position 0, and a faster class before both.
	for _, wide := range []bool{false, true} {
		a := newAssignment(4, 1, 2, 5, false, wide)
		a.words.place(1, 0, 1, 1, 0)
		a.words.place(2, 0, 1, 1, AlwaysAvail)
		if got := holderPair(a, 0); got != [2]holder{{1, 2, AlwaysAvail}, {1, 1, 0}} {
			t.Errorf("wide=%v: prestaged copy does not outrank position 0: %+v", wide, got)
		}
		a.words.place(3, 0, 0, 1, 5)
		if got := holderPair(a, 0); got != [2]holder{{0, 3, 5}, {1, 2, AlwaysAvail}} {
			t.Errorf("wide=%v: faster class does not outrank earlier copy: %+v", wide, got)
		}
		if c, _ := a.RemoteAvail(0, 0, 5); c != 1 {
			t.Errorf("wide=%v: RemoteAvail at 5 = class %d, want the prestaged class-1 copy", wide, c)
		}
		if c, w := a.RemoteAvail(0, 0, 6); c != 0 || w != 3 {
			t.Errorf("wide=%v: RemoteAvail at 6 = (%d, %d), want (0, 3)", wide, c, w)
		}
	}

	// A 15-class node is one class deeper than tags describe (MaxTagClasses);
	// the placement itself is exact down to the last class.
	ds := fixedSizer{n: 30, size: 1 << 20}
	a := BuildShard(30, 1, ds, nodeWithClasses(15, 2))
	if isWide(a) || a.Local(0, 29) != 14 || a.Local(0, 0) != 0 || !slices.Equal(a.FillOrder[0][14], []int32{28, 29}) {
		t.Errorf("15-class shard: wide=%v Local(29)=%d FillOrder[14]=%v", isWide(a), a.Local(0, 29), a.FillOrder[0][14])
	}
}

// TestPlacementBytesPerSample pins the point of the narrow layout at the
// Fig. 9 study's shape (ImageNet-22k at scale 0.01: 142 k samples, 4 workers,
// 5 epochs, a node that holds a fifth of the dataset): a lean placement costs
// three 4-byte words per sample plus worker 0's fill list, under 13 bytes —
// and twice the words when forced wide.
func TestPlacementBytesPerSample(t *testing.T) {
	const f = 141971
	plan := &access.Plan{Seed: 21, F: f, N: 4, E: 5, BatchPerWorker: 32, DropLast: true}
	ds := fixedSizer{n: f, size: 1 << 20}
	rank := RankStreams(plan, plan.AllWorkerStreams(), true)
	for _, tc := range []struct {
		wide     bool
		min, max float64
	}{{false, 12, 13}, {true, 24, 25}} {
		a := rank.fill(ds, nodeWithMB(f/10, f/10), true, tc.wide)
		per := float64(a.ApproxBytes()) / f
		if isWide(a) != tc.wide || per < tc.min || per > tc.max {
			t.Errorf("wide=%v: %.2f bytes per sample (wide=%v), want %v–%v", tc.wide, per, isWide(a), tc.min, tc.max)
		}
	}
}
