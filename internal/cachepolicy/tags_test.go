package cachepolicy

import "testing"

// TestTagsMatchAvailability: a tag is LocalAvail and RemoteAvail at the
// position's own index, packed into two nibbles — for copies made during
// training (gated on progress) and for prestaged shards (always there), for
// every worker of a full build. Under a gone predicate, a position whose
// RemoteAvail holder is gone has no remote nibble, even where another
// holder has a copy.
func TestTagsMatchAvailability(t *testing.T) {
	plan := testPlan(600, 3, 4)
	ds := fixedSizer{n: plan.F, size: 1 << 20}
	node := nodeWithMB(100, 150) // RAM + SSD hold part of the dataset; the rest stays on the PFS
	streams := plan.AllWorkerStreams()
	for name, a := range map[string]*Assignment{
		"nopfs": BuildNoPFSFromStreams(plan, streams, ds, node),
		"shard": BuildShard(plan.F, plan.N, ds, node, -1),
	} {
		seen, cleared := map[byte]bool{}, 0
		for w, stream := range streams {
			// Worker 1 is gone from the middle of every stream on.
			gone := func(h, pos int) bool { return h == 1 && pos >= len(stream)/2 }
			tags, crashed := a.Tags(w, stream, nil), a.Tags(w, stream, gone)
			if len(tags) != len(stream) || len(crashed) != len(stream) {
				t.Fatalf("%s: %d and %d tags for %d positions", name, len(tags), len(crashed), len(stream))
			}
			for f, k := range stream {
				lc := a.LocalAvail(w, k, int32(f))
				rc, h := a.RemoteAvail(w, k, int32(f))
				if want := byte(lc+1) | byte(rc+1)<<4; tags[f] != want {
					t.Fatalf("%s: worker %d position %d: tag %#02x, want %#02x (local %d, remote %d)", name, w, f, tags[f], want, lc, rc)
				}
				if rc >= 0 && gone(h, f) {
					rc, cleared = -1, cleared+1
				}
				if want := byte(lc+1) | byte(rc+1)<<4; crashed[f] != want {
					t.Fatalf("%s: worker %d position %d with worker 1 gone: tag %#02x, want %#02x", name, w, f, crashed[f], want)
				}
				seen[tags[f]] = true
			}
		}
		if len(seen) < 4 {
			t.Errorf("%s: only %d distinct tags occur — the fixture no longer mixes local, remote and PFS", name, len(seen))
		}
		if cleared == 0 {
			t.Errorf("%s: no promise of worker 1 was cleared", name)
		}
	}
}
