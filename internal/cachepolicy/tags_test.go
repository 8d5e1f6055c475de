package cachepolicy

import "testing"

// TestTagsMatchAvailability: a tag is LocalAvail and RemoteAvail at the
// position's own index, packed into two nibbles — for copies made during
// training (gated on progress) and for prestaged shards (always there), for
// every worker of a full build.
func TestTagsMatchAvailability(t *testing.T) {
	plan := testPlan(600, 3, 4)
	ds := fixedSizer{n: plan.F, size: 1 << 20}
	node := nodeWithMB(100, 150) // RAM + SSD hold part of the dataset; the rest stays on the PFS
	streams := plan.AllWorkerStreams()
	for name, a := range map[string]*Assignment{
		"nopfs": BuildNoPFSFromStreams(plan, streams, ds, node),
		"shard": BuildShard(plan.F, plan.N, ds, node),
	} {
		seen := map[byte]bool{}
		for w, stream := range streams {
			tags := a.Tags(w, stream)
			if len(tags) != len(stream) {
				t.Fatalf("%s: %d tags for %d positions", name, len(tags), len(stream))
			}
			for f, k := range stream {
				lc := a.LocalAvail(w, k, int32(f))
				rc, _ := a.RemoteAvail(w, k, int32(f))
				if want := byte(lc+1) | byte(rc+1)<<4; tags[f] != want {
					t.Fatalf("%s: worker %d position %d: tag %#02x, want %#02x (local %d, remote %d)", name, w, f, tags[f], want, lc, rc)
				}
				seen[tags[f]] = true
			}
		}
		if len(seen) < 4 {
			t.Errorf("%s: only %d distinct tags occur — the fixture no longer mixes local, remote and PFS", name, len(seen))
		}
	}
}
