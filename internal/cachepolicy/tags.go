package cachepolicy

import (
	"sync/atomic"

	"repro/internal/access"
)

// Source tags. Which copies of a sample exist when a worker reaches stream
// position f is a pure function of (placement, stream), so the simulator
// decodes the packed availability words once per (placement, stream) into one
// byte per position instead of once per fetch in every cell: the local class
// + 1 in the low nibble and the best remote holder's class + 1 in the high
// nibble, 0 meaning "no copy there yet".
const (
	// TagFree is the reserved tag of a fetch that costs nothing (the
	// simulator's lower-bound policy). No placement produces it: that would
	// take class index 14 on both sides, one past MaxTagClasses.
	TagFree = 0xff
	// MaxTagClasses is the deepest storage hierarchy a tag can describe.
	MaxTagClasses = 14
)

// tagBuildCount counts Tags calls since process start. It is a test probe,
// like RankCount: cells sharing a placement and stream share one tag stream,
// and a warm grid builds none.
var tagBuildCount atomic.Int64

// TagBuildCount returns the number of tag streams built so far.
func TagBuildCount() int64 { return tagBuildCount.Load() }

// Tags returns the source tag of every position of stream as worker w
// consumes it: LocalAvail in the low nibble and RemoteAvail's class in the
// high one, both at the position's own index. Prestaged placements are
// available at every position, so static shards need no rule of their own.
func (a *Assignment) Tags(w int, stream []access.SampleID) []byte {
	tagBuildCount.Add(1)
	return a.words.tags(w, stream)
}

func (t *packed[W]) tags(w int, stream []access.SampleID) []byte {
	local := t.rows[w]
	tags := make([]byte, len(stream))
	for f, k := range stream {
		pos := int32(f)
		lc := -1
		if v := local[k]; v != 0 && t.existsBy(v, pos) {
			lc = t.class(v)
		}
		rc, _ := t.holder(t.best1[k], w, pos)
		if rc < 0 {
			rc, _ = t.holder(t.best2[k], w, pos)
		}
		tags[f] = byte(lc+1) | byte(rc+1)<<4
	}
	return tags
}
