package cachepolicy

import "repro/internal/access"

// Source tags. Which copies of a sample exist when a worker reaches stream
// position f is a pure function of (placement, stream, crash schedule), so
// the simulator decodes the packed availability words once per (placement,
// stream) into one byte per position instead of once per fetch in every
// cell: the local class + 1 in the low nibble and the best remote holder's
// class + 1 in the high nibble, 0 meaning "no copy there yet". The live job
// reads the same tags for its rank's delivery stream.
//
// MaxTagClasses is the deepest storage hierarchy a tag can describe.
const MaxTagClasses = 15

// Tags returns the source tag of every position of stream as worker w
// consumes it: LocalAvail in the low nibble and RemoteAvail's class in the
// high one, both at the position's own index. Prestaged placements are
// available at every position, so static shards need no rule of their own.
// Under a crash schedule, gone(h, pos) reports whether holder h has crashed
// by position pos, whose remote nibble is then 0 if RemoteAvail names h (the
// next-best holder does not stand in); fault-free callers pass nil.
func (a *Assignment) Tags(w int, stream []access.SampleID, gone func(h, pos int) bool) []byte {
	return a.words.tags(w, stream, gone)
}

func (t *packed[W]) tags(w int, stream []access.SampleID, gone func(h, pos int) bool) []byte {
	local := t.rows[w]
	tags := make([]byte, len(stream))
	for f, k := range stream {
		pos := int32(f)
		lc := -1
		if v := local[k]; v != 0 && t.existsBy(v, pos) {
			lc = t.class(v)
		}
		rc, hw := t.holder(t.best1[k], w, pos)
		if rc < 0 {
			rc, hw = t.holder(t.best2[k], w, pos)
		}
		if rc >= 0 && gone != nil && gone(hw, f) {
			rc = -1
		}
		tags[f] = byte(lc+1) | byte(rc+1)<<4
	}
	return tags
}
