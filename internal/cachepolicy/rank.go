package cachepolicy

import (
	"math"
	"slices"

	"repro/internal/access"
	"repro/internal/hwspec"
)

// Rank is the plan-only half of the Sec. 5.1 placement: for every worker,
// the distinct samples it accesses in the order the greedy fill considers
// them. It depends on the seed alone — not on sample sizes or the storage
// hierarchy — so one Rank serves every node spec evaluated on a plan (see
// Fill). Immutable once built.
type Rank struct {
	f       int
	streams [][]access.SampleID
	longest int // length of the longest stream
	// rows[w] lists, in rank order, the first stream position of each
	// distinct sample worker w accesses; the sample is streams[w][position].
	// 4 bytes per (worker, distinct sample), totalled in bytes.
	rows  [][]int32
	bytes int64
}

// RankStreams ranks every worker's candidates from the materialised streams
// (retained, not copied). With byFreq, most frequently accessed first and,
// among equals, the sample needed soonest; without it (the random-placement
// ablation), plain first-access order.
//
// Candidates are collected at their first occurrence, so they are already in
// first-position order — the tie-break — and a stable counting sort on the
// frequency gives exactly (freq desc, firstPos asc) in O(stream): the order
// is total, so this is the list any comparison sort would produce.
func RankStreams(plan *access.Plan, streams [][]access.SampleID, byFreq bool) *Rank {
	r := &Rank{f: plan.F, streams: streams[:plan.N], rows: make([][]int32, plan.N)}
	// Scratch shared by all workers. freq is all-zero between workers: only
	// the entries a worker touched are reset.
	freq := make([]int32, plan.F)
	var first, starts []int32

	for w, stream := range r.streams {
		first = slices.Grow(first[:0], len(stream)) // first positions, ascending
		r.longest = max(r.longest, len(stream))
		maxF := int32(0)
		for p, k := range stream {
			if freq[k] == 0 {
				first = append(first, int32(p))
			}
			freq[k]++
			maxF = max(maxF, freq[k])
		}
		row := make([]int32, len(first))
		r.rows[w] = row
		r.bytes += 4 * int64(len(row))
		if !byFreq {
			copy(row, first)
			for _, p := range row {
				freq[stream[p]] = 0
			}
			continue
		}
		// starts[f] counts, then becomes the output offset of, frequency f;
		// the highest frequency starts at 0.
		starts = append(starts[:0], make([]int32, maxF+1)...)
		for _, p := range first {
			starts[freq[stream[p]]]++
		}
		at := int32(0)
		for f := maxF; f > 0; f-- {
			at, starts[f] = at+starts[f], at
		}
		for _, p := range first {
			k := stream[p]
			row[starts[freq[k]]] = p
			starts[freq[k]]++
			freq[k] = 0
		}
	}
	return r
}

// ApproxBytes is the memory the ranking holds beyond the streams it shares.
func (r *Rank) ApproxBytes() int64 { return r.bytes }

// Fill is the node-specific half of the placement: each worker's ranked
// candidates go to its classes fastest-first until capacity runs out; a
// sample too large for the remaining space of one class falls through to the
// next. It keeps the local tables of rank track only, or of every rank when
// track < 0.
func (r *Rank) Fill(ds Sizer, node hwspec.Node, track int) *Assignment {
	return r.fill(ds, node, track, false)
}

func (r *Rank) fill(ds Sizer, node hwspec.Node, track int, wide bool) *Assignment {
	a := newAssignment(len(r.rows), r.f, len(node.Classes), r.longest-1, track, wide)
	a.words.fill(r, ds, classCaps(node))
	return a
}

func (t *packed[W]) fill(r *Rank, ds Sizer, caps []int64) {
	// No class with less room than the smallest sample can take another
	// candidate: once none has more, the rest of the worker's row is moot.
	minSize := int64(math.MaxInt64)
	for k := 0; k < r.f; k++ {
		minSize = min(minSize, ds.Size(k))
	}
	remaining := make([]int64, len(caps))
	for w, row := range r.rows {
		stream, open := r.streams[w], 0
		for c, room := range caps {
			remaining[c] = room
			if room >= minSize {
				open++
			}
		}
		for _, p := range row {
			if open == 0 {
				break
			}
			k := stream[p]
			sz := ds.Size(int(k))
			for c := range remaining {
				if remaining[c] >= sz {
					remaining[c] -= sz
					if remaining[c] < minSize {
						open--
					}
					t.place(w, k, int8(c), sz, p)
					break
				}
			}
		}
		// place appended the fill lists in rank order; the prefetchers load
		// soonest-needed samples first (Rule 1). A placed sample's word
		// carries its first position, so one pass over the stream rewrites
		// each list, in place, in first-access order.
		local := t.rows[w]
		if local == nil {
			continue
		}
		fill := t.a.FillOrder[w]
		for c := range fill {
			fill[c] = fill[c][:0]
		}
		for p, k := range stream {
			if v := local[k]; v != 0 && t.pos(v) == int32(p) {
				fill[t.class(v)] = append(fill[t.class(v)], k)
			}
		}
	}
}
