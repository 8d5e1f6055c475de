// Package cachepolicy computes which samples each worker caches in which
// storage class.
//
// The NoPFS assignment implements paper Sec. 5.1: each worker ranks samples
// by its own access frequency r_k (computed clairvoyantly from the seed) and
// greedily assigns the most frequently accessed samples to its fastest
// storage class, spilling to slower classes until either the whole dataset
// is cached or local capacity is exhausted. Lemma 1 guarantees that samples
// a worker rarely touches are frequently touched — and therefore cached — by
// some other worker, which is what makes the distributed cache effective.
//
// Baseline placements (first-touch caching as used by the LBANN data store
// and DeepIO, static sharding as used by ParallelStaging and LocalityAware,
// and RAM-only preloading) are provided for the simulator's comparisons.
//
// Each placement records the holder's stream position at which the sample
// becomes available, which implements the paper's remote-progress heuristic
// (Sec. 5.2.2): a worker at stream position f assumes a peer has cached a
// sample iff the peer's fill position for it is below f, mirroring "if the
// local prefetching has reached the corresponding access stream location,
// the remote worker likely has, too".
//
// Layout: availability state is packed struct-of-arrays — one 64-bit word
// per (worker, sample) local placement and per best-holder slot — so the
// simulator's per-sample availability queries are single cache-line loads
// instead of gathers across parallel class/worker/position arrays. The
// Lean* builders additionally record local tables for worker 0 only, making
// placement memory O(F) instead of O(N·F) for the simulator's symmetric
// observer at planetary worker counts.
//
// Throughout, 1 MB = 2^20 bytes.
package cachepolicy

import (
	"repro/internal/access"
	"repro/internal/hwspec"
)

// bytesPerMB converts hwspec capacities to bytes.
const bytesPerMB = 1 << 20

// Sizer is the subset of dataset.Dataset the policy needs.
type Sizer interface {
	Len() int
	Size(id int) int64
}

// NotCached marks a sample absent from a worker's local hierarchy.
const NotCached = int8(-1)

// AlwaysAvail marks a placement available from the start of training
// (prestaged data), regardless of the asker's progress.
const AlwaysAvail = int32(-1)

// Packed placement words. A zero word means "not cached"; a placed sample
// packs class+1 into the low byte and the availability position, biased by
// 2 so AlwaysAvail (-1) becomes 1 and position p becomes p+2, into the next
// 32 bits. The bias makes packed position fields order-compatible with
// posBefore: prestaged (1) sorts below every stream position (≥ 2). Holder
// words (best1/best2) additionally carry the worker rank in the top 24 bits.
const (
	packClassBits = 8
	packPosBits   = 32
	packPosShift  = packClassBits
	packWorkShift = packClassBits + packPosBits
)

// packPlace encodes a (class, availability position) pair.
func packPlace(c int8, pos int32) uint64 {
	return uint64(uint8(c+1)) | uint64(uint32(pos+2))<<packPosShift
}

// packHolder encodes a (class, worker, availability position) triple.
func packHolder(c int8, w int32, pos int32) uint64 {
	return packPlace(c, pos) | uint64(uint32(w))<<packWorkShift
}

// unpackClass returns the placement's class, or -1 for the zero word.
func unpackClass(v uint64) int { return int(v&0xff) - 1 }

// unpackPos returns the placement's availability position (AlwaysAvail for
// prestaged entries). Only meaningful for non-zero words.
func unpackPos(v uint64) int32 { return int32(uint32(v>>packPosShift)) - 2 }

// unpackWorker returns a holder word's worker rank.
func unpackWorker(v uint64) int32 { return int32(uint32(v >> packWorkShift)) }

// posField extracts the raw biased position bits; comparing two fields as
// integers is exactly posBefore on the decoded positions.
func posField(v uint64) uint32 { return uint32(v >> packPosShift) }

// Assignment is the materialised placement: for every worker, which class
// (index into hwspec.Node.Classes, 0 = fastest) holds each sample, plus the
// order in which each class should be filled and O(1) lookup of the best
// remote holder together with its availability position.
type Assignment struct {
	N int
	// local[w][k] is the packed placement of sample k on worker w (see
	// packPlace). Lean assignments allocate the row for worker 0 only;
	// untracked rows are nil.
	local [][]uint64
	// FillOrder[w][c] lists the samples assigned to worker w's class c in
	// first-access order — the prefetchers' fill schedule (Rule 1). Nil for
	// untracked workers of lean assignments.
	FillOrder [][][]int32
	// best1/best2 are the packed best-two holder words per sample (see
	// packHolder), so RemoteAvail can exclude the asking worker in O(1).
	best1, best2 []uint64
	// CachedBytes[w] is the total bytes worker w caches.
	CachedBytes []int64
}

// newAssignment allocates an empty assignment for n workers over f samples
// with nClasses storage classes each. Lean assignments track local tables
// for worker 0 only; the best-holder pair still covers every worker.
func newAssignment(n, f, nClasses int, lean bool) *Assignment {
	a := &Assignment{
		N:           n,
		local:       make([][]uint64, n),
		FillOrder:   make([][][]int32, n),
		best1:       make([]uint64, f),
		best2:       make([]uint64, f),
		CachedBytes: make([]int64, n),
	}
	for w := 0; w < n; w++ {
		if lean && w != 0 {
			continue
		}
		a.local[w] = make([]uint64, f)
		a.FillOrder[w] = make([][]int32, nClasses)
	}
	return a
}

// Lean reports whether the assignment records local tables for worker 0
// only (see the Lean* builders).
func (a *Assignment) Lean() bool { return a.N > 1 && a.local[1] == nil }

// posBefore orders availability positions: prestaged (AlwaysAvail) sorts
// before any stream position.
func posBefore(a, b int32) bool {
	if a == AlwaysAvail {
		return b != AlwaysAvail
	}
	if b == AlwaysAvail {
		return false
	}
	return a < b
}

// place records sample k in worker w's class c, available from the holder's
// stream position pos, and maintains the per-sample best-holder pair.
// Holders are ranked by (class speed, availability position): among
// same-class holders the one whose copy exists earliest wins, so the
// remote-availability heuristic consults the peer most likely to already
// have the sample (typically its epoch-0 toucher). For untracked workers of
// lean assignments only the holder pair and byte count are updated.
func (a *Assignment) place(w int, k int32, c int8, size int64, pos int32) {
	if row := a.local[w]; row != nil {
		row[k] = packPlace(c, pos)
		a.FillOrder[w][c] = append(a.FillOrder[w][c], k)
	}
	a.CachedBytes[w] += size
	cand := packHolder(c, int32(w), pos)
	switch {
	case holderBeats(cand, a.best1[k]):
		a.best2[k] = a.best1[k]
		a.best1[k] = cand
	case holderBeats(cand, a.best2[k]):
		a.best2[k] = cand
	}
}

// holderBeats reports whether holder word cand outranks slot word e,
// comparing (class, position) lexicographically on the packed fields: an
// empty slot (zero word, class bits 0) always loses.
func holderBeats(cand, e uint64) bool {
	ec, cc := e&0xff, cand&0xff
	if ec == 0 {
		return true
	}
	if cc != ec {
		return cc < ec
	}
	return posField(cand) < posField(e)
}

// Local returns the class caching sample k on worker w, or -1. Worker w's
// local table must be tracked (always true for non-lean assignments).
func (a *Assignment) Local(w int, k int32) int { return unpackClass(a.local[w][k]) }

// LocalPos returns the stream position at which worker w's copy of sample k
// becomes available (its first access for NoPFS placements, AlwaysAvail for
// prestaged ones). Only meaningful when Local(w, k) >= 0.
func (a *Assignment) LocalPos(w int, k int32) int32 { return unpackPos(a.local[w][k]) }

// LocalAvail returns the class caching sample k on worker w if that copy
// exists by the time the worker reaches stream position pos, else -1.
func (a *Assignment) LocalAvail(w int, k int32, pos int32) int {
	v := a.local[w][k]
	c := unpackClass(v)
	if c < 0 {
		return -1
	}
	if p := unpackPos(v); p != AlwaysAvail && p >= pos {
		return -1
	}
	return c
}

// LocalWords exposes worker w's packed placement row (read-only) for fused
// simulator loops; decode with UnpackLocal.
func (a *Assignment) LocalWords(w int) []uint64 { return a.local[w] }

// HolderWords exposes the packed best-two holder arrays (read-only) for
// fused simulator loops; decode with UnpackHolder.
func (a *Assignment) HolderWords() (best1, best2 []uint64) { return a.best1, a.best2 }

// UnpackLocal decodes one LocalWords entry into (class, availability
// position); class is -1 for samples not cached there.
func UnpackLocal(v uint64) (class int, pos int32) { return unpackClass(v), unpackPos(v) }

// UnpackHolder decodes one HolderWords entry into (class, worker,
// availability position); class is -1 for empty slots.
func UnpackHolder(v uint64) (class int, worker int32, pos int32) {
	return unpackClass(v), unpackWorker(v), unpackPos(v)
}

// AvailClass decodes one LocalWords entry exactly as LocalAvail does: the
// caching class if the copy exists by stream position pos, else -1. Small
// enough to inline into fused simulator kernels.
func AvailClass(v uint64, pos int32) int {
	c := int(v&0xff) - 1
	if c < 0 {
		return -1
	}
	if p := int32(uint32(v>>packPosShift)) - 2; p != AlwaysAvail && p >= pos {
		return -1
	}
	return c
}

// HolderFor decodes one HolderWords entry exactly as RemoteAvail does for a
// single slot: the class if the slot holds a copy on a worker other than
// asker that exists by stream position pos, else -1.
func HolderFor(v uint64, asker, pos int32) int {
	if v == 0 || int32(uint32(v>>packWorkShift)) == asker {
		return -1
	}
	if p := int32(uint32(v>>packPosShift)) - 2; p != AlwaysAvail && p >= pos {
		return -1
	}
	return int(v&0xff) - 1
}

// HolderAny is HolderFor without the progress check — the word-level form of
// RemoteBest for one slot.
func HolderAny(v uint64, asker int32) int {
	if v == 0 || int32(uint32(v>>packWorkShift)) == asker {
		return -1
	}
	return int(v&0xff) - 1
}

// RemoteBest returns the fastest class holding sample k on any worker other
// than w, and that worker's rank; (-1, -1) if no other worker caches k.
func (a *Assignment) RemoteBest(w int, k int32) (class, worker int) {
	if v := a.best1[k]; v != 0 && unpackWorker(v) != int32(w) {
		return unpackClass(v), int(unpackWorker(v))
	}
	if v := a.best2[k]; v != 0 && unpackWorker(v) != int32(w) {
		return unpackClass(v), int(unpackWorker(v))
	}
	return -1, -1
}

// RemoteAvail is RemoteBest restricted to holders estimated to have cached
// the sample by the time the asker is at stream position pos (the paper's
// symmetric-progress heuristic: all workers advance in lockstep, so a
// holder's progress equals the asker's).
func (a *Assignment) RemoteAvail(w int, k int32, pos int32) (class, worker int) {
	if v := a.best1[k]; v != 0 && unpackWorker(v) != int32(w) {
		if p := unpackPos(v); p == AlwaysAvail || p < pos {
			return unpackClass(v), int(unpackWorker(v))
		}
	}
	if v := a.best2[k]; v != 0 && unpackWorker(v) != int32(w) {
		if p := unpackPos(v); p == AlwaysAvail || p < pos {
			return unpackClass(v), int(unpackWorker(v))
		}
	}
	return -1, -1
}

// CachedAnywhere reports whether any worker caches sample k.
func (a *Assignment) CachedAnywhere(k int32) bool { return a.best1[k] != 0 }

// Coverage returns the fraction of dataset bytes cached on at least one
// worker — the "does not access the entire dataset" diagnostic from Fig. 8
// applies when a policy restricts reads to cached samples with coverage < 1.
func (a *Assignment) Coverage(ds Sizer) float64 {
	var cached, total int64
	for k := 0; k < ds.Len(); k++ {
		sz := ds.Size(k)
		total += sz
		if a.best1[k] != 0 {
			cached += sz
		}
	}
	if total == 0 {
		return 0
	}
	return float64(cached) / float64(total)
}

// ApproxBytes approximates the assignment's resident memory: packed local
// rows, holder words, fill orders, and byte counters.
func (a *Assignment) ApproxBytes() int64 {
	var n int64
	for _, row := range a.local {
		n += int64(len(row)) * 8
	}
	n += int64(len(a.best1)+len(a.best2)) * 8
	for _, classes := range a.FillOrder {
		for _, list := range classes {
			n += int64(len(list)) * 4
		}
	}
	n += int64(a.N) * 8
	return n
}

// classCaps extracts per-class byte capacities from a node spec.
func classCaps(node hwspec.Node) []int64 {
	caps := make([]int64, len(node.Classes))
	for i, c := range node.Classes {
		caps[i] = int64(c.CapacityMB * bytesPerMB)
	}
	return caps
}

// BuildNoPFS computes the NoPFS frequency-based assignment for every worker
// of the plan. Samples a worker never accesses are not cached by it: with
// full-dataset randomization every sample has freq ≥ 1 somewhere, so global
// coverage is unaffected, and local capacity is reserved for samples the
// worker will actually consume. The recorded availability position of each
// placement is the holder's first access (the copy exists once the holder
// has pulled the sample for its own consumption).
//
// This builder and the four *FromStreams / *Lean ones below each rank and
// then fill (see RankStreams and Rank.Fill); callers evaluating several node
// specs on one plan rank once and fill per spec instead, as
// plancache.Artifacts.Placement does.
func BuildNoPFS(plan *access.Plan, ds Sizer, node hwspec.Node) *Assignment {
	streams := plan.AllWorkerStreams()
	return BuildNoPFSFromStreams(plan, streams, ds, node)
}

// BuildNoPFSFromStreams is BuildNoPFS for callers that already materialised
// the worker streams.
func BuildNoPFSFromStreams(plan *access.Plan, streams [][]access.SampleID, ds Sizer, node hwspec.Node) *Assignment {
	return RankStreams(plan, streams, true).Fill(ds, node, false)
}

// BuildNoPFSLean is BuildNoPFSFromStreams recording local tables for worker
// 0 only — the simulator's symmetric observer. The global best-holder pair
// still reflects every worker's placement, so Source decisions are identical
// to the full build while memory stays O(F) at any N.
func BuildNoPFSLean(plan *access.Plan, streams [][]access.SampleID, ds Sizer, node hwspec.Node) *Assignment {
	return RankStreams(plan, streams, true).Fill(ds, node, true)
}

// BuildRandomFromStreams is the placement ablation: identical machinery to
// the NoPFS assignment, but candidates fill the hierarchy in arbitrary
// (first-access) order instead of by access frequency. Comparing it against
// BuildNoPFS isolates the contribution of the Sec. 3.1 frequency analysis.
func BuildRandomFromStreams(plan *access.Plan, streams [][]access.SampleID, ds Sizer, node hwspec.Node) *Assignment {
	return RankStreams(plan, streams, false).Fill(ds, node, false)
}

// BuildRandomLean is BuildRandomFromStreams tracking worker 0 only.
func BuildRandomLean(plan *access.Plan, streams [][]access.SampleID, ds Sizer, node hwspec.Node) *Assignment {
	return RankStreams(plan, streams, false).Fill(ds, node, true)
}

// BuildFirstTouch computes the first-touch placement used by the LBANN data
// store's dynamic mode and by DeepIO: during epoch 0, the first worker to
// read a sample caches it in RAM (class 0) if it still has room. The
// availability position is the owner's epoch-0 stream position of that first
// touch.
func BuildFirstTouch(plan *access.Plan, ds Sizer, node hwspec.Node) *Assignment {
	return BuildFirstTouchFromOrder(plan, plan.EpochOrder(0), ds, node)
}

// BuildFirstTouchFromOrder is BuildFirstTouch for callers that already
// materialised epoch 0's shuffle (the plan-artifact cache shares it).
func BuildFirstTouchFromOrder(plan *access.Plan, order []access.SampleID, ds Sizer, node hwspec.Node) *Assignment {
	return buildFirstTouch(plan, order, ds, node, false)
}

// BuildFirstTouchLean is BuildFirstTouchFromOrder tracking worker 0 only.
func BuildFirstTouchLean(plan *access.Plan, order []access.SampleID, ds Sizer, node hwspec.Node) *Assignment {
	return buildFirstTouch(plan, order, ds, node, true)
}

func buildFirstTouch(plan *access.Plan, order []access.SampleID, ds Sizer, node hwspec.Node, lean bool) *Assignment {
	a := newAssignment(plan.N, plan.F, maxInt(len(node.Classes), 1), lean)
	if len(node.Classes) == 0 {
		return a
	}
	ramCap := int64(node.Classes[0].CapacityMB * bytesPerMB)
	remaining := make([]int64, plan.N)
	for w := range remaining {
		remaining[w] = ramCap
	}
	limit := plan.EpochLimit()
	localPos := make([]int32, plan.N)
	for p := 0; p < limit; p++ {
		w := p % plan.N
		k := order[p]
		if !a.CachedAnywhere(k) {
			sz := ds.Size(int(k))
			if remaining[w] >= sz {
				remaining[w] -= sz
				a.place(w, k, 0, sz, localPos[w])
			}
		}
		localPos[w]++
	}
	return a
}

// BuildShard computes the static round-robin sharding used by the
// ParallelStaging and LocalityAware baselines: sample k lives on worker
// k mod N, packed into classes fastest-first until capacity is exhausted.
// With S > N*D part of the dataset is nowhere cached (coverage < 1).
// Placements are prestaged (AlwaysAvail).
func BuildShard(f, n int, ds Sizer, node hwspec.Node) *Assignment {
	return buildShard(f, n, ds, node, false)
}

// BuildShardLean is BuildShard tracking worker 0 only.
func BuildShardLean(f, n int, ds Sizer, node hwspec.Node) *Assignment {
	return buildShard(f, n, ds, node, true)
}

func buildShard(f, n int, ds Sizer, node hwspec.Node, lean bool) *Assignment {
	a := newAssignment(n, f, len(node.Classes), lean)
	caps := classCaps(node)
	remaining := make([][]int64, n)
	for w := range remaining {
		remaining[w] = append([]int64(nil), caps...)
	}
	for k := int32(0); int(k) < f; k++ {
		w := int(k) % n
		sz := ds.Size(int(k))
		for c := range remaining[w] {
			if remaining[w][c] >= sz {
				remaining[w][c] -= sz
				a.place(w, k, int8(c), sz, AlwaysAvail)
				break
			}
		}
	}
	return a
}

// BuildPreload computes the LBANN-preloading placement: each worker loads
// its shard into RAM (class 0) only; samples that do not fit are not cached.
// Placements are prestaged (AlwaysAvail).
func BuildPreload(f, n int, ds Sizer, node hwspec.Node) *Assignment {
	return buildPreload(f, n, ds, node, false)
}

// BuildPreloadLean is BuildPreload tracking worker 0 only.
func BuildPreloadLean(f, n int, ds Sizer, node hwspec.Node) *Assignment {
	return buildPreload(f, n, ds, node, true)
}

func buildPreload(f, n int, ds Sizer, node hwspec.Node, lean bool) *Assignment {
	a := newAssignment(n, f, maxInt(len(node.Classes), 1), lean)
	if len(node.Classes) == 0 {
		return a
	}
	ramCap := int64(node.Classes[0].CapacityMB * bytesPerMB)
	remaining := make([]int64, n)
	for w := range remaining {
		remaining[w] = ramCap
	}
	for k := int32(0); int(k) < f; k++ {
		w := int(k) % n
		sz := ds.Size(int(k))
		if remaining[w] >= sz {
			remaining[w] -= sz
			a.place(w, k, 0, sz, AlwaysAvail)
		}
	}
	return a
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
