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
// Layout: a placement is the largest artifact the clairvoyant set-up keeps —
// one packed word per (tracked worker, sample) plus two best-holder words
// per sample — so the words are as narrow as the plan allows: class,
// availability position and holder rank get the bits the class count, the
// longest stream and N need, in uint32 words when that is at most 32 (every
// Fig. 8–10 configuration), uint64 otherwise (see newAssignment). Nothing
// reads them per simulated fetch; the simulator decodes them once per
// (placement, stream) into Tags. A build may keep the local tables of one
// tracked rank only: O(F) placement memory instead of O(N·F) for a caller
// that evaluates one rank at planetary worker counts.
//
// Throughout, 1 MB = 2^20 bytes.
package cachepolicy

import (
	"math"
	"math/bits"
	"unsafe"

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

// AlwaysAvail marks a placement available from the start of training
// (prestaged data), regardless of the asker's progress.
const AlwaysAvail = int32(-1)

// Assignment is the materialised placement: for every worker, which class
// (index into hwspec.Node.Classes, 0 = fastest) holds each sample, plus the
// order in which each class should be filled and O(1) lookup of the best
// remote holder together with its availability position.
type Assignment struct {
	N int
	// FillOrder[w][c] lists the samples assigned to worker w's class c in
	// first-access order — the prefetchers' fill schedule (Rule 1). Nil for
	// untracked workers.
	FillOrder [][][]int32
	// CachedBytes[w] is the total bytes worker w caches.
	CachedBytes []int64
	// words is the packed placement tables, at the width newAssignment chose.
	words words
}

// words is everything that reads or writes packed placement words. Its two
// implementations, *packed[uint32] and *packed[uint64], are one source: a
// call dispatches on the width once and the loop inside runs at that width
// (builders call place directly; only tests' reference builds come this way).
type words interface {
	local(w int, k int32) int
	localPos(w int, k int32) int32
	localAvail(w int, k int32, pos int32) int
	remoteAvail(w int, k int32, pos int32) (class, worker int)
	cachedAnywhere(k int32) bool
	coverage(ds Sizer) float64
	tags(w int, stream []access.SampleID, gone func(h, pos int) bool) []byte
	tableBytes() int64

	place(w int, k int32, c int8, size int64, pos int32)
	fill(r *Rank, ds Sizer, caps []int64)
	firstTouch(active []int, order []access.SampleID, ds Sizer, ramCap int64)
	shard(ds Sizer, caps []int64)
}

// packed is the placement tables at word width W. A zero word means "not
// cached"; a placed sample packs its availability position, biased by 2 so
// AlwaysAvail (-1) becomes 1 and position p becomes p+2, into the low
// posBits, class+1 above it, and — holder words only — the worker rank from
// workShift up. The bits below workShift thus order holders by (class,
// availability) as plain integers, prestaged copies (1) before every stream
// position (≥ 2).
type packed[W uint32 | uint64] struct {
	a *Assignment
	// rows[w][k] is the packed placement of sample k on worker w; untracked
	// workers' rows are nil.
	rows [][]W
	// best1/best2 are the packed best-two holder words per sample, so
	// RemoteAvail can exclude the asking worker in O(1).
	best1, best2 []W

	posBits, workShift uint
	posMask, rankMask  W // position field; class and position together
}

// newAssignment allocates an empty assignment for n workers over f samples
// with nClasses storage classes each, whose recorded availability positions
// will not exceed maxPos. The word width follows from those bounds: 32 bits
// when class+1, maxPos+2 and the highest rank fit together, 64 otherwise;
// wide forces 64 (tests only). A track >= 0 keeps local tables for that rank
// only, a negative one for every rank; the best-holder pair always covers
// every worker.
func newAssignment(n, f, nClasses, maxPos, track int, wide bool) *Assignment {
	a := &Assignment{N: n, FillOrder: make([][][]int32, n), CachedBytes: make([]int64, n)}
	for w := range a.FillOrder {
		if track < 0 || w == track {
			a.FillOrder[w] = make([][]int32, nClasses)
		}
	}
	posBits := uint(bits.Len(uint(maxPos + 2)))
	workShift := posBits + uint(bits.Len(uint(nClasses)))
	if wide || workShift+uint(bits.Len(uint(n-1))) > 32 {
		a.words = newPacked[uint64](a, f, posBits, workShift)
	} else {
		a.words = newPacked[uint32](a, f, posBits, workShift)
	}
	return a
}

// newPacked allocates a local row for every worker a tracks.
func newPacked[W uint32 | uint64](a *Assignment, f int, posBits, workShift uint) *packed[W] {
	t := &packed[W]{
		a: a, rows: make([][]W, a.N), best1: make([]W, f), best2: make([]W, f),
		posBits: posBits, workShift: workShift,
		posMask: W(1)<<posBits - 1, rankMask: W(1)<<workShift - 1,
	}
	for w, fill := range a.FillOrder {
		if fill != nil {
			t.rows[w] = make([]W, f)
		}
	}
	return t
}

// ApproxBytes approximates the assignment's resident memory: packed local
// rows, holder words, fill orders, and byte counters.
func (a *Assignment) ApproxBytes() int64 {
	n := a.words.tableBytes() + int64(a.N)*8
	for _, classes := range a.FillOrder {
		for _, list := range classes {
			n += int64(len(list)) * 4
		}
	}
	return n
}

func (t *packed[W]) tableBytes() int64 {
	n := len(t.best1) + len(t.best2)
	for _, row := range t.rows {
		n += len(row)
	}
	return int64(n) * int64(unsafe.Sizeof(W(0)))
}

// pack encodes a (class, worker, availability position) triple; local words
// leave the worker field 0.
func (t *packed[W]) pack(c int8, w int, pos int32) W {
	return W(pos+2) | W(c+1)<<t.posBits | W(w)<<t.workShift
}

// class returns a word's class, or -1 for the zero word.
func (t *packed[W]) class(v W) int { return int((v&t.rankMask)>>t.posBits) - 1 }

// pos returns a non-zero word's availability position.
func (t *packed[W]) pos(v W) int32 { return int32(v&t.posMask) - 2 }

// existsBy reports whether non-zero word v's copy exists by the time its
// asker is at stream position pos.
func (t *packed[W]) existsBy(v W, pos int32) bool { return t.pos(v) == AlwaysAvail || t.pos(v) < pos }

// place records sample k in worker w's class c, available from the holder's
// stream position pos, and maintains the per-sample best-holder pair.
// Holders are ranked by (class speed, availability position): among
// same-class holders the one whose copy exists earliest wins, so the
// remote-availability heuristic consults the peer most likely to already
// have the sample (typically its epoch-0 toucher). For untracked workers
// only the holder pair and byte count are updated.
func (t *packed[W]) place(w int, k int32, c int8, size int64, pos int32) {
	if row := t.rows[w]; row != nil {
		row[k] = t.pack(c, 0, pos)
		t.a.FillOrder[w][c] = append(t.a.FillOrder[w][c], k)
	}
	t.a.CachedBytes[w] += size
	cand := t.pack(c, w, pos)
	switch {
	case t.holderBeats(cand, t.best1[k]):
		t.best2[k] = t.best1[k]
		t.best1[k] = cand
	case t.holderBeats(cand, t.best2[k]):
		t.best2[k] = cand
	}
}

// holderBeats reports whether holder word cand outranks slot word e by
// (class, position); an empty slot always loses.
func (t *packed[W]) holderBeats(cand, e W) bool {
	return e == 0 || cand&t.rankMask < e&t.rankMask
}

// holder decodes one best-holder slot for asker w at stream position pos:
// the class and rank if the slot holds a copy on another worker that exists
// by pos, else (-1, -1).
func (t *packed[W]) holder(v W, w int, pos int32) (class, worker int) {
	if hw := int(v >> t.workShift); v != 0 && hw != w && t.existsBy(v, pos) {
		return t.class(v), hw
	}
	return -1, -1
}

func (t *packed[W]) local(w int, k int32) int { return t.class(t.rows[w][k]) }

func (t *packed[W]) localPos(w int, k int32) int32 { return t.pos(t.rows[w][k]) }

func (t *packed[W]) localAvail(w int, k int32, pos int32) int {
	if v := t.rows[w][k]; v != 0 && t.existsBy(v, pos) {
		return t.class(v)
	}
	return -1
}

func (t *packed[W]) remoteAvail(w int, k int32, pos int32) (class, worker int) {
	if c, hw := t.holder(t.best1[k], w, pos); c >= 0 {
		return c, hw
	}
	return t.holder(t.best2[k], w, pos)
}

func (t *packed[W]) cachedAnywhere(k int32) bool { return t.best1[k] != 0 }

func (t *packed[W]) coverage(ds Sizer) float64 {
	var cached, total int64
	for k := 0; k < ds.Len(); k++ {
		sz := ds.Size(k)
		total += sz
		if t.best1[k] != 0 {
			cached += sz
		}
	}
	if total == 0 {
		return 0
	}
	return float64(cached) / float64(total)
}

// Local returns the class caching sample k on worker w, or -1. Worker w's
// local table must be tracked.
func (a *Assignment) Local(w int, k int32) int { return a.words.local(w, k) }

// LocalPos returns the stream position at which worker w's copy of sample k
// becomes available (its first access for NoPFS placements, AlwaysAvail for
// prestaged ones). Only meaningful when Local(w, k) >= 0.
func (a *Assignment) LocalPos(w int, k int32) int32 { return a.words.localPos(w, k) }

// LocalAvail returns the class caching sample k on worker w if that copy
// exists by the time the worker reaches stream position pos, else -1.
func (a *Assignment) LocalAvail(w int, k int32, pos int32) int {
	return a.words.localAvail(w, k, pos)
}

// RemoteBest returns the fastest class holding sample k on any worker other
// than w, and that worker's rank; (-1, -1) if no other worker caches k.
func (a *Assignment) RemoteBest(w int, k int32) (class, worker int) {
	return a.words.remoteAvail(w, k, math.MaxInt32)
}

// RemoteAvail is RemoteBest restricted to holders estimated to have cached
// the sample by the time the asker is at stream position pos (the paper's
// symmetric-progress heuristic: all workers advance in lockstep, so a
// holder's progress equals the asker's).
func (a *Assignment) RemoteAvail(w int, k int32, pos int32) (class, worker int) {
	return a.words.remoteAvail(w, k, pos)
}

// CachedAnywhere reports whether any worker caches sample k.
func (a *Assignment) CachedAnywhere(k int32) bool { return a.words.cachedAnywhere(k) }

// Coverage returns the fraction of dataset bytes cached on at least one
// worker — the "does not access the entire dataset" diagnostic from Fig. 8
// applies when a policy restricts reads to cached samples with coverage < 1.
func (a *Assignment) Coverage(ds Sizer) float64 { return a.words.coverage(ds) }

// classCaps extracts per-class byte capacities from a node spec.
func classCaps(node hwspec.Node) []int64 {
	caps := make([]int64, len(node.Classes))
	for i, c := range node.Classes {
		caps[i] = int64(c.CapacityMB * bytesPerMB)
	}
	return caps
}

// BuildNoPFSFromStreams computes the NoPFS frequency-based assignment for
// every worker of the plan from its materialised worker streams. Samples a
// worker never accesses are not cached by it: with full-dataset
// randomization every sample has freq ≥ 1 somewhere, so global coverage is
// unaffected, and local capacity is reserved for samples the worker will
// actually consume. The recorded availability position of each placement is
// the holder's first access (the copy exists once the holder has pulled the
// sample for its own consumption). The random-placement ablation is the
// same machinery with candidates in first-access order instead of by access
// frequency: RankStreams(plan, streams, false).Fill.
//
// This builder and BuildNoPFSLean rank and then fill (see RankStreams and
// Rank.Fill); callers evaluating several node specs on one plan rank once
// and fill per spec instead, as plancache.Artifacts.Placement does.
func BuildNoPFSFromStreams(plan *access.Plan, streams [][]access.SampleID, ds Sizer, node hwspec.Node) *Assignment {
	return RankStreams(plan, streams, true).Fill(ds, node, -1)
}

// BuildNoPFSLean is BuildNoPFSFromStreams keeping rank 0's local tables
// only. The best-holder pair still reflects every worker's placement, so
// rank 0's source decisions are identical to the full build's while memory
// stays O(F) at any N.
func BuildNoPFSLean(plan *access.Plan, streams [][]access.SampleID, ds Sizer, node hwspec.Node) *Assignment {
	return RankStreams(plan, streams, true).Fill(ds, node, 0)
}

// BuildFirstTouchFromOrder computes the first-touch placement used by the
// LBANN data store's dynamic mode and by DeepIO from epoch 0's shuffle order:
// during epoch 0, the first worker to read a sample caches it in RAM (class
// 0) if it still has room. The availability position is the owner's epoch-0
// stream position of that first touch. Like every builder here, it keeps the
// local tables of rank track only, or of every rank when track < 0.
func BuildFirstTouchFromOrder(plan *access.Plan, order []access.SampleID, ds Sizer, node hwspec.Node, track int) *Assignment {
	return buildFirstTouch(plan, order, ds, node, track, false)
}

// BuildFirstTouchLean is BuildFirstTouchFromOrder tracking rank 0 only.
func BuildFirstTouchLean(plan *access.Plan, order []access.SampleID, ds Sizer, node hwspec.Node) *Assignment {
	return buildFirstTouch(plan, order, ds, node, 0, false)
}

func buildFirstTouch(plan *access.Plan, order []access.SampleID, ds Sizer, node hwspec.Node, track int, wide bool) *Assignment {
	// Epoch 0's positions go round-robin to the ranks active in it (all,
	// unless an elastic schedule has some join later), as the streams are cut.
	active, limit := plan.ActiveRanks(0), plan.EpochLimit()
	a := newAssignment(plan.N, plan.F, max(len(node.Classes), 1), (limit-1)/len(active), track, wide)
	if len(node.Classes) > 0 {
		a.words.firstTouch(active, order[:limit], ds, classCaps(node)[0])
	}
	return a
}

func (t *packed[W]) firstTouch(active []int, order []access.SampleID, ds Sizer, ramCap int64) {
	remaining := make([]int64, t.a.N)
	for w := range remaining {
		remaining[w] = ramCap
	}
	for p, k := range order {
		if w := active[p%len(active)]; t.best1[k] == 0 {
			if sz := ds.Size(int(k)); remaining[w] >= sz {
				remaining[w] -= sz
				t.place(w, k, 0, sz, int32(p/len(active)))
			}
		}
	}
}

// BuildShard computes the static round-robin sharding used by the
// ParallelStaging and LocalityAware baselines: sample k lives on worker
// k mod N, packed into classes fastest-first until capacity is exhausted.
// With S > N*D part of the dataset is nowhere cached (coverage < 1).
// Placements are prestaged (AlwaysAvail).
func BuildShard(f, n int, ds Sizer, node hwspec.Node, track int) *Assignment {
	return buildShard(f, n, ds, node, track, false)
}

// BuildShardLean is BuildShard tracking rank 0 only.
func BuildShardLean(f, n int, ds Sizer, node hwspec.Node) *Assignment {
	return buildShard(f, n, ds, node, 0, false)
}

func buildShard(f, n int, ds Sizer, node hwspec.Node, track int, wide bool) *Assignment {
	a := newAssignment(n, f, len(node.Classes), int(AlwaysAvail), track, wide)
	a.words.shard(ds, classCaps(node))
	return a
}

// shard places sample k on worker k mod N, in the first class of caps with
// room for it, prestaged.
func (t *packed[W]) shard(ds Sizer, caps []int64) {
	n := t.a.N
	remaining := make([][]int64, n)
	for w := range remaining {
		remaining[w] = append([]int64(nil), caps...)
	}
	for k := int32(0); int(k) < len(t.best1); k++ {
		w := int(k) % n
		sz := ds.Size(int(k))
		for c := range remaining[w] {
			if remaining[w][c] >= sz {
				remaining[w][c] -= sz
				t.place(w, k, int8(c), sz, AlwaysAvail)
				break
			}
		}
	}
}

// BuildPreload computes the LBANN-preloading placement: each worker loads
// its shard into RAM (class 0) only; samples that do not fit are not cached.
// Placements are prestaged (AlwaysAvail).
func BuildPreload(f, n int, ds Sizer, node hwspec.Node, track int) *Assignment {
	return buildPreload(f, n, ds, node, track, false)
}

// BuildPreloadLean is BuildPreload tracking rank 0 only.
func BuildPreloadLean(f, n int, ds Sizer, node hwspec.Node) *Assignment {
	return buildPreload(f, n, ds, node, 0, false)
}

func buildPreload(f, n int, ds Sizer, node hwspec.Node, track int, wide bool) *Assignment {
	a := newAssignment(n, f, max(len(node.Classes), 1), int(AlwaysAvail), track, wide)
	a.words.shard(ds, classCaps(node)[:min(len(node.Classes), 1)])
	return a
}
