package cachepolicy

import (
	"testing"

	"repro/internal/access"
	"repro/internal/dataset"
	"repro/internal/hwspec"
)

// fixedSizer is a Sizer with uniform sample sizes.
type fixedSizer struct {
	n    int
	size int64
}

func (f fixedSizer) Len() int       { return f.n }
func (f fixedSizer) Size(int) int64 { return f.size }

// nodeWithMB builds a two-class node (ram, ssd) with given capacities in MB.
func nodeWithMB(ramMB, ssdMB float64) hwspec.Node {
	n := hwspec.Node{
		Staging: hwspec.StorageClass{
			Name: "staging", CapacityMB: 100, Threads: 2,
			Read: hwspec.Flat(10000), Write: hwspec.Flat(10000),
		},
		InterconnectMBps: 10000,
	}
	if ramMB > 0 {
		n.Classes = append(n.Classes, hwspec.StorageClass{
			Name: "ram", CapacityMB: ramMB, Threads: 2,
			Read: hwspec.Flat(8000), Write: hwspec.Flat(8000),
		})
	}
	if ssdMB > 0 {
		n.Classes = append(n.Classes, hwspec.StorageClass{
			Name: "ssd", CapacityMB: ssdMB, Threads: 1,
			Read: hwspec.Flat(500), Write: hwspec.Flat(300),
		})
	}
	return n
}

func testPlan(f, n, e int) *access.Plan {
	return &access.Plan{Seed: 77, F: f, N: n, E: e, BatchPerWorker: 4}
}

func TestBuildNoPFSCachesEverythingWhenItFits(t *testing.T) {
	// 1 MB samples, 256 of them, 4 workers with 512 MB RAM each: every
	// worker can cache every sample it ever touches.
	ds := fixedSizer{n: 256, size: 1 << 20}
	plan := testPlan(256, 4, 4)
	a := BuildNoPFS(plan, ds, nodeWithMB(512, 0))

	freqs := plan.Frequencies()
	for w := 0; w < plan.N; w++ {
		for k := int32(0); k < 256; k++ {
			cached := a.Local(w, k) >= 0
			accessed := freqs[w][k] > 0
			if accessed && !cached {
				t.Fatalf("worker %d accesses sample %d (freq %d) but did not cache it", w, k, freqs[w][k])
			}
			if !accessed && cached {
				t.Fatalf("worker %d cached never-accessed sample %d", w, k)
			}
		}
	}
	if cov := a.Coverage(ds); cov != 1 {
		t.Errorf("coverage = %v, want 1 (every sample accessed by someone)", cov)
	}
}

func TestBuildNoPFSRespectsCapacity(t *testing.T) {
	ds := fixedSizer{n: 100, size: 1 << 20} // 100 MB total
	plan := testPlan(100, 2, 4)
	// 10 MB RAM + 20 MB SSD per worker: at most 30 samples cached each.
	a := BuildNoPFS(plan, ds, nodeWithMB(10, 20))
	for w := 0; w < 2; w++ {
		var ram, ssd int
		for k := int32(0); k < 100; k++ {
			switch a.Local(w, k) {
			case 0:
				ram++
			case 1:
				ssd++
			}
		}
		if ram > 10 {
			t.Errorf("worker %d cached %d samples in 10 MB RAM", w, ram)
		}
		if ssd > 20 {
			t.Errorf("worker %d cached %d samples in 20 MB SSD", w, ssd)
		}
		if a.CachedBytes[w] > 30<<20 {
			t.Errorf("worker %d cached %d bytes, capacity 30 MB", w, a.CachedBytes[w])
		}
	}
}

func TestBuildNoPFSFrequencyOrdering(t *testing.T) {
	// The minimum frequency among RAM-cached samples must be >= the
	// maximum among SSD-cached, which must be >= the max among uncached
	// (for samples the worker accesses at all): the greedy fill is by
	// frequency rank.
	ds := fixedSizer{n: 400, size: 1 << 20}
	plan := testPlan(400, 2, 8)
	a := BuildNoPFS(plan, ds, nodeWithMB(40, 60))
	freqs := plan.Frequencies()
	for w := 0; w < 2; w++ {
		minRAM, maxSSD, maxNone := int32(1<<30), int32(-1), int32(-1)
		for k := int32(0); k < 400; k++ {
			f := freqs[w][k]
			switch a.Local(w, k) {
			case 0:
				if f < minRAM {
					minRAM = f
				}
			case 1:
				if f > maxSSD {
					maxSSD = f
				}
			default:
				if f > maxNone {
					maxNone = f
				}
			}
		}
		if maxSSD > minRAM {
			t.Errorf("worker %d: SSD has freq %d > RAM min %d", w, maxSSD, minRAM)
		}
		if maxNone > maxSSD && maxSSD >= 0 {
			t.Errorf("worker %d: uncached freq %d > SSD max %d", w, maxNone, maxSSD)
		}
	}
}

func TestFillOrderIsFirstAccessOrder(t *testing.T) {
	ds := fixedSizer{n: 128, size: 1 << 20}
	plan := testPlan(128, 2, 3)
	a := BuildNoPFS(plan, ds, nodeWithMB(1000, 0))
	for w := 0; w < 2; w++ {
		first := map[access.SampleID]int{}
		for pos, id := range plan.WorkerStream(w) {
			if _, seen := first[id]; !seen {
				first[id] = pos
			}
		}
		for c, list := range a.FillOrder[w] {
			for i := 1; i < len(list); i++ {
				if first[list[i-1]] >= first[list[i]] {
					t.Fatalf("worker %d class %d fill order not by first access at %d", w, c, i)
				}
			}
		}
	}
}

func TestRemoteBestExcludesSelf(t *testing.T) {
	ds := fixedSizer{n: 64, size: 1 << 20}
	plan := testPlan(64, 4, 6)
	a := BuildNoPFS(plan, ds, nodeWithMB(1000, 0))
	for w := 0; w < 4; w++ {
		for k := int32(0); k < 64; k++ {
			class, holder := a.RemoteBest(w, k)
			if class >= 0 && holder == w {
				t.Fatalf("RemoteBest(%d, %d) returned the asking worker", w, k)
			}
			if class >= 0 && a.Local(holder, k) != class {
				t.Fatalf("RemoteBest points to worker %d class %d but placement says %d",
					holder, class, a.Local(holder, k))
			}
		}
	}
}

func TestRemoteBestFindsSecondHolder(t *testing.T) {
	// With every worker caching everything, RemoteBest must always find
	// someone else for samples cached by >= 2 workers.
	ds := fixedSizer{n: 32, size: 1 << 20}
	plan := testPlan(32, 4, 8)
	a := BuildNoPFS(plan, ds, nodeWithMB(1000, 0))
	for k := int32(0); k < 32; k++ {
		holders := 0
		for w := 0; w < 4; w++ {
			if a.Local(w, k) >= 0 {
				holders++
			}
		}
		if holders < 2 {
			continue
		}
		for w := 0; w < 4; w++ {
			if class, _ := a.RemoteBest(w, k); class < 0 {
				t.Fatalf("sample %d has %d holders but RemoteBest(%d) found none", k, holders, w)
			}
		}
	}
}

func TestLargeSampleFallsThroughToNextClass(t *testing.T) {
	// Samples of 3 MB with a 2 MB RAM class: everything must land on SSD.
	ds := fixedSizer{n: 10, size: 3 << 20}
	plan := testPlan(10, 2, 2)
	a := BuildNoPFS(plan, ds, nodeWithMB(2, 100))
	for w := 0; w < 2; w++ {
		for k := int32(0); k < 10; k++ {
			if a.Local(w, k) == 0 {
				t.Fatalf("3 MB sample %d placed in 2 MB RAM", k)
			}
		}
	}
}

// TestFirstTouchPlacesStreamPositions: a first-touch placement names the
// holder's own stream position of the touch — Streams[w][LocalPos(w, k)] is
// k for every placed sample — under the static partition and under an
// elastic schedule whose epoch 0 runs on a subset of the ranks (the preset's
// rank 1 joins at epoch 1), where the holder of position p is the p-th
// active rank, not rank p mod N.
func TestFirstTouchPlacesStreamPositions(t *testing.T) {
	elastic, ok := access.PresetByName("elastic")
	if !ok {
		t.Fatal("no elastic preset")
	}
	for _, spec := range []string{"", elastic.Spec()} {
		plan := testPlan(256, 4, 3)
		plan.Access = spec
		if err := plan.Validate(); err != nil {
			t.Fatal(err)
		}
		ds := fixedSizer{n: plan.F, size: 1 << 20}
		streams := plan.AllWorkerStreams()
		a := BuildFirstTouch(plan, ds, nodeWithMB(1000, 0))
		placed := 0
		for w, stream := range streams {
			for k := int32(0); int(k) < plan.F; k++ {
				if a.Local(w, k) < 0 {
					continue
				}
				placed++
				if pos := a.LocalPos(w, k); int(pos) >= len(stream) || stream[pos] != k {
					t.Fatalf("%q: worker %d holds sample %d from position %d, where its stream does not read it", spec, w, k, pos)
				}
			}
		}
		if placed != plan.F {
			t.Errorf("%q: %d of %d samples placed", spec, placed, plan.F)
		}
		for k := int32(0); int(k) < plan.F; k++ {
			if h := holderPair(a, k)[0]; streams[h.worker][h.pos] != k {
				t.Fatalf("%q: best holder of %d is worker %d at %d, which reads %d there", spec, k, h.worker, h.pos, streams[h.worker][h.pos])
			}
		}
	}
}

func TestBuildShard(t *testing.T) {
	ds := fixedSizer{n: 100, size: 1 << 20}
	a := BuildShard(100, 4, ds, nodeWithMB(1000, 0))
	for k := int32(0); k < 100; k++ {
		owner := int(k) % 4
		if a.Local(owner, k) != 0 {
			t.Fatalf("sample %d not on its shard owner %d", k, owner)
		}
		for w := 0; w < 4; w++ {
			if w != owner && a.Local(w, k) >= 0 {
				t.Fatalf("sample %d duplicated on worker %d", k, w)
			}
		}
	}
	if cov := a.Coverage(ds); cov != 1 {
		t.Errorf("shard coverage = %v, want 1", cov)
	}
}

func TestBuildShardCoverageCapped(t *testing.T) {
	// 100 x 1 MB samples, 4 workers x 10 MB: at most 40 MB cached.
	ds := fixedSizer{n: 100, size: 1 << 20}
	a := BuildShard(100, 4, ds, nodeWithMB(10, 0))
	cov := a.Coverage(ds)
	if cov > 0.41 || cov < 0.39 {
		t.Errorf("capped shard coverage = %v, want ~0.40", cov)
	}
}

func TestBuildPreloadRAMOnly(t *testing.T) {
	ds := fixedSizer{n: 40, size: 1 << 20}
	a := BuildPreload(40, 4, ds, nodeWithMB(5, 100))
	for k := int32(0); k < 40; k++ {
		for w := 0; w < 4; w++ {
			if c := a.Local(w, k); c > 0 {
				t.Fatalf("preload placed sample %d in class %d (only RAM allowed)", k, c)
			}
		}
	}
	// 4 workers x 5 MB RAM = 20 of 40 MB.
	if cov := a.Coverage(ds); cov > 0.51 || cov < 0.49 {
		t.Errorf("preload coverage = %v, want ~0.5", cov)
	}
}

func TestCoverageEmptyAssignment(t *testing.T) {
	ds := fixedSizer{n: 10, size: 1}
	a := newAssignment(2, 10, 1, 0, false, false)
	if cov := a.Coverage(ds); cov != 0 {
		t.Errorf("empty assignment coverage = %v", cov)
	}
}

func TestBuildNoPFSWithRealDataset(t *testing.T) {
	// Variable sizes: the greedy fill must respect byte capacities, not
	// sample counts.
	d := dataset.MustNew(dataset.Spec{
		Name: "var", F: 300, MeanSize: 1 << 20, StddevSize: 512 << 10, Classes: 3, Seed: 5,
	})
	plan := testPlan(300, 4, 3)
	node := nodeWithMB(30, 50)
	a := BuildNoPFS(plan, d, node)
	for w := 0; w < 4; w++ {
		var ramBytes, ssdBytes int64
		for k := int32(0); k < 300; k++ {
			switch a.Local(w, k) {
			case 0:
				ramBytes += d.Size(int(k))
			case 1:
				ssdBytes += d.Size(int(k))
			}
		}
		if ramBytes > 30<<20 {
			t.Errorf("worker %d RAM bytes %d exceed 30 MB", w, ramBytes)
		}
		if ssdBytes > 50<<20 {
			t.Errorf("worker %d SSD bytes %d exceed 50 MB", w, ssdBytes)
		}
	}
}

func BenchmarkBuildNoPFS(b *testing.B) {
	ds := fixedSizer{n: 100000, size: 112 << 10}
	plan := &access.Plan{Seed: 1, F: 100000, N: 8, E: 10, BatchPerWorker: 16}
	node := nodeWithMB(4000, 4000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		BuildNoPFS(plan, ds, node)
	}
}

// BenchmarkRankStreams measures the plan-only half of the placement on
// BenchmarkBuildNoPFS's plan, streams already materialised.
func BenchmarkRankStreams(b *testing.B) {
	plan := &access.Plan{Seed: 1, F: 100000, N: 8, E: 10, BatchPerWorker: 16}
	streams := plan.AllWorkerStreams()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RankStreams(plan, streams, true)
	}
}
