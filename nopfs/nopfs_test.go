package nopfs

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/access"
	"repro/internal/dataset"
	"repro/internal/plancache"
)

func TestOptionsValidate(t *testing.T) {
	ds := testDataset(t, 64)
	if err := baseOptions().Validate(ds, 4); err != nil {
		t.Fatalf("valid options rejected: %v", err)
	}
	if err := baseOptions().Validate(nil, 4); err == nil {
		t.Error("nil dataset accepted")
	}
	if err := baseOptions().Validate(ds, 0); err == nil {
		t.Error("zero workers accepted")
	}
	if err := baseOptions().Validate(ds, 64); err == nil {
		t.Error("global batch > dataset accepted")
	}
	bad := baseOptions()
	bad.Classes[0].CapacityBytes = 0
	if err := bad.Validate(ds, 2); err == nil {
		t.Error("zero-capacity class accepted")
	}
}

func TestClusterDeliversExactSchedule(t *testing.T) {
	ds := testDataset(t, 96)
	opts := baseOptions()
	const workers = 4
	delivered, stats := runAndCollect(t, ds, workers, opts)

	// Every worker must receive exactly its clairvoyant stream, in order.
	plan := &access.Plan{
		Seed: opts.Seed, F: ds.Len(), N: workers, E: opts.Epochs,
		BatchPerWorker: opts.BatchPerWorker, DropLast: opts.DropLast,
	}
	for w := 0; w < workers; w++ {
		want := plan.WorkerStream(w)
		got := delivered[w]
		if len(got) != len(want) {
			t.Fatalf("worker %d delivered %d samples, want %d", w, len(got), len(want))
		}
		for i := range want {
			if got[i] != int(want[i]) {
				t.Fatalf("worker %d position %d: got sample %d, want %d", w, i, got[i], want[i])
			}
		}
		if stats[w].Delivered != int64(len(want)) {
			t.Errorf("worker %d stats.Delivered = %d, want %d", w, stats[w].Delivered, len(want))
		}
	}

	// Across workers, each epoch covers the dataset exactly once.
	counts := make([]int, ds.Len())
	for w := 0; w < workers; w++ {
		for _, id := range delivered[w] {
			counts[id]++
		}
	}
	for id, c := range counts {
		if c != opts.Epochs {
			t.Fatalf("sample %d delivered %d times, want %d", id, c, opts.Epochs)
		}
	}
}

func TestClusterCacheHitsDominateAfterEpoch0(t *testing.T) {
	ds := testDataset(t, 64)
	opts := baseOptions()
	opts.Epochs = 4
	_, stats := runAndCollect(t, ds, 2, opts)
	for _, s := range stats {
		total := s.Fetches[SourcePFS] + s.Fetches[SourceRemote] + s.Fetches[SourceLocal]
		if total == 0 {
			t.Fatalf("rank %d: no fetches recorded", s.Rank)
		}
		pfsFrac := float64(s.Fetches[SourcePFS]) / float64(total)
		// 4 epochs, everything cacheable: at most ~1/4 of staging fetches
		// (the cold first epoch) plus heuristic misses should hit the PFS.
		if pfsFrac > 0.6 {
			t.Errorf("rank %d: PFS fraction %.2f, want caches to dominate", s.Rank, pfsFrac)
		}
		if s.CachedBytes == 0 {
			t.Errorf("rank %d cached nothing", s.Rank)
		}
	}
}

func TestClusterPayloadIntegrity(t *testing.T) {
	// VerifySamples is on in baseOptions: every payload crossing memory,
	// disk, and the fabric is CRC-checked on delivery. Additionally check
	// content equality directly.
	ds := testDataset(t, 48)
	opts := baseOptions()
	opts.Classes = append(opts.Classes, Class{
		Name: "ssd", CapacityBytes: 1 << 20, Dir: t.TempDir(), Threads: 1,
	})
	stats, err := RunCluster(bg, ds, 3, opts, DrainAll(func(s Sample) error {
		want, err := ds.ReadSample(s.ID)
		if err != nil {
			return err
		}
		if string(s.Data) != string(want) {
			return fmt.Errorf("sample %d bytes corrupted in flight", s.ID)
		}
		if s.Label != s.ID%10 {
			return fmt.Errorf("sample %d label %d, want %d", s.ID, s.Label, s.ID%10)
		}
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 3 {
		t.Fatalf("got %d stats", len(stats))
	}
}

func TestClusterOverTCP(t *testing.T) {
	ds := testDataset(t, 48)
	opts := baseOptions()
	opts.Fabric = FabricTCP
	opts.Epochs = 2
	delivered, stats := runAndCollect(t, ds, 3, opts)
	for w, ids := range delivered {
		if len(ids) == 0 {
			t.Fatalf("worker %d delivered nothing over TCP", w)
		}
	}
	var remote int64
	for _, s := range stats {
		remote += s.Fetches[SourceRemote]
	}
	if remote == 0 {
		t.Error("no remote fetches crossed the TCP fabric")
	}
}

func TestClusterEpochIterationBookkeeping(t *testing.T) {
	ds := testDataset(t, 64)
	opts := baseOptions()
	opts.Epochs = 2
	_, err := RunCluster(bg, ds, 2, opts, func(ctx context.Context, j *Job) error {
		perEpoch := j.StreamLen() / opts.Epochs
		n := 0
		for {
			s, ok, err := j.Get(ctx)
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			wantEpoch := n / perEpoch
			if s.Epoch != wantEpoch {
				return fmt.Errorf("sample %d reported epoch %d, want %d", n, s.Epoch, wantEpoch)
			}
			wantIter := (n % perEpoch) / opts.BatchPerWorker
			if s.Iteration != wantIter {
				return fmt.Errorf("sample %d reported iteration %d, want %d", n, s.Iteration, wantIter)
			}
			n++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestClusterSeedMismatchCaught(t *testing.T) {
	// Workers with diverging plans must fail the startup allgather. Build
	// jobs by hand through RunCluster's machinery: simulate divergence by
	// wrapping the dataset so one rank sees a different length — the
	// validation path, and the digest check via direct construction, are
	// both exercised in internal tests; here check the public surface:
	// identical options must succeed.
	ds := testDataset(t, 32)
	opts := baseOptions()
	opts.Epochs = 1
	if _, err := RunCluster(bg, ds, 2, opts, DrainAll(nil)); err != nil {
		t.Fatalf("consistent cluster failed: %v", err)
	}
}

func TestClusterNoLocalStorage(t *testing.T) {
	// With no cache classes at all, NoPFS still works (staging-only mode,
	// everything from PFS/remote-less).
	ds := testDataset(t, 32)
	opts := baseOptions()
	opts.Classes = nil
	opts.Epochs = 2
	delivered, stats := runAndCollect(t, ds, 2, opts)
	for w := range delivered {
		if len(delivered[w]) == 0 {
			t.Fatalf("worker %d starved", w)
		}
	}
	for _, s := range stats {
		if s.Fetches[SourceLocal] != 0 || s.Fetches[SourceRemote] != 0 {
			t.Errorf("rank %d: local/remote fetches without storage classes", s.Rank)
		}
		if s.CachedBytes != 0 {
			t.Errorf("rank %d cached bytes without classes", s.Rank)
		}
	}
}

func TestClusterWithBandwidthLimits(t *testing.T) {
	// Rate-limited PFS and interconnect: the run must still complete and
	// deliver everything correctly (timing changes only).
	ds := testDataset(t, 32)
	opts := baseOptions()
	opts.Epochs = 2
	opts.PFSAggregateMBps = 8
	opts.InterconnectMBps = 64
	opts.Classes[0].ReadMBps = 512
	opts.Classes[0].WriteMBps = 256
	delivered, _ := runAndCollect(t, ds, 2, opts)
	total := 0
	for _, ids := range delivered {
		total += len(ids)
	}
	if total != 32*2 {
		t.Fatalf("delivered %d samples, want 64", total)
	}
}

func TestStatsStallAccounting(t *testing.T) {
	ds := testDataset(t, 32)
	opts := baseOptions()
	opts.Epochs = 1
	_, stats := runAndCollect(t, ds, 2, opts)
	for _, s := range stats {
		if s.StallSeconds < 0 {
			t.Errorf("negative stall time: %v", s.StallSeconds)
		}
	}
}

func TestFalsePositivesBounded(t *testing.T) {
	// Heuristic misses are legal but must be a small minority of fetches.
	ds := testDataset(t, 128)
	opts := baseOptions()
	opts.Epochs = 4
	_, stats := runAndCollect(t, ds, 4, opts)
	for _, s := range stats {
		if s.RemoteFalsePositives > s.Delivered/2 {
			t.Errorf("rank %d: %d false positives out of %d samples",
				s.Rank, s.RemoteFalsePositives, s.Delivered)
		}
	}
}

func TestSourceStringAndSampleFields(t *testing.T) {
	if SourcePFS.String() != "pfs" || SourceRemote.String() != "remote" || SourceLocal.String() != "local" {
		t.Error("source labels wrong")
	}
	if Source(9).String() == "" {
		t.Error("unknown source empty")
	}
}

// TestRunClusterReleasesItsPlan: a cluster builds its plan in a cache of its
// own, so the process-wide plan cache does not see it and the plan leaves with
// the cluster — fresh-seed repetitions in one process hold the heap flat
// instead of retaining one plan each.
func TestRunClusterReleasesItsPlan(t *testing.T) {
	ds := dataset.MustNew(dataset.Spec{Name: "plan-lifetime", F: 1 << 15, MeanSize: 64, Classes: 2, Seed: 5})
	opts := baseOptions()
	opts.Epochs, opts.VerifySamples = 2, false
	// heapAfter runs repetitions [from, to), each on a seed of its own, and
	// returns the live heap once they are garbage.
	heapAfter := func(from, to int) int64 {
		for i := from; i < to; i++ {
			opts.Seed = uint64(9000 + i)
			if _, err := RunCluster(bg, ds, 2, opts, DrainAll(nil)); err != nil {
				t.Fatal(err)
			}
		}
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	// What one retained plan would hold at the least: its eager artifacts
	// (epoch orders and streams), before any ranking or placement.
	probe := plancache.New(0, 0)
	probe.Artifacts(access.Plan{
		Seed: 1, F: ds.Len(), N: 2, E: opts.Epochs,
		BatchPerWorker: opts.BatchPerWorker, DropLast: opts.DropLast,
	})
	planBytes := probe.Stats().Bytes

	shared := plancache.Shared().Stats()
	at2 := heapAfter(0, 2)
	if got := plancache.Shared().Stats(); got != shared {
		t.Errorf("RunCluster moved the shared plan cache: %+v, was %+v", got, shared)
	}
	// Twelve more clusters must not grow the heap by even half a plan: a
	// leak would add twelve whole ones, and runtime noise on a heap this
	// size is a few percent of one.
	at14 := heapAfter(2, 14)
	if grew := at14 - at2; grew > planBytes/2 {
		t.Errorf("live heap %d KiB after 2 clusters, %d KiB after 14: grew %d KiB, want under half a plan (%d KiB)",
			at2>>10, at14>>10, grew>>10, planBytes>>11)
	}
	runtime.KeepAlive(ds) // live at both readings
}
