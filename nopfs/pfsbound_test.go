package nopfs

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/access"
	"repro/internal/cachepolicy"
	"repro/internal/dataset"
	"repro/internal/invariant"
)

// countingDataset counts the reads the "filesystem" actually served.
type countingDataset struct {
	Dataset
	reads atomic.Int64
}

func (d *countingDataset) ReadSample(id int) ([]byte, error) {
	d.reads.Add(1)
	return d.Dataset.ReadSample(id)
}

// TestPFSReadBound runs the benchmark's filesystem-bound shape in small —
// four ranks, two staging threads and one class prefetcher each, caches
// covering half the dataset, a PFS slow enough that every read queues in
// the limiter behind the other eleven readers — and checks the read law
// (invariant.CheckPFSReadBound): no rank reads an assigned sample twice,
// and Stats.PFSReads accounts for every read the dataset served. The law
// holds on every schedule; the throttle is only there so that a regression
// (the class and staging prefetchers both going to the filesystem for one
// sample) happens hundreds of times a run instead of once in five thousand
// reads. It also pins that staging progress never runs backwards, which the
// class prefetchers' pacing and skip rules assume.
func TestPFSReadBound(t *testing.T) {
	const workers, f = 4, 1024
	ds := &countingDataset{Dataset: dataset.MustNew(dataset.Spec{
		Name: "pfs-bound", F: f, MeanSize: 4 << 10, StddevSize: 1 << 10, Classes: 8, Seed: 17,
	})}
	opts := NewOptions(
		WithSeed(99),
		WithEpochs(3),
		WithBatchPerWorker(16),
		WithStagingBuffer(1<<20),
		WithStagingThreads(2),
		WithClasses(Class{Name: "ram", CapacityBytes: 512 << 10, Threads: 1}),
		WithPFSBandwidth(32),
		WithVerifySamples(true),
	)
	var (
		mu     sync.Mutex
		assign *cachepolicy.Assignment
		staged = make([][]access.SampleID, workers) // delivered with a PFS source
	)
	stats, err := RunCluster(bg, ds, workers, opts, func(ctx context.Context, j *Job) error {
		var fromPFS []access.SampleID
		last := int64(-1)
		for s, err := range j.Samples(ctx) {
			if err != nil {
				return err
			}
			if s.Source == SourcePFS {
				fromPFS = append(fromPFS, access.SampleID(s.ID))
			}
			if p := j.progress.Load(); p < last {
				t.Errorf("rank %d: staging progress ran backwards, %d after %d", j.rank, p, last)
			} else {
				last = p
			}
		}
		mu.Lock()
		assign, staged[j.rank] = j.assign, fromPFS
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	reads := make([]int64, workers)
	var coalesced, stagedPFS int64
	for r, s := range stats {
		reads[r] = s.PFSReads
		coalesced += s.PFSCoalesced
		stagedPFS += s.Fetches[SourcePFS]
		if s.PFSReads < s.Fetches[SourcePFS] {
			t.Errorf("rank %d: PFSReads %d < staged PFS fetches %d", r, s.PFSReads, s.Fetches[SourcePFS])
		}
	}
	if err := invariant.CheckPFSReadBound(reads, ds.reads.Load(), staged, f,
		func(rank int, k access.SampleID) bool { return assign.Local(rank, k) >= 0 }); err != nil {
		t.Error(err)
	}
	t.Logf("%d dataset reads (%d staged), %d coalesced", ds.reads.Load(), stagedPFS, coalesced)
}

// TestStoreMaxOnlyAdvances pins the helper staging progress goes through.
func TestStoreMaxOnlyAdvances(t *testing.T) {
	var a atomic.Int64
	for _, step := range []struct{ v, want int64 }{{5, 5}, {3, 5}, {5, 5}, {9, 9}, {0, 9}} {
		if storeMax(&a, step.v); a.Load() != step.want {
			t.Fatalf("after storeMax(%d): %d, want %d", step.v, a.Load(), step.want)
		}
	}
}
