package nopfs

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
)

// Shared cluster/job test setup. Every test file in this package builds
// clusters from the same few shapes; keeping the helpers here means new test
// tiers (cancellation, grids, chaos) extend one copy instead of pasting a
// fourth.

// bg is the default context for tests that exercise the data paths rather
// than cancellation (see cancel_test.go for the cancellation tier).
var bg = context.Background()

// testDataset builds the standard synthetic dataset of f samples (2 KB mean
// payload, 10 classes, fixed seed).
func testDataset(t testing.TB, f int) *dataset.Synthetic {
	t.Helper()
	return dataset.MustNew(dataset.Spec{
		Name: "live", F: f, MeanSize: 2048, StddevSize: 512, Classes: 10, Seed: 21,
	})
}

// baseOptions is the standard small-cluster configuration: 3 epochs, one
// 256 KB RAM class, verified payloads.
func baseOptions() Options {
	return Options{
		Seed:           1234,
		Epochs:         3,
		BatchPerWorker: 4,
		StagingBytes:   64 << 10,
		StagingThreads: 3,
		Classes: []Class{
			{Name: "ram", CapacityBytes: 256 << 10, Threads: 2},
		},
		VerifySamples: true,
	}
}

// runAndCollect runs a cluster and returns every worker's delivered sample
// ids in order.
func runAndCollect(t *testing.T, ds Dataset, workers int, opts Options) ([][]int, []Stats) {
	t.Helper()
	delivered := make([][]int, workers)
	var mu sync.Mutex
	stats, err := RunCluster(bg, ds, workers, opts, func(ctx context.Context, j *Job) error {
		var ids []int
		for s, err := range j.Samples(ctx) {
			if err != nil {
				return err
			}
			ids = append(ids, s.ID)
		}
		mu.Lock()
		delivered[j.Rank()] = ids
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return delivered, stats
}

// goroutinesSettle polls until the live goroutine count drops back to (or
// below) want, failing with a full stack dump if it does not: the leak
// check behind the cancellation contract.
func goroutinesSettle(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= want {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutines leaked: %d live, want <= %d\n%s", runtime.NumGoroutine(), want, buf[:n])
}

// prestagedTags is a prestaged rank's expected source per stream position,
// from the job's own tags and placement, written as the source tags the law
// reads (invariant.CheckSourceAgreement). A sample the rank's classes are
// assigned is local: its class holds it, and the flight's re-check in
// locate serves it whatever its tag says. Any other sample is remote when
// its tag names a holder, whose class holds it too, and from the PFS
// otherwise.
func prestagedTags(j *Job) []byte {
	want := make([]byte, len(j.stream))
	for pos, k := range j.stream {
		if c := j.assign.Local(j.rank, k); c >= 0 {
			want[pos] = byte(c + 1)
		} else {
			want[pos] = j.tags[pos] & 0xf0
		}
	}
	return want
}

// tagSource is the source a tag names: its local class, else its holder,
// else the PFS.
func tagSource(tag byte) Source {
	switch {
	case tag&0x0f != 0:
		return SourceLocal
	case tag>>4 != 0:
		return SourceRemote
	}
	return SourcePFS
}
