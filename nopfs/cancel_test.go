package nopfs

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// testCancelMidStream cancels the run context after a handful of samples
// and checks the cancellation contract on the given fabric: RunCluster
// returns context.Canceled within bounded time and every goroutine the
// cluster spawned — prefetchers, fabric serve loops, limiter waits — exits.
func testCancelMidStream(t *testing.T, fabricName string) {
	before := runtime.NumGoroutine()
	ds := testDataset(t, 96)
	opts := baseOptions()
	opts.Fabric = fabricName
	opts.Epochs = 4
	// Slow shared filesystem: at cancel time prefetchers are parked inside
	// bandwidth-limiter sleeps, proving the sleeps are interruptible.
	opts.PFSAggregateMBps = 4

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var delivered atomic.Int64
	type result struct {
		err error
	}
	done := make(chan result, 1)
	go func() {
		_, err := RunCluster(ctx, ds, 3, opts, func(ctx context.Context, j *Job) error {
			for s, err := range j.Samples(ctx) {
				if err != nil {
					return err
				}
				_ = s
				if delivered.Add(1) == 10 {
					cancel()
				}
			}
			return nil
		})
		done <- result{err}
	}()

	select {
	case r := <-done:
		if !errors.Is(r.err, context.Canceled) {
			t.Fatalf("canceled cluster returned %v, want context.Canceled", r.err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("canceled cluster did not tear down in bounded time")
	}
	if n := delivered.Load(); n < 10 {
		t.Fatalf("delivered %d samples before cancel, want >= 10", n)
	}
	// +2 of slack: the runtime may keep a finalizer/timer goroutine warm.
	goroutinesSettle(t, before+2)
}

func TestCancelMidStreamChanFabric(t *testing.T) {
	testCancelMidStream(t, FabricChan)
}

func TestCancelMidStreamTCPFabric(t *testing.T) {
	testCancelMidStream(t, FabricTCP)
}

// TestCancelBeforeStart pins the fast path: a pre-canceled context never
// spins up the cluster.
func TestCancelBeforeStart(t *testing.T) {
	ds := testDataset(t, 32)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunCluster(ctx, ds, 2, baseOptions(), DrainAll(nil))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled cluster returned %v", err)
	}
}

// TestCancelledGetBatchAndSamples pins the consumer-side contract of the
// streaming API: a canceled context surfaces the context error from both
// GetBatch and Samples instead of blocking or reporting a clean end.
func TestCancelledGetBatchAndSamples(t *testing.T) {
	ds := testDataset(t, 64)
	opts := baseOptions()
	opts.Epochs = 2
	_, err := RunCluster(context.Background(), ds, 2, opts, func(_ context.Context, j *Job) error {
		// A consumer-local cancel: the cluster context stays live.
		cctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		if batch, err := j.GetBatch(cctx, 4); err != nil || len(batch) != 4 {
			return err
		}
		cancel()
		if _, err := j.GetBatch(cctx, 4); !errors.Is(err, context.Canceled) {
			t.Errorf("GetBatch under canceled context returned %v", err)
		}
		var iterErr error
		for _, err := range j.Samples(cctx) {
			iterErr = err
		}
		if !errors.Is(iterErr, context.Canceled) {
			t.Errorf("Samples under canceled context yielded %v", iterErr)
		}
		// The job itself is still healthy: drain the rest under a live
		// context so the cluster finishes cleanly.
		for _, err := range j.Samples(context.Background()) {
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRunClusterAggregatesRankErrors pins the errors.Join satellite: when
// several ranks fail, every rank's error must be visible in the joined
// result, not just the lowest rank's.
func TestRunClusterAggregatesRankErrors(t *testing.T) {
	ds := testDataset(t, 64)
	opts := baseOptions()
	errRank := [3]error{
		errors.New("rank-0 boom"),
		nil,
		errors.New("rank-2 boom"),
	}
	_, err := RunCluster(context.Background(), ds, 3, opts, func(ctx context.Context, j *Job) error {
		// Drain fully so no rank blocks on a failed peer's cache.
		for _, serr := range j.Samples(ctx) {
			if serr != nil {
				return serr
			}
		}
		return errRank[j.Rank()]
	})
	if err == nil {
		t.Fatal("failing ranks reported no error")
	}
	for _, want := range []error{errRank[0], errRank[2]} {
		if !errors.Is(err, want) {
			t.Errorf("joined error %v does not contain %v", err, want)
		}
	}
}

// failingDataset returns read errors once a sample-id threshold of reads
// has been crossed, exercising the prefetcher failure path.
type failingDataset struct {
	Dataset
	reads     atomic.Int64
	failAfter int64
}

var errInjected = errors.New("injected read failure")

func (d *failingDataset) ReadSample(id int) ([]byte, error) {
	if d.reads.Add(1) > d.failAfter {
		return nil, errInjected
	}
	return d.Dataset.ReadSample(id)
}

// TestClusterPrefetchErrorSurfaces pins the failure path the race fix
// hardened: a prefetcher hitting a fatal read error must surface it through
// Get on every affected rank, concurrently with consumers — not hang, not
// race.
func TestClusterPrefetchErrorSurfaces(t *testing.T) {
	base := testDataset(t, 96)
	ds := &failingDataset{Dataset: base, failAfter: 40}
	opts := baseOptions()
	opts.Epochs = 3
	_, err := RunCluster(bg, ds, 3, opts, DrainAll(nil))
	if err == nil {
		t.Fatal("injected read failure did not surface")
	}
	if !errors.Is(err, errInjected) {
		t.Fatalf("got %v, want the injected failure", err)
	}
}

// TestClusterEarlyConsumerStop exercises shutdown while prefetchers are
// mid-flight: the consumer walks away after a few samples and RunCluster
// must drain and close every rank cleanly.
func TestClusterEarlyConsumerStop(t *testing.T) {
	ds := testDataset(t, 96)
	opts := baseOptions()
	opts.Epochs = 3
	_, err := RunCluster(bg, ds, 3, opts, func(ctx context.Context, j *Job) error {
		for i := 0; i < 5; i++ {
			if _, ok, err := j.Get(ctx); err != nil || !ok {
				return err
			}
		}
		return nil // stop early; Close runs with prefetchers active
	})
	if err != nil {
		t.Fatal(err)
	}
}
