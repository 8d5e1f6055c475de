package nopfs

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/access"
	"repro/internal/chaos"
)

// The elastic-soak tier: live clusters under elastic membership schedules —
// ranks joining and leaving at epoch boundaries — asserting the delivery
// laws the schedules must preserve:
//
//   - every rank delivers exactly its re-partitioned plan stream, in order;
//   - the union of deliveries conserves the plan (each sample exactly once
//     per epoch — nothing lost when a rank sits an epoch out);
//   - a rank never delivers a sample from an epoch outside its membership
//     window, and a rank with an empty window ends cleanly;
//   - teardown leaks no goroutines.
//
// CI runs this file with -race alongside TestChaosSoak (`make chaos-soak`).

// elasticStreams computes the delivery oracle for one elastic run: each
// rank's stream under the plan's re-partitioned epoch ownership.
func elasticStreams(t *testing.T, f, workers int, opts Options) ([][]access.SampleID, *access.Plan) {
	t.Helper()
	spec, err := access.CanonicalSpec(opts.Access)
	if err != nil {
		t.Fatal(err)
	}
	plan := &access.Plan{
		Seed: opts.Seed, F: f, N: workers, E: opts.Epochs,
		BatchPerWorker: opts.BatchPerWorker, DropLast: opts.DropLast,
		Access: spec,
	}
	streams := make([][]access.SampleID, workers)
	for w := range streams {
		streams[w] = plan.WorkerStream(w)
	}
	return streams, plan
}

// delivery is one delivered sample as the training loop saw it.
type delivery struct {
	id, epoch int
}

// runElastic runs a cluster and records every rank's deliveries with the
// epoch each sample was reported under.
func runElastic(t *testing.T, ds Dataset, workers int, opts Options) [][]delivery {
	t.Helper()
	got := make([][]delivery, workers)
	var mu sync.Mutex
	_, err := RunCluster(bg, ds, workers, opts, func(ctx context.Context, j *Job) error {
		var ds []delivery
		for s, err := range j.Samples(ctx) {
			if err != nil {
				return err
			}
			ds = append(ds, delivery{id: s.ID, epoch: s.Epoch})
		}
		mu.Lock()
		got[j.Rank()] = ds
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestElasticSoak(t *testing.T) {
	schedules := []struct{ name, spec string }{
		{"join", "elastic:join=3@1"},
		{"leave", "elastic:leave=1@2"},
		{"churn", "elastic:join=3@1,leave=1@2"},
		// A rank whose membership window is empty: join at the epoch count
		// means it never activates and must end cleanly with zero samples.
		{"never-joins", "elastic:join=3@3"},
	}
	seeds := []uint64{1234, 99}
	if testing.Short() {
		seeds = seeds[:1]
	}
	before := runtime.NumGoroutine()
	for _, sc := range schedules {
		for _, seed := range seeds {
			t.Run(fmt.Sprintf("%s/seed%d", sc.name, seed), func(t *testing.T) {
				const workers, f = 4, 48
				opts := baseOptions()
				opts.Seed = seed
				opts.Fabric = FabricChan
				opts.Access = sc.spec
				opts.Resilience = DefaultResilience()

				ds := testDataset(t, f)
				got := runElastic(t, ds, workers, opts)
				want, plan := elasticStreams(t, f, workers, opts)

				// Law 1: exact per-rank delivery, in schedule order.
				for w := 0; w < workers; w++ {
					if len(got[w]) != len(want[w]) {
						t.Fatalf("rank %d delivered %d samples, want %d", w, len(got[w]), len(want[w]))
					}
					for i := range want[w] {
						if got[w][i].id != int(want[w][i]) {
							t.Fatalf("rank %d position %d: got %d, want %d", w, i, got[w][i].id, want[w][i])
						}
					}
				}

				// Law 2: conservation — each sample exactly once per epoch
				// across the whole cluster, however the partition moved.
				counts := make(map[int]int)
				for w := range got {
					for _, d := range got[w] {
						counts[d.id]++
					}
				}
				for id := 0; id < f; id++ {
					if counts[id] != opts.Epochs {
						t.Errorf("sample %d delivered %d times, want %d (once per epoch)", id, counts[id], opts.Epochs)
					}
				}

				// Law 3: membership windows — a rank only delivers samples
				// from epochs it is active in.
				for w := range got {
					for _, d := range got[w] {
						activeHere := false
						for _, r := range plan.ActiveRanks(d.epoch) {
							if r == w {
								activeHere = true
								break
							}
						}
						if !activeHere {
							t.Fatalf("rank %d delivered sample %d in epoch %d, outside its membership window", w, d.id, d.epoch)
						}
					}
				}
			})
		}
	}
	// One settle check over the whole matrix, including the empty-window
	// rank whose staging closes before any prefetcher stages a byte.
	goroutinesSettle(t, before+2)
}

// TestElasticComposesWithCrashChaos: an elastic schedule composes with a
// node crash. Rank 1 joins at epoch 1 and crashes there, so its pre-crash
// stream is empty: it launches no prefetcher and reads nothing from the PFS,
// the survivors deliver its plan rounds as chaos.SurvivorStreams slices
// them, and every sample is delivered exactly once per epoch.
func TestElasticComposesWithCrashChaos(t *testing.T) {
	const workers, f = 3, 48
	opts := baseOptions()
	opts.Access = "elastic:join=1@1"
	crash, err := chaos.ParseProfile("crash:1@1")
	if err != nil {
		t.Fatal(err)
	}
	opts.Chaos = crash
	ds := testDataset(t, f)
	if err := opts.Validate(ds, workers); err != nil {
		t.Fatalf("elastic access pattern × crash chaos rejected: %v", err)
	}
	delivered := make([][]int, workers)
	var survivorsDone sync.WaitGroup
	survivorsDone.Add(workers - 1)
	stats, err := RunCluster(bg, ds, workers, opts, func(ctx context.Context, j *Job) error {
		if j.Rank() == 1 {
			// Consume only once the survivors are done: a prefetcher the
			// crashed rank launched would have had the whole run to read.
			survivorsDone.Wait()
		} else {
			defer survivorsDone.Done()
		}
		for s, err := range j.Samples(ctx) {
			if err != nil {
				return err
			}
			delivered[j.Rank()] = append(delivered[j.Rank()], s.ID)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	_, plan := elasticStreams(t, f, workers, opts)
	streams, ends := plan.AllStreamsFromOrders(plan.EpochOrders(0), 0)
	want, _ := crash.Compile(opts.Seed).SurvivorStreams(workers,
		func(w int) ([]access.SampleID, []int) { return streams[w], ends[w] })
	for w := range want {
		if len(delivered[w]) != len(want[w]) {
			t.Fatalf("rank %d delivered %d samples, want %d", w, len(delivered[w]), len(want[w]))
		}
		for i, id := range want[w] {
			if delivered[w][i] != int(id) {
				t.Fatalf("rank %d position %d: got %d, want %d", w, i, delivered[w][i], id)
			}
		}
	}
	if s := stats[1]; s.Delivered != 0 || s.PFSReads != 0 || s.CachedBytes != 0 {
		t.Errorf("rank 1 crashed before its first sample but delivered %d, read %d from the PFS and cached %d bytes",
			s.Delivered, s.PFSReads, s.CachedBytes)
	}
	counts := make(map[int]int)
	for _, ids := range delivered {
		for _, id := range ids {
			counts[id]++
		}
	}
	for id := 0; id < f; id++ {
		if counts[id] != opts.Epochs {
			t.Errorf("sample %d delivered %d times, want %d (once per epoch)", id, counts[id], opts.Epochs)
		}
	}
}
