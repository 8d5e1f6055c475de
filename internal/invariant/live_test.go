package invariant

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/access"
	"repro/internal/chaos"
	"repro/internal/dataset"
	"repro/internal/hwspec"
	"repro/internal/prng"
	isim "repro/internal/sim"
	"repro/nopfs"
)

// The live half of the invariant suite: the laws that survive wall-clock
// noise on the channel-fabric path. Live runs are not schedule-deterministic
// in their timing metrics, but delivery is — every worker must receive
// exactly its clairvoyant stream, faults or not, and stalls are never
// negative.

// liveOptions is the invariant tier's standard small cluster.
func liveOptions(seed uint64) nopfs.Options {
	return nopfs.NewOptions(
		nopfs.WithSeed(seed),
		nopfs.WithEpochs(3),
		nopfs.WithBatchPerWorker(4),
		nopfs.WithStagingBuffer(64<<10),
		nopfs.WithStagingThreads(3),
		nopfs.WithClasses(nopfs.Class{Name: "ram", CapacityBytes: 256 << 10, Threads: 2}),
		nopfs.WithVerifySamples(true),
	)
}

// runLive executes a cluster on opts' fabric (chan unless set) and returns
// per-rank delivered ids and stats.
func runLive(t *testing.T, workers, f int, opts nopfs.Options) ([][]int, []nopfs.Stats) {
	t.Helper()
	ds := dataset.MustNew(dataset.Spec{
		Name: "invariant-live", F: f, MeanSize: 2048, StddevSize: 512, Classes: 10, Seed: 5,
	})
	delivered := make([][]int, workers)
	var mu sync.Mutex
	stats, err := nopfs.RunCluster(context.Background(), ds, workers, opts,
		func(ctx context.Context, j *nopfs.Job) error {
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

// livePlan derives the access plan a live run follows, pattern included.
func livePlan(t *testing.T, f, workers int, opts nopfs.Options) *access.Plan {
	t.Helper()
	spec, err := access.CanonicalSpec(opts.Access)
	if err != nil {
		t.Fatal(err)
	}
	return &access.Plan{
		Seed: opts.Seed, F: f, N: workers, E: opts.Epochs,
		BatchPerWorker: opts.BatchPerWorker, DropLast: opts.DropLast,
		Access: spec,
	}
}

// expectedStreams is the delivery oracle: each rank's clairvoyant stream,
// reshaped by the profile's crash redistribution (a no-op without crashes).
// This is the exact same rule Job and the simulator apply, so live delivery
// must match it position for position.
func expectedStreams(t *testing.T, f, workers int, opts nopfs.Options) [][]access.SampleID {
	t.Helper()
	plan := livePlan(t, f, workers, opts)
	streams, ends := plan.AllStreamsFromOrders(plan.EpochOrders(0), 0)
	sched := opts.Chaos.Compile(opts.Seed)
	reshaped, _ := sched.SurvivorStreams(workers,
		func(w int) ([]access.SampleID, []int) { return streams[w], ends[w] })
	return reshaped
}

// checkExactSchedule asserts every rank received exactly its scheduled
// (possibly crash-redistributed) stream.
func checkExactSchedule(t *testing.T, delivered [][]int, f, workers int, opts nopfs.Options) {
	t.Helper()
	want := expectedStreams(t, f, workers, opts)
	for w := 0; w < workers; w++ {
		if len(delivered[w]) != len(want[w]) {
			t.Fatalf("rank %d delivered %d samples, want %d", w, len(delivered[w]), len(want[w]))
		}
		for i := range want[w] {
			if delivered[w][i] != int(want[w][i]) {
				t.Fatalf("rank %d position %d: got %d, want %d", w, i, delivered[w][i], want[w][i])
			}
		}
	}
}

// goroutinesSettle polls until the goroutine count drops to limit, failing
// after a bounded wait — the leak check for live cluster teardown.
func goroutinesSettle(t *testing.T, limit int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= limit {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines did not settle: %d running, want <= %d", runtime.NumGoroutine(), limit)
}

// TestLiveLawsUnderRandomProfiles drives randomized non-structural fault
// profiles through real chan-fabric clusters: exact schedule delivery and
// non-negative stalls must survive stragglers, degraded tiers, and flaky
// fabrics.
func TestLiveLawsUnderRandomProfiles(t *testing.T) {
	g := prng.New(0x11FE)
	for trial := 0; trial < 4; trial++ {
		const workers, f = 3, 72
		opts := liveOptions(g.Uint64())
		opts.Chaos = RandomProfile(g.Derive(uint64(trial)), workers, opts.Epochs, len(opts.Classes), false)
		// Keep injected fabric delays tiny: this is a correctness tier, not
		// a timing benchmark.
		opts.Chaos.Fabric.LatencySeconds /= 10
		opts.Chaos.Fabric.JitterSeconds /= 10
		delivered, stats := runLive(t, workers, f, opts)
		checkExactSchedule(t, delivered, f, workers, opts)
		for _, s := range stats {
			if s.StallSeconds < 0 {
				t.Errorf("trial %d rank %d: negative stall %g", trial, s.Rank, s.StallSeconds)
			}
			if s.Delivered == 0 {
				t.Errorf("trial %d rank %d: delivered nothing", trial, s.Rank)
			}
		}
	}
}

// TestLiveCrashRecovery drives the crash-recovery contract end to end on a
// real chan-fabric cluster: rank 1 crashes after epoch 0, delivers only its
// pre-crash prefix, and goes away (its endpoint closes); the survivors
// absorb its orphaned rounds round-robin by the shared redistribution rule.
// The laws checked:
//
//   - exact per-rank delivery of the redistributed streams;
//   - exactly-once conservation of the whole plan (CheckExactlyOnce);
//   - RedistributedRounds accounting matches the orphan count;
//   - teardown leaks no goroutines despite the mid-run endpoint close;
//   - the live stall stays inside the simulator's predicted envelope for
//     the same profile (CheckLiveStallBound).
func TestLiveCrashRecovery(t *testing.T) {
	before := runtime.NumGoroutine()
	const workers, f = 3, 48
	opts := liveOptions(99)
	opts.Chaos = nopfs.ChaosProfile{
		Name:    "crash",
		Crashes: []chaos.Crash{{Worker: 1, AtEpoch: 1}},
	}
	opts.Resilience = nopfs.DefaultResilience()

	delivered, stats := runLive(t, workers, f, opts)
	checkExactSchedule(t, delivered, f, workers, opts)

	plan := livePlan(t, f, workers, opts)
	planStreams := make([][]access.SampleID, workers)
	for w := range planStreams {
		planStreams[w] = plan.WorkerStream(w)
	}
	if err := CheckExactlyOnce(delivered, planStreams); err != nil {
		t.Error(err)
	}

	// The crashed rank absorbs nothing; the survivors absorb exactly its
	// orphaned rounds between them.
	orphaned := len(planStreams[1]) - len(delivered[1])
	if orphaned <= 0 {
		t.Fatalf("crash at epoch 1 orphaned %d rounds, want > 0", orphaned)
	}
	var absorbed int64
	for _, s := range stats {
		if s.Rank == 1 {
			if s.RedistributedRounds != 0 {
				t.Errorf("crashed rank reports %d redistributed rounds, want 0", s.RedistributedRounds)
			}
			continue
		}
		if s.RedistributedRounds <= 0 {
			t.Errorf("survivor rank %d absorbed %d rounds, want > 0", s.Rank, s.RedistributedRounds)
		}
		absorbed += s.RedistributedRounds
	}
	if absorbed != int64(orphaned) {
		t.Errorf("survivors absorbed %d rounds, crash orphaned %d", absorbed, orphaned)
	}

	// Stall envelope: simulate the same plan and profile and require the
	// live stall to stay within an order-of-magnitude gate of the
	// prediction. The chan fabric on 2 KiB samples is far faster than the
	// simulated datacenter, so this catches hangs, not percentage drift.
	var maxStall float64
	for _, s := range stats {
		if s.StallSeconds > maxStall {
			maxStall = s.StallSeconds
		}
	}
	sim := simStallFor(t, f, workers, opts)
	if err := CheckLiveStallBound(maxStall, sim, 50, 2.0); err != nil {
		t.Error(err)
	}

	// +2 of slack: the runtime may keep a finalizer/timer goroutine warm.
	goroutinesSettle(t, before+2)
}

// simStallFor predicts the stall time of the live configuration's plan and
// chaos profile with the simulator's NoPFS policy.
func simStallFor(t *testing.T, f, workers int, opts nopfs.Options) float64 {
	t.Helper()
	ds := dataset.MustNew(dataset.Spec{
		Name: "invariant-live", F: f, MeanSize: 2048, StddevSize: 512, Classes: 10, Seed: 5,
	})
	cfg := isim.Config{
		Sys: hwspec.SmallCluster(),
		Work: hwspec.Workload{
			Name: "crash-recovery", ComputeMBps: 64, PreprocMBps: 200,
			BatchPerWorker: opts.BatchPerWorker, Epochs: opts.Epochs, Workers: workers,
		},
		DS: ds, Seed: opts.Seed, DropLast: opts.DropLast, Chaos: opts.Chaos,
	}
	spec, err := access.CanonicalSpec(opts.Access)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Access = spec
	pol, err := isim.PolicyByName(isim.NameNoPFS)
	if err != nil {
		t.Fatal(err)
	}
	r, err := isim.Run(cfg, pol)
	if err != nil {
		t.Fatal(err)
	}
	if r.Failed {
		t.Fatalf("sim prediction failed: %s", r.FailReason)
	}
	return r.StallSeconds
}

// TestLiveCrashLawsUnderRandomProfiles extends the random-profile law suite
// to structural faults: random profiles that may include node crashes (plus
// stragglers, degraded tiers, and flaky fabrics) must still deliver the
// redistributed streams exactly, conserve the plan exactly once, and tear
// down clean.
func TestLiveCrashLawsUnderRandomProfiles(t *testing.T) {
	g := prng.New(0xC4A5)
	for trial := 0; trial < 3; trial++ {
		const workers, f = 3, 48
		opts := liveOptions(g.Uint64())
		opts.Chaos = RandomProfile(g.Derive(uint64(trial)), workers, opts.Epochs, len(opts.Classes), true)
		opts.Chaos.Fabric.LatencySeconds /= 10
		opts.Chaos.Fabric.JitterSeconds /= 10
		opts.Resilience = nopfs.DefaultResilience()
		delivered, stats := runLive(t, workers, f, opts)
		checkExactSchedule(t, delivered, f, workers, opts)

		plan := livePlan(t, f, workers, opts)
		planStreams := make([][]access.SampleID, workers)
		for w := range planStreams {
			planStreams[w] = plan.WorkerStream(w)
		}
		if err := CheckExactlyOnce(delivered, planStreams); err != nil {
			t.Errorf("trial %d: %v", trial, err)
		}
		for _, s := range stats {
			if s.StallSeconds < 0 {
				t.Errorf("trial %d rank %d: negative stall %g", trial, s.Rank, s.StallSeconds)
			}
		}
	}
}

// TestLivePatternAgreement is the sim-vs-live agreement law for access
// patterns: a live chan-fabric cluster running a non-uniform workload must
// deliver exactly the pattern-aware clairvoyant streams the simulator plans
// from — same spec, same seed, position for position — and its measured
// stall must stay inside the simulator's predicted envelope for the same
// pattern. Permutation patterns additionally conserve the plan exactly
// once; elastic schedules conserve it across the membership windows.
func TestLivePatternAgreement(t *testing.T) {
	before := runtime.NumGoroutine()
	const workers, f = 3, 48
	patterns := []struct {
		name, spec string
	}{
		{"zipf", "zipf:s=1.1"},
		{"hot-set", "boost:frac=0.1,factor=8"},
		{"curriculum", "curriculum:buckets=3"},
		{"mix", "mix:w=0.5/0.3/0.2"},
		{"elastic", "elastic:join=2@1,leave=0@2"},
	}
	for _, tc := range patterns {
		t.Run(tc.name, func(t *testing.T) {
			opts := liveOptions(7)
			opts.Access = tc.spec
			delivered, stats := runLive(t, workers, f, opts)
			checkExactSchedule(t, delivered, f, workers, opts)

			plan := livePlan(t, f, workers, opts)
			planStreams := make([][]access.SampleID, workers)
			for w := range planStreams {
				planStreams[w] = plan.WorkerStream(w)
			}
			if err := CheckExactlyOnce(delivered, planStreams); err != nil {
				t.Error(err)
			}
			if err := CheckFrequencyConservation(plan); err != nil {
				t.Error(err)
			}

			var maxStall float64
			for _, s := range stats {
				if s.StallSeconds < 0 {
					t.Errorf("rank %d: negative stall %g", s.Rank, s.StallSeconds)
				}
				if s.StallSeconds > maxStall {
					maxStall = s.StallSeconds
				}
			}
			sim := simStallFor(t, f, workers, opts)
			if err := CheckLiveStallBound(maxStall, sim, 50, 2.0); err != nil {
				t.Error(err)
			}
		})
	}
	goroutinesSettle(t, before+2)
}

// TestLiveEpochEndsOneRepresentation pins the one stream representation
// both engines share: a rank's delivery stream and its cumulative epoch
// ends, as chaos.RedistributeStream returns them from the plan's. Across
// uniform, zipf and elastic plans, fault-free and under node-crash, on 3
// chan ranks: every rank's ends are non-nil, non-decreasing and end at its
// stream's length; every delivered Sample.Epoch and Sample.Iteration is
// what the ends give for its position; and the union of deliveries is the
// plan, exactly once.
func TestLiveEpochEndsOneRepresentation(t *testing.T) {
	const workers, f = 3, 60
	ds := dataset.MustNew(dataset.Spec{
		Name: "invariant-live", F: f, MeanSize: 2048, StddevSize: 512, Classes: 10, Seed: 5,
	})
	for _, pattern := range []string{"uniform", "zipf", "elastic"} {
		for _, preset := range []string{"fault-free", "node-crash"} {
			t.Run(pattern+"/"+preset, func(t *testing.T) {
				opts := liveOptions(41)
				opts.Access = pattern
				if preset != "fault-free" {
					prof, err := chaos.PresetByName(preset)
					if err != nil {
						t.Fatal(err)
					}
					opts.Chaos = prof
				}
				plan := livePlan(t, f, workers, opts)
				planStreams, planEnds := plan.AllStreamsFromOrders(plan.EpochOrders(0), 0)
				streams, ends := opts.Chaos.Compile(opts.Seed).SurvivorStreams(workers,
					func(w int) ([]access.SampleID, []int) { return planStreams[w], planEnds[w] })

				got := make([][]nopfs.Sample, workers)
				if _, err := nopfs.RunCluster(context.Background(), ds, workers, opts,
					func(ctx context.Context, j *nopfs.Job) error {
						var out []nopfs.Sample
						for s, err := range j.Samples(ctx) {
							if err != nil {
								return err
							}
							s.Data = nil
							out = append(out, s)
						}
						got[j.Rank()] = out
						return nil
					}); err != nil {
					t.Fatal(err)
				}

				delivered := make([][]int, workers)
				for w := 0; w < workers; w++ {
					we := ends[w]
					if we == nil || we[len(we)-1] != len(streams[w]) {
						t.Fatalf("rank %d: ends %v do not end at stream length %d", w, we, len(streams[w]))
					}
					for e := 1; e < len(we); e++ {
						if we[e] < we[e-1] {
							t.Fatalf("rank %d: ends %v decrease at epoch %d", w, we, e)
						}
					}
					if len(got[w]) != len(streams[w]) {
						t.Fatalf("rank %d delivered %d samples, want %d", w, len(got[w]), len(streams[w]))
					}
					epoch, start := 0, 0
					for pos, s := range got[w] {
						for pos >= we[epoch] {
							start = we[epoch]
							epoch++
						}
						if s.ID != int(streams[w][pos]) || s.Epoch != epoch || s.Iteration != (pos-start)/opts.BatchPerWorker {
							t.Fatalf("rank %d position %d: got sample %d at (epoch %d, iteration %d), want %d at (%d, %d)",
								w, pos, s.ID, s.Epoch, s.Iteration, streams[w][pos], epoch, (pos-start)/opts.BatchPerWorker)
						}
						delivered[w] = append(delivered[w], s.ID)
					}
				}
				if err := CheckExactlyOnce(delivered, planStreams); err != nil {
					t.Error(err)
				}
			})
		}
	}
}

// TestCrashShortRunsExactlyOnce: the job stages its stream in runs of
// BatchPerWorker positions, so a crash-reshaped stream whose length is not a
// multiple of the batch ends in a short run. On live chan clusters, with a
// staging budget above a run and one below a single sample, and on a TCP
// cluster whose budget makes a staging thread claim windows of several runs
// (the last clipped to the stream's end), every rank delivers its reshaped
// stream and the union is the plan, exactly once.
func TestCrashShortRunsExactlyOnce(t *testing.T) {
	const workers, f = 3, 62
	for _, spec := range []string{"crash:1@1", "crash:2@1,crash:1@2"} {
		for _, batch := range []int{4, 5} {
			for _, tc := range []struct {
				fabric string
				budget int64
			}{{nopfs.FabricChan, 64 << 10}, {nopfs.FabricChan, 1 << 10}, {nopfs.FabricTCP, 256 << 10}} {
				name := fmt.Sprintf("%s/batch %d/%s budget %d", spec, batch, tc.fabric, tc.budget)
				opts := liveOptions(17)
				opts.BatchPerWorker, opts.StagingBytes, opts.Fabric = batch, tc.budget, tc.fabric
				prof, err := chaos.ParseProfile(spec)
				if err != nil {
					t.Fatal(err)
				}
				opts.Chaos = prof
				plan := livePlan(t, f, workers, opts)
				planStreams, planEnds := plan.AllStreamsFromOrders(plan.EpochOrders(0), 0)
				want, _ := prof.Compile(opts.Seed).SurvivorStreams(workers,
					func(w int) ([]access.SampleID, []int) { return planStreams[w], planEnds[w] })
				short := 0
				for _, s := range want {
					if len(s)%batch != 0 {
						short++
					}
				}
				if short == 0 {
					t.Fatalf("%s: every reshaped stream is a multiple of the batch", name)
				}
				delivered, _ := runLive(t, workers, f, opts)
				for w, s := range want {
					oracle := make([]int, len(s))
					for i, id := range s {
						oracle[i] = int(id)
					}
					if !slices.Equal(delivered[w], oracle) {
						t.Errorf("%s: live rank %d delivered %v, want %v", name, w, delivered[w], oracle)
					}
				}
				if err := CheckExactlyOnce(delivered, planStreams); err != nil {
					t.Errorf("%s: %v", name, err)
				}
			}
		}
	}
}

// TestCrashRedistributionExactlyOnce is the crash-redistribution law over
// randomized {access preset × crash} trials: every preset, the uniform
// shuffle included, on a random batch size, with one or two crashes at
// random ranks and epochs ≥ 1. The plan conserves its access volume
// (CheckFrequencyConservation), and the union of the ranks' redistributed
// streams (chaos.SurvivorStreams, a pure function) delivers every plan round
// exactly once (CheckExactlyOnce). The first trials also run on a live chan
// cluster, which must deliver that oracle rank by rank.
func TestCrashRedistributionExactlyOnce(t *testing.T) {
	const workers, f, trials, liveTrials = 3, 60, 300, 6
	specs := append([]string{""}, access.PresetNames()...)
	g := prng.New(0xC4A5)
	for trial := 0; trial < trials; trial++ {
		opts := liveOptions(g.Uint64())
		opts.BatchPerWorker = 1 + g.Intn(6)
		opts.Access = specs[g.Intn(len(specs))]
		crash := func() string { return fmt.Sprintf("crash:%d@%d", 1+g.Intn(workers-1), 1+g.Intn(opts.Epochs-1)) }
		spec := crash()
		if g.Intn(2) == 0 {
			spec += "," + crash()
		}
		prof, err := chaos.ParseProfile(spec)
		if err != nil {
			t.Fatal(err)
		}
		opts.Chaos = prof
		name := fmt.Sprintf("trial %d (access %q, %s, batch %d)", trial, opts.Access, spec, opts.BatchPerWorker)

		plan := livePlan(t, f, workers, opts)
		if err := CheckFrequencyConservation(plan); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		planStreams, planEnds := plan.AllStreamsFromOrders(plan.EpochOrders(0), 0)
		want, _ := prof.Compile(opts.Seed).SurvivorStreams(workers,
			func(w int) ([]access.SampleID, []int) { return planStreams[w], planEnds[w] })
		oracle := make([][]int, workers)
		for w, s := range want {
			for _, id := range s {
				oracle[w] = append(oracle[w], int(id))
			}
		}
		if err := CheckExactlyOnce(oracle, planStreams); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if trial >= liveTrials {
			continue
		}
		delivered, _ := runLive(t, workers, f, opts)
		for w := range oracle {
			if !slices.Equal(delivered[w], oracle[w]) {
				t.Errorf("%s: live rank %d delivered %v, want %v", name, w, delivered[w], oracle[w])
			}
		}
	}
}
