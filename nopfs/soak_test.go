package nopfs

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/access"
	"repro/internal/chaos"
)

// The chaos-soak tier: the live fault matrix — both fabrics crossed with
// the structural and non-structural chaos presets — run under the default
// resilience policy, asserting the delivery laws that must survive faults:
//
//   - every rank delivers exactly its scheduled stream, reshaped by crash
//     redistribution when the preset crashes a node;
//   - the union of deliveries conserves the plan (exactly once, nothing
//     lost, nothing duplicated);
//   - teardown leaks no goroutines even when a crashed rank closes its
//     endpoint mid-run.
//
// CI runs this file with -race (`make chaos-soak`), where the concurrent
// retry/breaker/crash machinery gets its memory-model audit.

// soakPresets are the chaos profiles the soak crosses with each fabric:
// a pure node crash, a pure fabric fault, the combined meltdown (straggler +
// degraded tiers + crash + flaky fabric), and a crash of rank 0.
var soakPresets = []string{"node-crash", "flaky-fabric", "meltdown", "crash:0@1"}

// soakStreams computes the delivery oracle for one soak run: each rank's
// plan stream reshaped by the profile's crash schedule.
func soakStreams(f, workers int, opts Options) [][]access.SampleID {
	plan := &access.Plan{
		Seed: opts.Seed, F: f, N: workers, E: opts.Epochs,
		BatchPerWorker: opts.BatchPerWorker, DropLast: opts.DropLast,
	}
	streams, ends := plan.AllStreamsFromOrders(plan.EpochOrders(0), 0)
	sched := opts.Chaos.Compile(opts.Seed)
	reshaped, _ := sched.SurvivorStreams(workers,
		func(w int) ([]access.SampleID, []int) { return streams[w], ends[w] })
	return reshaped
}

func TestChaosSoak(t *testing.T) {
	seeds := []uint64{1234, 99}
	if testing.Short() {
		seeds = seeds[:1]
	}
	before := runtime.NumGoroutine()
	for _, fabric := range []string{FabricChan, FabricTCP} {
		for _, preset := range soakPresets {
			for _, seed := range seeds {
				t.Run(fmt.Sprintf("%s/%s/seed%d", fabric, preset, seed), func(t *testing.T) {
					profile, err := chaos.ParseProfile(preset)
					if err != nil {
						t.Fatal(err)
					}
					const workers, f = 3, 48
					opts := baseOptions()
					opts.Seed = seed
					opts.Fabric = fabric
					opts.Chaos = profile
					opts.Resilience = DefaultResilience()

					ds := testDataset(t, f)
					delivered, stats := runAndCollect(t, ds, workers, opts)

					want := soakStreams(f, workers, opts)
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
					for _, s := range stats {
						if s.StallSeconds < 0 {
							t.Errorf("rank %d: negative stall %g", s.Rank, s.StallSeconds)
						}
					}
				})
			}
		}
	}
	// One settle check over the whole matrix: a leak in any cell surfaces
	// here, including endpoints closed mid-run by crash enactment.
	goroutinesSettle(t, before+2)
}
