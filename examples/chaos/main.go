// Chaos: fault & degradation scenarios on both execution engines.
//
// The paper evaluates NoPFS on healthy clusters; its value proposition is
// strongest exactly when the hardware misbehaves. This example runs the same
// deterministic fault profile — a straggler worker, a degraded storage tier,
// and a flaky interconnect — through:
//
//  1. the simulator, as a (scenario × policy × fault-profile) sweep grid
//     comparing clean vs faulted runs on identical access streams; and
//
//  2. a live in-process cluster, where the fabric decorator injects
//     latency and transient fetch failures and the straggler rank is paced
//     for real.
//
//     go run ./examples/chaos
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"repro/internal/chaos"
	"repro/internal/dataset"
	isim "repro/internal/sim"
	"repro/internal/sweep"
	"repro/nopfs"
)

// profile is the shared fault scenario: worker 1 runs half speed from epoch
// 1, the fastest tier loses 3/4 of its bandwidth from epoch 2, and every
// remote fetch pays 1-3 ms with a 5% transient failure rate.
func profile() chaos.Profile {
	return chaos.Profile{
		Name:       "demo",
		Stragglers: []chaos.Straggler{{Worker: 1, Factor: 2, FromEpoch: 1}},
		Tiers:      []chaos.TierDegradation{{Class: 0, Factor: 4, FromEpoch: 2}},
		Fabric:     chaos.FabricFault{LatencySeconds: 0.001, JitterSeconds: 0.002, FailRate: 0.05},
	}
}

func main() {
	ctx := context.Background()

	// --- Simulator: clean vs faulted on the Fig. 8d regime. -------------
	scenario, err := isim.ScenarioByID("fig8d")
	if err != nil {
		log.Fatal(err)
	}
	grid := sweep.ScenarioGrid(scenario, 0.01, 42, 1)
	grid.Profiles = sweep.ChaosProfiles(chaos.Profile{Name: "clean"}, profile())
	rep, err := (&sweep.Runner{}).Run(ctx, grid)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Simulated policy comparison, clean vs faulted (identical access streams):")
	if err := sweep.WriteText(os.Stdout, rep); err != nil {
		log.Fatal(err)
	}

	// --- Live cluster: the same profile injected for real. --------------
	ds := dataset.MustNew(dataset.Spec{
		Name: "chaos", F: 2000, MeanSize: 8 << 10, StddevSize: 2 << 10,
		Classes: 10, Seed: 7,
	})
	opts := nopfs.NewOptions(
		nopfs.WithSeed(0xBAD),
		nopfs.WithEpochs(3),
		nopfs.WithBatchPerWorker(16),
		nopfs.WithStagingBuffer(4<<20),
		nopfs.WithStagingThreads(4),
		nopfs.WithClasses(nopfs.Class{Name: "ram", CapacityBytes: 8 << 20, Threads: 2}),
		nopfs.WithPFSBandwidth(256),
		nopfs.WithChaos(profile()),
	)
	stats, err := nopfs.RunCluster(ctx, ds, 4, opts, nopfs.DrainAll(nil))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Live 4-worker cluster under the same profile (rank 1 straggles):")
	fmt.Println("rank  delivered  local  remote  pfs   miss-fallbacks  stall")
	for _, s := range stats {
		fmt.Printf("%4d  %9d  %5d  %6d  %4d  %14d  %5.2fs\n",
			s.Rank, s.Delivered,
			s.Fetches[nopfs.SourceLocal], s.Fetches[nopfs.SourceRemote], s.Fetches[nopfs.SourcePFS],
			s.RemoteFalsePositives, s.StallSeconds)
	}
}
