// ImageNet-style workload: a scaled-down ImageNet-1k run through the LIVE
// middleware with a full storage hierarchy — RAM class, filesystem-backed
// SSD class (real files under a temp directory), and a bandwidth-limited
// PFS — comparing NoPFS's fetch mix and stall time across epochs against a
// naive loader that reads everything from the PFS.
//
//	go run ./examples/imagenet
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/dataset"
	"repro/nopfs"
)

func main() {
	// ImageNet-1k's size distribution (0.1077 MB ± 0.1 MB), scaled to
	// 3,000 samples so the example runs in seconds.
	spec := dataset.ImageNet1kSpec().Scale(3000.0 / 1281167.0)
	ds := dataset.MustNew(spec)
	fmt.Printf("dataset: %s, %d samples, %.1f MiB total\n",
		ds.Name(), ds.Len(), float64(ds.TotalSize())/(1<<20))

	ssdRoot, err := os.MkdirTemp("", "nopfs-ssd-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(ssdRoot)

	opts := nopfs.NewOptions(
		nopfs.WithSeed(99),
		nopfs.WithEpochs(4),
		nopfs.WithBatchPerWorker(32),
		nopfs.WithStagingBuffer(8<<20),
		nopfs.WithStagingThreads(4),
		// Fast but small RAM; larger filesystem-backed "SSD" with a rate
		// limit, holding real sample files (the "dir" storage backend).
		nopfs.WithClasses(
			nopfs.Class{Name: "ram", CapacityBytes: 64 << 20, Threads: 2, ReadMBps: 4096, WriteMBps: 4096},
			nopfs.Class{Name: "ssd", CapacityBytes: 512 << 20, Dir: ssdRoot, Threads: 2, ReadMBps: 512, WriteMBps: 256},
		),
		nopfs.WithPFSBandwidth(96), // contended shared filesystem
		nopfs.WithInterconnectBandwidth(2048),
		nopfs.WithVerifySamples(true),
	)

	const workers = 4
	ctx := context.Background()
	start := time.Now()
	stats, err := nopfs.RunCluster(ctx, ds, workers, opts, nopfs.DrainAll(nil))
	if err != nil {
		log.Fatal(err)
	}
	nopfsTime := time.Since(start)

	fmt.Printf("\nNoPFS run: %.2fs wall\n", nopfsTime.Seconds())
	fmt.Println("rank  local  remote   pfs  pfsReads  falsePos   stall")
	var pfsReads int64
	for _, s := range stats {
		// PFSReads is the rank's whole filesystem load; Fetches[SourcePFS]
		// leaves out what the class prefetchers read.
		pfsReads += s.PFSReads
		fmt.Printf("%4d  %5d  %6d  %4d  %8d  %8d  %5.2fs\n",
			s.Rank, s.Fetches[nopfs.SourceLocal], s.Fetches[nopfs.SourceRemote],
			s.Fetches[nopfs.SourcePFS], s.PFSReads, s.RemoteFalsePositives, s.StallSeconds)
	}

	// The naive comparison: every sample of every epoch straight from the
	// PFS (no cache classes, no clairvoyant benefit beyond ordering).
	naive := opts
	naive.Classes = nil
	start = time.Now()
	nstats, err := nopfs.RunCluster(ctx, ds, workers, naive, nopfs.DrainAll(nil))
	if err != nil {
		log.Fatal(err)
	}
	naiveTime := time.Since(start)

	var naivePFS int64
	for _, s := range nstats {
		naivePFS += s.PFSReads
	}
	fmt.Printf("\nPFS-only loader: %.2fs wall, %d PFS reads (NoPFS needed %d)\n",
		naiveTime.Seconds(), naivePFS, pfsReads)
	fmt.Printf("speedup from hierarchical clairvoyant caching: %.2fx\n",
		naiveTime.Seconds()/nopfsTime.Seconds())
}
