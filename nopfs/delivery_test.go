package nopfs

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/chaos"
	"repro/internal/dataset"
)

// The delivery contract: Sample.Data is read-only and valid until the
// consumer's next Get, GetBatch or Samples step. Staged PFS reads of samples
// no local class holds, and staged remote payloads on a fabric that copies
// them (TCP), go into buffers from the staging free list, and that next step
// releases them for later reads. A consumer that touches a released buffer
// races the staging thread refilling it, which `make test-race` runs these
// tests to catch (-run 'Release|Recycle|Batch|Delivery|Ownership').

// recycleOptions is a cluster whose caches hold a fraction of the dataset,
// so most staged reads are of samples no local class holds, with a staging
// budget small enough that released buffers are reused within an epoch.
func recycleOptions() Options {
	opts := baseOptions()
	opts.VerifySamples = false // the consumers below verify what they keep
	opts.StagingBytes = 32 << 10
	opts.Classes[0].CapacityBytes = 96 << 10
	return opts
}

// TestBatchSamplesValidUntilNextCall keeps every sample of each GetBatch
// and verifies them all just before the next call, on both fabrics, fault
// free and under a node crash and an elastic membership schedule.
func TestBatchSamplesValidUntilNextCall(t *testing.T) {
	ds := testDataset(t, 384)
	for _, fabric := range []string{FabricChan, FabricTCP} {
		for _, preset := range []string{"none", "node-crash", "elastic"} {
			t.Run(fabric+"/"+preset, func(t *testing.T) {
				opts := recycleOptions()
				opts.Fabric = fabric
				switch preset {
				case "node-crash":
					profile, err := chaos.ParseProfile(preset)
					if err != nil {
						t.Fatal(err)
					}
					opts.Chaos, opts.Resilience = profile, DefaultResilience()
				case "elastic":
					opts.Access = preset
				}
				_, err := RunCluster(bg, ds, 3, opts, func(ctx context.Context, j *Job) error {
					var kept []Sample
					for {
						for _, s := range kept {
							if err := dataset.VerifySample(s.ID, s.Data); err != nil {
								return fmt.Errorf("kept sample of the last batch: %w", err)
							}
						}
						batch, err := j.GetBatch(ctx, 0)
						if err != nil || batch == nil {
							return err
						}
						kept = batch
					}
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestStagedReadsRecycleBuffers checks, for each delivery API, that staged
// PFS payloads really come back in reused buffers and that every reused
// buffer holds the sample it is delivered as.
func TestStagedReadsRecycleBuffers(t *testing.T) {
	ds := testDataset(t, 384)
	consumers := map[string]func(ctx context.Context, j *Job, each func(Sample) error) error{
		"Get": func(ctx context.Context, j *Job, each func(Sample) error) error {
			for {
				s, ok, err := j.Get(ctx)
				if err != nil || !ok {
					return err
				}
				if err := each(s); err != nil {
					return err
				}
			}
		},
		"Samples": func(ctx context.Context, j *Job, each func(Sample) error) error {
			for s, err := range j.Samples(ctx) {
				if err != nil {
					return err
				}
				if err := each(s); err != nil {
					return err
				}
			}
			return nil
		},
		"GetBatch": func(ctx context.Context, j *Job, each func(Sample) error) error {
			for {
				batch, err := j.GetBatch(ctx, 0)
				if err != nil || batch == nil {
					return err
				}
				for _, s := range batch {
					if err := each(s); err != nil {
						return err
					}
				}
			}
		},
	}
	for name, consume := range consumers {
		t.Run(name, func(t *testing.T) {
			reused := make([]int, 2)
			_, err := RunCluster(bg, ds, 2, recycleOptions(), func(ctx context.Context, j *Job) error {
				seen := map[*byte]bool{}
				return consume(ctx, j, func(s Sample) error {
					if s.Source == SourcePFS && j.assign.Local(j.rank, int32(s.ID)) < 0 {
						p := &s.Data[0]
						if seen[p] {
							reused[j.Rank()]++
						}
						seen[p] = true
					}
					return dataset.VerifySample(s.ID, s.Data)
				})
			})
			if err != nil {
				t.Fatal(err)
			}
			for rank, n := range reused {
				if n == 0 {
					t.Errorf("rank %d: no staged PFS read reused a released buffer", rank)
				}
			}
		})
	}
}

// TestRemotePayloadOwnership pins who owns a staged remote payload. On TCP
// the fabric reads it into the staging buffer the job passed, so the
// consumer's next step releases it and its memory comes back holding other
// samples. On the chan fabric it is the peer's cached copy: releasing it
// would let a later staged read overwrite the peer's cache, so its memory
// never holds another sample. Payloads are kept reachable, so no address is
// reused by the allocator instead.
func TestRemotePayloadOwnership(t *testing.T) {
	ds := testDataset(t, 384)
	for _, tc := range []struct {
		fabric string
		reuse  bool
	}{{FabricChan, false}, {FabricTCP, true}} {
		t.Run(tc.fabric, func(t *testing.T) {
			opts := recycleOptions()
			// Three epochs of this shape fetch nothing remotely; six give
			// each rank about forty remote payloads.
			opts.Fabric, opts.VerifySamples, opts.Epochs = tc.fabric, true, 6
			reused := make([]int, 2)
			_, err := RunCluster(bg, ds, 2, opts, func(ctx context.Context, j *Job) error {
				type held struct {
					id     int
					remote bool
				}
				seen := map[*byte]held{}
				for s, err := range j.Samples(ctx) {
					if err != nil {
						return err
					}
					p, remote := &s.Data[0], s.Source == SourceRemote
					if h, ok := seen[p]; ok && h.id != s.ID && (remote || h.remote) {
						reused[j.Rank()]++
					}
					seen[p] = held{s.ID, remote}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for rank, n := range reused {
				if tc.reuse && n == 0 {
					t.Errorf("rank %d: no remote payload shares memory with another sample", rank)
				}
				if !tc.reuse && n > 0 {
					t.Errorf("rank %d: %d remote payloads share memory with another sample", rank, n)
				}
			}
		})
	}
}

// TestDeliveryAllocBytes bounds the bytes allocated per delivered sample on
// an unthrottled two-rank cluster whose caches hold 3/4 of the dataset (the
// live_chan shape, smaller), on both fabrics, and on TCP at live_tcp's
// shape too, where a staging window spans several runs. Without the free
// list every staged PFS read allocates its payload — about a quarter of the
// samples, 8 KiB each, ≈ 3 KB per sample in all — and the bound fails; on
// TCP so does every staged remote payload unless the fabric reads it into
// the staging buffer the job passes.
func TestDeliveryAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what the runtime allocates")
	}
	spec := dataset.Spec{Name: "alloc", F: 2048, MeanSize: 8 << 10, StddevSize: 2 << 10, Classes: 16, Seed: 5}
	small := dataset.MustNew(spec)
	spec.F = 8192
	large := dataset.MustNew(spec)
	for _, tc := range []struct {
		name, fabric string
		ds           *dataset.Synthetic
		// epochs, the staging budget and the class capacity; a window
		// is one 16-position run at 512 KiB and seven at 4 MiB (by this
		// dataset's mean sample size).
		epochs       int
		staging, ram int64
		// maxAllocs bounds allocations per delivered sample. A remote
		// fetch on the chan fabric, a GetBatch call and a class fill
		// (carved from its class's chunks) allocate nothing, so what is
		// left is per-run set-up and staging waits (0.16 here; 0.19–0.20
		// with a heap object per stored payload). A TCP exchange
		// allocates nothing either once its connection is pooled: the
		// frame buffer and the cancellation watch live on the connection
		// (0.04–0.06; ≈ 0.01 at live_tcp's shape).
		maxAllocs float64
	}{
		{"chan", FabricChan, small, 24, 512 << 10, 6 << 20, 0.18},
		{"tcp", FabricTCP, small, 24, 512 << 10, 6 << 20, 0.07},
		{"tcp-windows", FabricTCP, large, 24, 4 << 20, 24 << 20, 0.07},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := NewOptions(
				WithSeed(77),
				WithEpochs(tc.epochs),
				WithBatchPerWorker(16),
				WithStagingBuffer(tc.staging),
				WithStagingThreads(2),
				WithClasses(Class{Name: "ram", CapacityBytes: tc.ram, Threads: 1}),
				WithFabric(tc.fabric),
			)
			var window atomic.Int64
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			stats, err := RunCluster(bg, tc.ds, 2, opts, func(ctx context.Context, j *Job) error {
				window.Store(int64(j.window() / j.opts.BatchPerWorker))
				for {
					batch, err := j.GetBatch(ctx, 0)
					if err != nil || batch == nil {
						return err
					}
				}
			})
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			var delivered int64
			for _, s := range stats {
				delivered += s.Delivered
			}
			perSample := float64(after.TotalAlloc-before.TotalAlloc) / float64(delivered)
			allocs := float64(after.Mallocs-before.Mallocs) / float64(delivered)
			t.Logf("%.0f B and %.3f allocations per delivered sample, %d-run windows, %d GC cycles, %d samples",
				perSample, allocs, window.Load(), after.NumGC-before.NumGC, delivered)
			if perSample > 1024 {
				t.Errorf("%.0f bytes allocated per delivered sample, want <= 1024", perSample)
			}
			if allocs > tc.maxAllocs {
				t.Errorf("%.2f allocations per delivered sample, want <= %g", allocs, tc.maxAllocs)
			}
		})
	}
}

// TestVerifySamplesCatchesConsumerWrites pins what VerifySamples does for a
// consumer that breaks the read-only contract: a local hit is the class's
// cached copy, so flipping a byte of it corrupts every later delivery of the
// sample, and verification reports that as an error rather than handing
// over a wrong sample.
func TestVerifySamplesCatchesConsumerWrites(t *testing.T) {
	if raceEnabled {
		t.Skip("the write races a peer reading the same cached bytes by construction")
	}
	opts := baseOptions() // chan fabric, 3 epochs, VerifySamples on
	_, err := RunCluster(bg, testDataset(t, 96), 2, opts, DrainAll(func(s Sample) error {
		if s.Source == SourceLocal {
			s.Data[len(s.Data)/2] ^= 0xff
		}
		return nil
	}))
	if err == nil || !strings.Contains(err.Error(), "CRC mismatch") {
		t.Fatalf("run with a consumer writing cached samples returned %v, want a CRC mismatch", err)
	}
}
