package nopfs

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/dataset"
)

// The delivery contract: Sample.Data is read-only and valid until the
// consumer's next Get, GetBatch or Samples step. Staged PFS reads of samples
// no local class holds go into buffers from the staging free list, and that
// next step releases them for later reads. A consumer that touches a
// released buffer races the staging thread refilling it, which `make
// test-race` runs these tests to catch (-run 'Release|Recycle|Batch|Delivery').

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
					if s.Source == SourcePFS && j.recycles(int32(s.ID)) {
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

// TestDeliveryAllocBytes bounds the bytes allocated per delivered sample on
// an unthrottled two-rank chan cluster whose caches hold 3/4 of the dataset
// (the live_chan shape, smaller). Without the free list every staged PFS
// read allocates its payload — about a quarter of the samples, 8 KiB each,
// ≈ 3 KB per sample in all — and the bound fails.
func TestDeliveryAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what the runtime allocates")
	}
	ds := dataset.MustNew(dataset.Spec{
		Name: "alloc", F: 2048, MeanSize: 8 << 10, StddevSize: 2 << 10, Classes: 16, Seed: 5,
	})
	opts := NewOptions(
		WithSeed(77),
		WithEpochs(24),
		WithBatchPerWorker(16),
		WithStagingBuffer(512<<10),
		WithStagingThreads(2),
		WithClasses(Class{Name: "ram", CapacityBytes: 6 << 20, Threads: 1}),
	)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	stats, err := RunCluster(bg, ds, 2, opts, func(ctx context.Context, j *Job) error {
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
	t.Logf("%.0f B and %.2f allocations per delivered sample, %d GC cycles, %d samples",
		perSample, float64(after.Mallocs-before.Mallocs)/float64(delivered), after.NumGC-before.NumGC, delivered)
	if perSample > 1024 {
		t.Errorf("%.0f bytes allocated per delivered sample, want <= 1024", perSample)
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
