package nopfs

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/storage"
)

func TestFunctionalOptionsCompose(t *testing.T) {
	opts := NewOptions(
		WithSeed(7),
		WithEpochs(5),
		WithBatchPerWorker(8),
		WithStagingBuffer(1<<20),
		WithStagingThreads(3),
		WithClasses(Class{Name: "ram", CapacityBytes: 1 << 20}),
		WithPFSBandwidth(64),
		WithInterconnectBandwidth(128),
		WithVerifySamples(true),
		WithFabric(FabricTCP),
	)
	if opts.Seed != 7 || opts.Epochs != 5 || opts.BatchPerWorker != 8 {
		t.Errorf("schedule options not applied: %+v", opts)
	}
	if opts.StagingBytes != 1<<20 || opts.StagingThreads != 3 {
		t.Errorf("staging options not applied: %+v", opts)
	}
	if len(opts.Classes) != 1 || opts.Classes[0].Name != "ram" {
		t.Errorf("class options not applied: %+v", opts.Classes)
	}
	if opts.PFSAggregateMBps != 64 || opts.InterconnectMBps != 128 || !opts.VerifySamples {
		t.Errorf("bandwidth/verify options not applied: %+v", opts)
	}
	if opts.Fabric != FabricTCP {
		t.Errorf("fabric option not applied: %q", opts.Fabric)
	}
}

func TestFabricRegistry(t *testing.T) {
	names := FabricNames()
	if len(names) < 2 || names[0] != FabricChan {
		t.Fatalf("FabricNames() = %v, want sorted with %q first", names, FabricChan)
	}
	for _, n := range []string{FabricChan, FabricTCP} {
		f, err := FabricByName(n)
		if err != nil || f.Name() != n {
			t.Errorf("FabricByName(%q) = %v, %v", n, f, err)
		}
	}
	if _, err := FabricByName("bogus"); err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Errorf("unknown fabric error = %v", err)
	}
	// Validate surfaces an unknown fabric before any endpoint is built.
	opts := baseOptions()
	opts.Fabric = "bogus"
	if err := opts.Validate(testDataset(t, 32), 2); err == nil {
		t.Error("Validate accepted an unknown fabric")
	}
}

// countingBackend wraps the in-memory store to prove custom backends flow
// through the registry into a live cluster.
type countingBackend struct {
	StorageBackend
	puts *atomic.Int64
}

func (c countingBackend) Put(ctx context.Context, id int32, data []byte) (bool, error) {
	c.puts.Add(1)
	return c.StorageBackend.Put(ctx, id, data)
}

// The "test-counting" kind is process-global like every registered kind, and
// RegisterBackend panics on a duplicate: the test registers it once, however
// often it runs (-count=N), and reads the Puts it caused as a difference.
var (
	countingOnce sync.Once
	countingPuts atomic.Int64
)

func TestCustomBackendKind(t *testing.T) {
	countingOnce.Do(func() {
		RegisterBackend("test-counting", func(_ context.Context, _ int, c Class) (StorageBackend, error) {
			return countingBackend{
				StorageBackend: storage.NewMemory(c.Name, c.CapacityBytes, nil, nil),
				puts:           &countingPuts,
			}, nil
		})
	})
	before := countingPuts.Load()
	kinds := BackendKinds()
	found := false
	for _, k := range kinds {
		found = found || k == "test-counting"
	}
	if !found {
		t.Fatalf("BackendKinds() = %v, missing test-counting", kinds)
	}

	ds := testDataset(t, 48)
	opts := baseOptions()
	opts.Classes = []Class{{Name: "ram", CapacityBytes: 256 << 10, Backend: "test-counting", Threads: 1}}
	opts.Epochs = 2
	if _, err := RunCluster(context.Background(), ds, 2, opts, DrainAll(nil)); err != nil {
		t.Fatal(err)
	}
	if countingPuts.Load() == before {
		t.Error("custom backend kind never received a Put")
	}
	// Unknown kinds fail validation up front.
	opts.Classes[0].Backend = "no-such-kind"
	if err := opts.Validate(ds, 2); err == nil {
		t.Error("Validate accepted an unknown backend kind")
	}
}

// TestBackendKindDefaults pins the kind-resolution rule: Dir selects the
// directory store, everything else the memory store, explicit Backend wins.
func TestBackendKindDefaults(t *testing.T) {
	if k := backendKind(Class{}); k != BackendMemory {
		t.Errorf("bare class kind = %q", k)
	}
	if k := backendKind(Class{Dir: "/x"}); k != BackendDir {
		t.Errorf("dir class kind = %q", k)
	}
	if k := backendKind(Class{Dir: "/x", Backend: BackendMemory}); k != BackendMemory {
		t.Errorf("explicit backend lost to Dir: %q", k)
	}
}

// TestGetBatchShapes pins the minibatch API: full batches, the short final
// batch, and the nil end-of-stream marker.
func TestGetBatchShapes(t *testing.T) {
	ds := testDataset(t, 36)
	opts := baseOptions()
	opts.Epochs = 1
	opts.BatchPerWorker = 4
	_, err := RunCluster(context.Background(), ds, 2, opts, func(ctx context.Context, j *Job) error {
		total := 0
		for {
			b, err := j.GetBatch(ctx, 0) // 0 = the configured BatchPerWorker
			if err != nil {
				return err
			}
			if b == nil {
				break
			}
			if len(b) > opts.BatchPerWorker {
				t.Errorf("batch of %d exceeds BatchPerWorker %d", len(b), opts.BatchPerWorker)
			}
			total += len(b)
		}
		if total != j.StreamLen() {
			t.Errorf("GetBatch delivered %d samples, want %d", total, j.StreamLen())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
