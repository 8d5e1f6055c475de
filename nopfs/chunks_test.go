package nopfs

import (
	"context"
	"math"
	"runtime"
	"sync"
	"testing"

	"repro/internal/dataset"
)

// TestChunksConcurrentCarvesDisjoint has eight goroutines carve from one
// class's chunks and fill each slice with their own byte; every slice must
// still hold it afterwards, and under -race an overlap is a reported race.
func TestChunksConcurrentCarvesDisjoint(t *testing.T) {
	var a chunks
	carved := make([][][]byte, 8)
	var wg sync.WaitGroup
	for g := range carved {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 200 {
				b := a.carve(6<<10+(g*200+i)%4096, 1<<30)
				for j := range b {
					b[j] = byte(g + 1)
				}
				carved[g] = append(carved[g], b)
			}
		}()
	}
	wg.Wait()
	for g, slices := range carved {
		for _, b := range slices {
			if cap(b) != len(b) {
				t.Fatalf("carve of %d bytes has cap %d", len(b), cap(b))
			}
			for _, v := range b {
				if v != byte(g+1) {
					t.Fatalf("goroutine %d's carve holds byte %d: carves overlap", g, v)
				}
			}
		}
	}
}

// TestChunksRetractUndoesNewestOnly: retracting the newest carve hands its
// bytes to the next carve; retracting an older one leaves a counted hole.
func TestChunksRetractUndoesNewestOnly(t *testing.T) {
	var a chunks
	first, second := a.carve(100, 1<<30), a.carve(200, 1<<30)
	a.retract(first)
	if a.holes != 100 || a.off != 300 {
		t.Fatalf("retracting an older carve: holes %d, off %d; want 100, 300", a.holes, a.off)
	}
	a.retract(second)
	if a.holes != 100 || a.off != 100 {
		t.Fatalf("retracting the newest carve: holes %d, off %d; want 100, 100", a.holes, a.off)
	}
	if again := a.carve(50, 1<<30); &again[0] != &second[0] {
		t.Error("the carve after a retract did not reuse the retracted bytes")
	}
}

// TestChunksLargePayloadOwnAllocation: a payload larger than a chunk is
// allocated on its own and leaves the current chunk as it was.
func TestChunksLargePayloadOwnAllocation(t *testing.T) {
	var a chunks
	small := a.carve(64, 1<<30)
	big := a.carve(chunkBytes+1, 1<<30)
	if len(big) != chunkBytes+1 || cap(big) != len(big) {
		t.Fatalf("large carve has len %d, cap %d", len(big), cap(big))
	}
	a.retract(big)
	if a.off != 64 || a.holes != 0 {
		t.Fatalf("large carve moved the chunk: off %d, holes %d; want 64, 0", a.off, a.holes)
	}
	if next := a.carve(64, 1<<30); &next[0] != &a.chunk[64] || &small[0] != &a.chunk[0] {
		t.Error("the chunk did not continue after a large carve")
	}
}

// TestChunksAppendCannotReachNeighbour: every carve has cap == len, so an
// append to one copies instead of writing into the next.
func TestChunksAppendCannotReachNeighbour(t *testing.T) {
	var a chunks
	left, right := a.carve(16, 1<<30), a.carve(16, 1<<30)
	right[0] = 7
	_ = append(left, 1)
	if right[0] != 7 {
		t.Fatal("an append to one carve wrote into the next")
	}
}

// TestChunksLastChunkFitsRoom: a new chunk is no larger than the room its
// class has left, nor smaller than the payload that opens it.
func TestChunksLastChunkFitsRoom(t *testing.T) {
	var a chunks
	a.carve(100, 300)
	if len(a.chunk) != 300 {
		t.Fatalf("chunk of %d bytes for 300 bytes of room", len(a.chunk))
	}
	a.carve(400, 0)
	if len(a.chunk) != 400 {
		t.Fatalf("chunk of %d bytes for a 400-byte payload and no room", len(a.chunk))
	}
}

// TestClassPayloadHeapMatchesCachedBytes fills one rank's memory class on an
// unthrottled shape and weighs what the class retains: the heap a GC frees
// once the job, still reachable, lets go of its classes and their chunks.
// It must stay within 2 % of the bytes the class holds; a heap object per
// payload, rounded up to its size class, pads about 6 % on this shape.
func TestClassPayloadHeapMatchesCachedBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what the runtime allocates")
	}
	ds := dataset.MustNew(dataset.Spec{
		Name: "heap", F: 4096, MeanSize: 8 << 10, StddevSize: 2 << 10, Classes: 16, Seed: 5,
	})
	opts := NewOptions(
		WithSeed(77),
		WithEpochs(1),
		WithStagingBuffer(256<<10),
		WithClasses(Class{Name: "ram", CapacityBytes: 16 << 20, Threads: 1}),
	)
	var job *Job
	stats, err := RunCluster(bg, ds, 1, opts, func(ctx context.Context, j *Job) error {
		job = j
		return DrainAll(func(Sample) error { return nil })(ctx, j)
	})
	if err != nil {
		t.Fatal(err)
	}
	var with, without runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&with)
	job.backends, job.chunks = nil, nil
	runtime.GC()
	runtime.ReadMemStats(&without)
	runtime.KeepAlive(job)
	retained, cached := float64(with.HeapAlloc)-float64(without.HeapAlloc), float64(stats[0].CachedBytes)
	t.Logf("class holds %.0f bytes, retains %.0f of heap (%+.2f %%)", cached, retained, 100*(retained/cached-1))
	if math.Abs(retained/cached-1) > 0.02 {
		t.Errorf("class retains %.0f bytes of heap for %.0f cached, want within 2 %%", retained, cached)
	}
}
