package prng

import (
	"runtime"
	"sync"
)

// Perm32Into fills out with the identity permutation 0..len(out)-1 and
// Fisher-Yates shuffles it in place, drawing j = Intn(i+1) for i from
// len(out)-1 down to 1 — the exact draw sequence of Shuffle, so a
// Generator at the same state produces the same permutation through either
// entry point. int32 elements keep large materialised orders (ImageNet-22k
// has 14.2M samples) at 4 bytes apiece.
func (g *Generator) Perm32Into(out []int32) {
	for i := range out {
		out[i] = int32(i)
	}
	for i := len(out) - 1; i > 0; i-- {
		j := g.Intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
}

// ParallelFor runs fn(i) for every i in [0, n) on a bounded goroutine pool
// (workers < 1 means GOMAXPROCS; workers == 1 runs inline). Iterations must
// be independent: each fn(i) may only write state owned by index i, which
// is what makes the result order-independent and race-free.
func ParallelFor(n, workers int, fn func(i int)) {
	ParallelWith(n, workers, func() struct{} { return struct{}{} }, func(i int, _ struct{}) { fn(i) })
}

// ParallelWith is ParallelFor whose pool workers each make one scratch value
// and pass it to every fn they run: a per-worker buffer, never shared.
//
//lint:ignore ctxfirst structurally bounded: the same call closes jobs and Waits, and fn is pure compute with no cancellation point
func ParallelWith[S any](n, workers int, scratch func() S, fn func(i int, s S)) {
	if n <= 0 {
		return
	}
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		s := scratch()
		for i := 0; i < n; i++ {
			fn(i, s)
		}
		return
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := scratch()
			for i := range jobs {
				fn(i, s)
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
}

// ParallelPerms32 generates n independent length-f permutations on a bounded
// goroutine pool. Permutation i is driven entirely by its own generator
// gen(i), so the output is bit-identical to the serial loop
//
//	for i := range out { gen(i).Perm32Into(out[i]) }
//
// at any worker count — this is what makes parallel epoch-shuffle generation
// safe for clairvoyant plans, where every epoch already derives an
// independent PRNG stream from the root seed. workers < 1 means GOMAXPROCS.
func ParallelPerms32(n, f, workers int, gen func(i int) *Generator) [][]int32 {
	if n <= 0 {
		return nil
	}
	out := make([][]int32, n)
	ParallelFor(n, workers, func(i int) {
		out[i] = make([]int32, f)
		gen(i).Perm32Into(out[i])
	})
	return out
}
