package prng

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/cpu"
)

func TestSplitMix64KnownValues(t *testing.T) {
	// Reference values for seed 0 from the canonical C implementation.
	sm := NewSplitMix64(0)
	want := []uint64{
		0xe220a8397b1dcdaf,
		0x6e789e6aa1b965f4,
		0x06c45d188009454f,
		0xf88bb8a8724c81ec,
		0x1b39896a51a8749b,
	}
	for i, w := range want {
		if got := sm.Next(); got != w {
			t.Fatalf("SplitMix64(0) output %d = %#x, want %#x", i, got, w)
		}
	}
}

func TestSplitMix64FillMatchesNext(t *testing.T) {
	// Both paths, the AVX-512 kernel's and the Go loop's, for every length
	// 0–1,100 and 8,192: whole 64-byte blocks (the kernel runs four at a
	// time, then one), whole words and a partial last word, each the
	// little-endian Next sequence, written at an unaligned destination with
	// no byte around it touched, and the state left where that many Next
	// calls leave it. States within 8·γ of 2⁶⁴ wrap inside the first block.
	for _, path := range []struct {
		name   string
		vector bool
	}{{"go", false}, {"vector", true}} {
		t.Run(path.name, func(t *testing.T) {
			if path.vector && !cpu.AVX512 {
				t.Skip("host lacks AVX512F/AVX512DQ: the vector kernel cannot run")
			}
			defer func(v bool) { vectorFill = v }(vectorFill)
			vectorFill = path.vector
			lengths := append(make([]int, 0, 1102), 8192)
			for n := 0; n <= 1100; n++ {
				lengths = append(lengths, n)
			}
			for _, n := range lengths {
				states := []uint64{uint64(n) * 977, math.MaxUint64}
				for k := uint64(1); k <= 8; k++ {
					states = append(states, -k*gamma)
				}
				for _, state := range states {
					for _, off := range []int{1, 3} {
						fillMatchesNext(t, n, off, state)
					}
				}
			}
		})
	}
}

// fillMatchesNext fills n bytes at buf[off:] from state and compares bytes,
// the guard bytes around them and the state left with the Next sequence.
func fillMatchesNext(t *testing.T, n, off int, state uint64) {
	t.Helper()
	fill, next := NewSplitMix64(state), NewSplitMix64(state)
	buf := bytes.Repeat([]byte{0xa5}, n+off+8)
	fill.Fill(buf[off : off+n])
	want := make([]byte, 0, n+8)
	for len(want) < n {
		want = binary.LittleEndian.AppendUint64(want, next.Next())
	}
	if !bytes.Equal(buf[off:off+n], want[:n]) {
		t.Fatalf("Fill of %d bytes at offset %d from %#x differs from the Next sequence", n, off, state)
	}
	if g := bytes.Repeat([]byte{0xa5}, 8); !bytes.Equal(buf[:off], g[:off]) || !bytes.Equal(buf[off+n:], g) {
		t.Fatalf("Fill of %d bytes at offset %d wrote outside its destination", n, off)
	}
	if a, b := fill.Next(), next.Next(); a != b {
		t.Fatalf("after Fill of %d bytes from %#x the state is off: next %#x, want %#x", n, state, a, b)
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	a := New(12345)
	b := New(12345)
	for i := 0; i < 1000; i++ {
		if x, y := a.Uint64(), b.Uint64(); x != y {
			t.Fatalf("generators diverged at step %d: %d vs %d", i, x, y)
		}
	}
}

func TestGeneratorSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d/100 identical outputs", same)
	}
}

func TestCloneIndependence(t *testing.T) {
	g := New(7)
	g.Uint64()
	c := g.Clone()
	if x, y := g.Uint64(), c.Uint64(); x != y {
		t.Fatalf("clone diverged immediately: %d vs %d", x, y)
	}
	// Advancing the parent must not move the clone: both are now at the
	// same offset, so after advancing only g, c must replay g's old values.
	want := g.Clone()
	g.Uint64()
	g.Uint64()
	for i := 0; i < 10; i++ {
		if c.Uint64() != want.Uint64() {
			t.Fatal("advancing parent perturbed the clone's stream")
		}
	}
}

func TestDeriveStreamsIndependent(t *testing.T) {
	root := New(42)
	d1 := root.Derive(1)
	d2 := root.Derive(2)
	d1again := root.Derive(1)
	same12 := 0
	for i := 0; i < 100; i++ {
		v1, v2, v1a := d1.Uint64(), d2.Uint64(), d1again.Uint64()
		if v1 != v1a {
			t.Fatalf("Derive(1) not reproducible at step %d", i)
		}
		if v1 == v2 {
			same12++
		}
	}
	if same12 > 2 {
		t.Fatalf("Derive(1) and Derive(2) produced %d/100 identical outputs", same12)
	}
}

func TestDeriveDoesNotAdvanceParent(t *testing.T) {
	a := New(9)
	b := New(9)
	a.Derive(99)
	if a.Uint64() != b.Uint64() {
		t.Fatal("Derive advanced the parent generator state")
	}
}

func TestUint64nBounds(t *testing.T) {
	g := New(3)
	for _, n := range []uint64{1, 2, 3, 7, 8, 1000, 1 << 40} {
		for i := 0; i < 200; i++ {
			if v := g.Uint64n(n); v >= n {
				t.Fatalf("Uint64n(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestUint64nPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Uint64n(0) did not panic")
		}
	}()
	New(1).Uint64n(0)
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(-1) did not panic")
		}
	}()
	New(1).Intn(-1)
}

func TestUint64nUniformity(t *testing.T) {
	// Chi-squared-ish sanity test on a small modulus.
	g := New(11)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[g.Uint64n(n)]++
	}
	want := float64(draws) / n
	for v, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("value %d drawn %d times, want ~%.0f", v, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	g := New(5)
	for i := 0; i < 10000; i++ {
		f := g.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestShuffleIsPermutation(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		size := int(n%200) + 1
		g := New(seed)
		p := g.Perm(size)
		seen := make([]bool, size)
		for _, v := range p {
			if v < 0 || v >= size || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestShuffleDeterministic(t *testing.T) {
	a := New(77).Perm(1000)
	b := New(77).Perm(1000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same-seed permutations differ at %d", i)
		}
	}
}

func TestShuffleUniformFirstElement(t *testing.T) {
	// Over many seeds, each value should land in position 0 roughly equally.
	const n, trials = 8, 40000
	counts := make([]int, n)
	for s := 0; s < trials; s++ {
		g := New(uint64(s))
		counts[g.Perm(n)[0]]++
	}
	want := float64(trials) / n
	for v, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Errorf("value %d at position 0 in %d shuffles, want ~%.0f", v, c, want)
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	g := New(123)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := g.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestZeroStateGuard(t *testing.T) {
	var g Generator // all-zero state, bypassing New
	g.s[0] = 0x9e3779b97f4a7c15
	if g.Uint64() == 0 && g.Uint64() == 0 && g.Uint64() == 0 {
		t.Fatal("generator stuck at zero")
	}
}

func BenchmarkUint64(b *testing.B) {
	g := New(1)
	b.ReportAllocs()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += g.Uint64()
	}
	_ = sink
}

func BenchmarkShuffle1M(b *testing.B) {
	g := New(1)
	ids := make([]int, 1<<20)
	for i := range ids {
		ids[i] = i
	}
	b.SetBytes(int64(len(ids) * 8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Shuffle(ids)
	}
}
