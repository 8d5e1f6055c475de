// Package prng provides deterministic pseudorandom number generation for
// clairvoyant access-stream reconstruction.
//
// NoPFS's central trick is that the per-epoch shuffle of sample indices is a
// pure function of a seed: every worker that knows the seed can reconstruct
// the entire training access pattern arbitrarily far into the future. This
// package supplies the primitives that make that reconstruction exact and
// portable: SplitMix64 for seed expansion, xoshiro256** as the bulk
// generator, and a Fisher-Yates shuffle driven by unbiased bounded draws.
//
// All state is explicit; two Generators created from equal seeds produce
// identical output on any platform.
package prng

import (
	"encoding/binary"
	"math"

	"repro/internal/cpu"
)

// SplitMix64 is a tiny, high-quality 64-bit generator used to expand a
// single user seed into the larger state required by xoshiro256**. It is
// the seeding procedure recommended by the xoshiro authors.
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a SplitMix64 seeded with seed.
func NewSplitMix64(seed uint64) *SplitMix64 {
	return &SplitMix64{state: seed}
}

const gamma = 0x9e3779b97f4a7c15 // SplitMix64's increment

// mix is SplitMix64's output function of a state.
func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Next returns the next 64-bit value in the sequence.
func (s *SplitMix64) Next() uint64 {
	s.state += gamma
	return mix(s.state)
}

// vectorFill routes Fill's whole blocks through the AVX-512 kernel; set
// once at init from the CPU, and by tests to run both paths.
var vectorFill = cpu.AVX512

// Fill writes the next ⌈len(p)/8⌉ outputs into p as little-endian words,
// the last truncated, as that many Next calls would. Output k is
// mix(state + k·gamma): a 64-byte block is eight independent lanes, which
// the vector kernel computes in one register where the CPU has AVX-512.
func (s *SplitMix64) Fill(p []byte) {
	x, g := s.state, uint64(gamma) // a variable, so k·g wraps mod 2⁶⁴
	if n := len(p) / 64; vectorFill && n > 0 {
		x, p = fillBlocks(&p[0], n, x), p[64*n:]
	}
	for ; len(p) >= 64; p = p[64:] {
		binary.LittleEndian.PutUint64(p[0:], mix(x+g))
		binary.LittleEndian.PutUint64(p[8:], mix(x+2*g))
		binary.LittleEndian.PutUint64(p[16:], mix(x+3*g))
		binary.LittleEndian.PutUint64(p[24:], mix(x+4*g))
		binary.LittleEndian.PutUint64(p[32:], mix(x+5*g))
		binary.LittleEndian.PutUint64(p[40:], mix(x+6*g))
		binary.LittleEndian.PutUint64(p[48:], mix(x+7*g))
		binary.LittleEndian.PutUint64(p[56:], mix(x+8*g))
		x += 8 * g
	}
	s.state = x
	for ; len(p) > 0; p = p[min(8, len(p)):] {
		var w [8]byte
		copy(p, binary.LittleEndian.AppendUint64(w[:0], s.Next()))
	}
}

// Generator is a xoshiro256** PRNG. It is small, fast, and passes stringent
// statistical tests; we use it for every shuffle in the system so that the
// access stream is a deterministic function of the seed alone.
//
// Generator is not safe for concurrent use; clone or derive per-goroutine
// streams instead.
type Generator struct {
	s [4]uint64
}

// New returns a Generator seeded from seed via SplitMix64 expansion.
func New(seed uint64) *Generator {
	sm := NewSplitMix64(seed)
	var g Generator
	for i := range g.s {
		g.s[i] = sm.Next()
	}
	// xoshiro256** must not start from the all-zero state; SplitMix64
	// cannot produce four consecutive zeros, but guard anyway.
	if g.s[0]|g.s[1]|g.s[2]|g.s[3] == 0 {
		g.s[0] = 0x9e3779b97f4a7c15
	}
	return &g
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64-bit value.
func (g *Generator) Uint64() uint64 {
	result := rotl(g.s[1]*5, 7) * 9
	t := g.s[1] << 17
	g.s[2] ^= g.s[0]
	g.s[3] ^= g.s[1]
	g.s[1] ^= g.s[2]
	g.s[0] ^= g.s[3]
	g.s[2] ^= t
	g.s[3] = rotl(g.s[3], 45)
	return result
}

// Clone returns an independent copy of the generator at its current state.
func (g *Generator) Clone() *Generator {
	cp := *g
	return &cp
}

// Derive returns a new Generator whose stream is a deterministic function of
// the parent seed state and the given stream identifier. It does not advance
// the parent. Use it to give each worker, epoch, or subsystem its own
// independent stream from one root seed.
func (g *Generator) Derive(stream uint64) *Generator {
	sm := NewSplitMix64(g.s[0] ^ rotl(stream, 32) ^ 0xd1b54a32d192ed03)
	var d Generator
	for i := range d.s {
		d.s[i] = sm.Next() ^ g.s[i]
	}
	if d.s[0]|d.s[1]|d.s[2]|d.s[3] == 0 {
		d.s[0] = 1
	}
	return &d
}

// Uint64n returns an unbiased uniform value in [0, n). It panics if n == 0.
// Uses Lemire's nearly-divisionless method with a rejection loop.
func (g *Generator) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("prng: Uint64n with n == 0")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return g.Uint64() & (n - 1)
	}
	// Rejection sampling on the top range to avoid modulo bias.
	max := ^uint64(0) - ^uint64(0)%n
	for {
		v := g.Uint64()
		if v < max {
			return v % n
		}
	}
}

// Intn returns an unbiased uniform int in [0, n). It panics if n <= 0.
func (g *Generator) Intn(n int) int {
	if n <= 0 {
		panic("prng: Intn with n <= 0")
	}
	return int(g.Uint64n(uint64(n)))
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (g *Generator) Float64() float64 {
	return float64(g.Uint64()>>11) / (1 << 53)
}

// Shuffle performs an in-place Fisher-Yates shuffle of ids. Given the same
// generator state and slice length, the resulting permutation is identical
// on every worker — this is the clairvoyance primitive.
func (g *Generator) Shuffle(ids []int) {
	for i := len(ids) - 1; i > 0; i-- {
		j := g.Intn(i + 1)
		ids[i], ids[j] = ids[j], ids[i]
	}
}

// Perm returns a shuffled permutation of [0, n).
func (g *Generator) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	g.Shuffle(p)
	return p
}

// NormFloat64 returns a normally distributed value with mean 0 and standard
// deviation 1, using the polar (Marsaglia) method. Deterministic given the
// generator state.
func (g *Generator) NormFloat64() float64 {
	for {
		u := 2*g.Float64() - 1
		v := 2*g.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		// math.Sqrt and math.Log are correctly rounded per IEEE-754 on
		// all Go platforms, so this remains cross-platform deterministic.
		return u * math.Sqrt(-2*math.Log(s)/s)
	}
}
