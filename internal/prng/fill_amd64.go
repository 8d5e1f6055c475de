package prng

// fillBlocks writes mix(x + k·γ) for k = 1…8·blocks to p as little-endian
// words, eight lanes per AVX-512 register, and returns x + 8·blocks·γ.
//
//go:noescape
func fillBlocks(p *byte, blocks int, x uint64) uint64

// hasAVX512 reports whether the CPU and the OS support AVX512F and AVX512DQ.
func hasAVX512() bool
