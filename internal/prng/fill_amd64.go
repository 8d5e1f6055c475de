package prng

// fillBlocks writes mix(x + k·γ) for k = 1…8·blocks to p as little-endian
// words, eight lanes per AVX-512 register, and returns x + 8·blocks·γ.
//
//go:noescape
func fillBlocks(p *byte, blocks int, x uint64) uint64
