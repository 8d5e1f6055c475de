//go:build !amd64

package prng

func fillBlocks(p *byte, blocks int, x uint64) uint64 { panic("prng: no vector kernel") }
