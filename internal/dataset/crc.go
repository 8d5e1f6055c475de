package dataset

import (
	"encoding/binary"
	"hash/crc32"

	"repro/internal/cpu"
)

// vectorCRC routes checksum through the VPCLMULQDQ kernel; set once at
// init from the CPU, and by tests to run both paths.
var vectorCRC = cpu.VPCLMULQDQ

// minVectorCRC is the shortest input checksum gives the kernel: below it,
// the kernel's fixed cost (the head block and the reduction chain, ≈ 30 ns)
// loses to crc32.ChecksumIEEE, which is faster up to 384 bytes and slower
// from 512 on.
const minVectorCRC = 512

// checksum returns crc32.ChecksumIEEE(p). The kernel (crc_amd64.s) folds
// four 64-byte blocks per iteration, one per ZMM register, each block four
// 16-byte lanes that a carry-less multiply moves ahead: a lane whose low
// and high quadwords are L and H becomes L·kLo ⊕ H·kHi, congruent modulo
// the CRC polynomial to the lane shifted by the fold distance. The bytes
// before the first whole block go, behind zeros, into a block of their own
// that starts from the register state carrying those zeros to ^0; the last
// block is reduced to 32 bits with a Barrett step.
func checksum(p []byte) uint32 {
	if !vectorCRC || len(p) < minVectorCRC {
		return crc32.ChecksumIEEE(p)
	}
	return vectorChecksum(p)
}

// vectorChecksum is checksum on the kernel, for any non-empty p.
func vectorChecksum(p []byte) uint32 {
	var head [64]byte
	h := (len(p)-1)&63 + 1 // 1–64 leading bytes, the rest whole blocks
	copy(head[64-h:], p[:h])
	binary.LittleEndian.PutUint32(head[:], binary.LittleEndian.Uint32(head[:])^crcHead[64-h])
	return ^crcBlocks(&head, p[h:])
}

// crcFold is the kernel's constant table, read in pairs: the multipliers
// of a 16-byte lane's low and high quadword for one fold distance d bits,
// k(d+32) and k(d-32), where k(n) is x^n mod P (P = 0x104C11DB7, the IEEE
// polynomial) bit-reflected to 32 bits and shifted left one. The last pair
// is the Barrett step's P and ⌊x^64 / P⌋, bit-reflected to 33 bits.
var crcFold = [16]uint64{
	0x11542778a, 0x1322d1430, // d = 2048: four blocks ahead, the main loop
	0x1821d8bc0, 0x12e958ac4, // d = 1536: three blocks, joining the four registers
	0x1e88ef372, 0x14a7fe880, // d = 1024: two blocks
	0x154442bd4, 0x1c6e41596, // d = 512: one block
	0x0f1da05aa, 0x15a546366, // d = 256: half a block, 512 to 256 bits
	0x1751997d0, 0x0ccaa009e, // d = 128: one lane, 256 to 128 bits, then 128 to 96
	0x163cd6124, 0, // k(64): 96 to 64 bits
	0x1db710641, 0x1f7011641, // Barrett: P and ⌊x^64 / P⌋
}

// crcHead[z] is the CRC register state that z zero bytes carry to ^0, the
// state the IEEE checksum starts from: a message padded with z zeros in
// front starts from it.
var crcHead = func() (head [64]uint32) {
	s := ^uint32(0)
	for z := range head {
		head[z] = s
		for range 8 { // undo one zero bit, s' = s>>1 ⊕ (s&1)·IEEE
			if s&(1<<31) != 0 {
				s = (s^crc32.IEEE)<<1 | 1
			} else {
				s <<= 1
			}
		}
	}
	return head
}()
