#include "textflag.h"

// laneGamma holds k·γ mod 2⁶⁴ for k = 1…8: lane k-1 of a block's state.
DATA laneGamma<>+0(SB)/8, $0x9e3779b97f4a7c15
DATA laneGamma<>+8(SB)/8, $0x3c6ef372fe94f82a
DATA laneGamma<>+16(SB)/8, $0xdaa66d2c7ddf743f
DATA laneGamma<>+24(SB)/8, $0x78dde6e5fd29f054
DATA laneGamma<>+32(SB)/8, $0x1715609f7c746c69
DATA laneGamma<>+40(SB)/8, $0xb54cda58fbbee87e
DATA laneGamma<>+48(SB)/8, $0x538454127b096493
DATA laneGamma<>+56(SB)/8, $0xf1bbcdcbfa53e0a8
GLOBL laneGamma<>(SB), RODATA|NOPTR, $64

// MIX applies SplitMix64's output function to the eight lanes of in,
// leaving them in out; tmp is clobbered, Z16 and Z17 hold the multipliers.
#define MIX(in, out, tmp) \
	VPSRLQ  $30, in, tmp  \
	VPXORQ  in, tmp, out  \
	VPMULLQ Z16, out, out \
	VPSRLQ  $27, out, tmp \
	VPXORQ  tmp, out, out \
	VPMULLQ Z17, out, out \
	VPSRLQ  $31, out, tmp \
	VPXORQ  tmp, out, out

// func fillBlocks(p *byte, blocks int, x uint64) uint64
TEXT ·fillBlocks(SB), NOSPLIT, $0-32
	MOVQ p+0(FP), DI
	MOVQ blocks+8(FP), CX
	MOVQ x+16(FP), AX

	// The state after the last block: x + blocks·8γ.
	MOVQ  $0xf1bbcdcbfa53e0a8, BX
	MOVQ  CX, DX
	IMULQ BX, DX
	ADDQ  AX, DX
	MOVQ  DX, ret+24(FP)

	VPBROADCASTQ AX, Z0
	VPADDQ       laneGamma<>(SB), Z0, Z0 // block 0: x + (1…8)·γ
	VPBROADCASTQ BX, Z18                 // 8γ, one block
	VPADDQ       Z18, Z18, Z19           // 16γ
	VPADDQ       Z19, Z19, Z20           // 32γ, four blocks
	MOVQ         $0xbf58476d1ce4e5b9, BX
	VPBROADCASTQ BX, Z16
	MOVQ         $0x94d049bb133111eb, BX
	VPBROADCASTQ BX, Z17

	// Four independent blocks per iteration hide VPMULLQ's latency.
four:
	CMPQ   CX, $4
	JLT    one
	VPADDQ Z18, Z0, Z1
	VPADDQ Z19, Z0, Z2
	VPADDQ Z18, Z2, Z3
	MIX(Z0, Z4, Z8)
	MIX(Z1, Z5, Z9)
	MIX(Z2, Z6, Z10)
	MIX(Z3, Z7, Z11)
	VMOVDQU64 Z4, (DI)
	VMOVDQU64 Z5, 64(DI)
	VMOVDQU64 Z6, 128(DI)
	VMOVDQU64 Z7, 192(DI)
	VPADDQ    Z20, Z0, Z0
	ADDQ      $256, DI
	SUBQ      $4, CX
	JMP       four

one:
	TESTQ     CX, CX
	JZ        done
	MIX(Z0, Z4, Z8)
	VMOVDQU64 Z4, (DI)
	VPADDQ    Z18, Z0, Z0
	ADDQ      $64, DI
	DECQ      CX
	JMP       one

done:
	VZEROUPPER
	RET
