#include "textflag.h"

// FOLD moves the four 16-byte lanes of acc ahead by the distance whose
// multipliers k holds and adds next: acc = acc.lo·k.lo ⊕ acc.hi·k.hi ⊕ next.
#define FOLD(k, acc, tmp, next) \
	VPCLMULQDQ $0x00, k, acc, tmp \
	VPCLMULQDQ $0x11, k, acc, acc \
	VPTERNLOGD $0x96, next, tmp, acc

// func crcBlocks(head *[64]byte, p []byte) uint32
TEXT ·crcBlocks(SB), NOSPLIT, $0-36
	MOVQ      head+0(FP), AX
	MOVQ      p_base+8(FP), SI
	MOVQ      p_len+16(FP), DX // a multiple of 64
	VMOVDQU64 (AX), Z0

	CMPQ            DX, $192
	JB              oneBlock
	VMOVDQU64       (SI), Z1
	VMOVDQU64       64(SI), Z2
	VMOVDQU64       128(SI), Z3
	ADDQ            $192, SI
	SUBQ            $192, DX
	VBROADCASTI32X4 ·crcFold+0(SB), Z8

	// Four blocks per iteration, one register each, hide the multiply's
	// latency.
fourBlocks:
	CMPQ DX, $256
	JB   join
	FOLD(Z8, Z0, Z4, (SI))
	FOLD(Z8, Z1, Z5, 64(SI))
	FOLD(Z8, Z2, Z6, 128(SI))
	FOLD(Z8, Z3, Z7, 192(SI))
	ADDQ $256, SI
	SUBQ $256, DX
	JMP  fourBlocks

	// Z0, Z1 and Z2 move three, two and one blocks ahead onto Z3.
join:
	VBROADCASTI32X4 ·crcFold+16(SB), Z8
	VBROADCASTI32X4 ·crcFold+32(SB), Z9
	VBROADCASTI32X4 ·crcFold+48(SB), Z10
	VPCLMULQDQ      $0x00, Z8, Z0, Z4
	VPCLMULQDQ      $0x11, Z8, Z0, Z0
	VPCLMULQDQ      $0x00, Z9, Z1, Z5
	VPCLMULQDQ      $0x11, Z9, Z1, Z1
	VPCLMULQDQ      $0x00, Z10, Z2, Z6
	VPCLMULQDQ      $0x11, Z10, Z2, Z2
	VPTERNLOGD      $0x96, Z4, Z3, Z0
	VPTERNLOGD      $0x96, Z5, Z1, Z0
	VPTERNLOGD      $0x96, Z6, Z2, Z0

oneBlock:
	VBROADCASTI32X4 ·crcFold+48(SB), Z8

oneLoop:
	CMPQ DX, $64
	JB   reduce
	FOLD(Z8, Z0, Z4, (SI))
	ADDQ $64, SI
	SUBQ $64, DX
	JMP  oneLoop

reduce:
	// 512 to 256 bits: lanes 0 and 1 move 32 bytes ahead onto lanes 2 and 3.
	VBROADCASTI32X4 ·crcFold+64(SB), Z8
	VEXTRACTI64X4   $1, Z0, Y1
	VPCLMULQDQ      $0x00, Y8, Y0, Y4
	VPCLMULQDQ      $0x11, Y8, Y0, Y0
	VPXOR           Y4, Y0, Y0
	VPXOR           Y1, Y0, Y0

	// 256 to 128 bits: lane 0 moves 16 bytes ahead onto lane 1.
	VMOVDQU      ·crcFold+80(SB), X8
	VEXTRACTI128 $1, Y0, X1
	VPCLMULQDQ   $0x00, X8, X0, X4
	VPCLMULQDQ   $0x11, X8, X0, X0
	VPXOR        X4, X0, X0
	VPXOR        X1, X0, X0

	// 128 to 96 bits: the low quadword moves 8 bytes ahead.
	VPCLMULQDQ $0x01, X0, X8, X4
	VPSRLDQ    $8, X0, X0
	VPXOR      X4, X0, X0

	// 96 to 64 bits, with X3 a 32-bit mask in each quadword.
	VPCMPEQB   X3, X3, X3
	VPSRLQ     $32, X3, X3
	VMOVDQU    ·crcFold+96(SB), X8
	VPSRLDQ    $4, X0, X2
	VPAND      X3, X0, X0
	VPCLMULQDQ $0x00, X8, X0, X0
	VPXOR      X2, X0, X0

	// Barrett reduction to the 32-bit register, in lane 1.
	VMOVDQU    ·crcFold+112(SB), X8
	VPAND      X3, X0, X1
	VPCLMULQDQ $0x10, X8, X1, X1
	VPAND      X3, X1, X1
	VPCLMULQDQ $0x00, X8, X1, X1
	VPXOR      X0, X1, X1
	VPEXTRD    $1, X1, AX
	MOVL       AX, ret+32(FP)
	VZEROUPPER
	RET
