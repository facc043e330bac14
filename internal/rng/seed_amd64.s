//go:build amd64 && !noasm

#include "textflag.h"

// func cpuSupportsAVX2() bool
//
// CPUID.0 must report leaf 7, CPUID.1:ECX must report OSXSAVE (bit 27),
// XCR0 must show the OS saving XMM and YMM state (bits 1 and 2), and
// CPUID.(EAX=7,ECX=0):EBX must report AVX2 (bit 5).
TEXT ·cpuSupportsAVX2(SB), NOSPLIT, $0-1
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JB   noavx2
	MOVL $1, AX
	CPUID
	ANDL $(1<<27), CX
	JZ   noavx2
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  noavx2
	MOVL $7, AX
	XORL CX, CX
	CPUID
	ANDL $(1<<5), BX
	JZ   noavx2
	MOVB $1, ret+0(FP)
	RET
noavx2:
	MOVB $0, ret+0(FP)
	RET

// func seedAVX2(dst, base, pow *uint64, s uint64, groups int)
//
// Per group of four words: three VPMULUDQ form s·P_k for k = 0, 1, 2 (the
// powers and s are below 2³¹, so the low 32 bits of each lane are the whole
// operand); one Mersenne fold t = (p & M) + (p >> 31) brings each product
// below 2M; VPSUBQ M and VBLENDVPD on the sign of t − M pick t or t − M.
// The three reduced values are shifted by 40, 20 and 0, XORed with each
// other and with base, and stored to dst.
//
// Register plan: Y0 holds s and Y1 holds M in every lane; Y2-Y4 are the
// three products of the current group, Y5-Y7 scratch. BX walks pow (96
// bytes per group), SI walks base and DI walks dst (32 bytes per group).
TEXT ·seedAVX2(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ base+8(FP), SI
	MOVQ pow+16(FP), BX
	MOVQ s+24(FP), AX
	MOVQ groups+32(FP), CX
	TESTQ CX, CX
	JLE  done
	MOVQ AX, X0
	VPBROADCASTQ X0, Y0
	MOVQ $0x7fffffff, AX
	MOVQ AX, X1
	VPBROADCASTQ X1, Y1

loop:
	VPMULUDQ 0(BX), Y0, Y2
	VPMULUDQ 32(BX), Y0, Y3
	VPMULUDQ 64(BX), Y0, Y4

	VPSRLQ $31, Y2, Y5
	VPAND  Y1, Y2, Y2
	VPADDQ Y5, Y2, Y2
	VPSRLQ $31, Y3, Y6
	VPAND  Y1, Y3, Y3
	VPADDQ Y6, Y3, Y3
	VPSRLQ $31, Y4, Y7
	VPAND  Y1, Y4, Y4
	VPADDQ Y7, Y4, Y4

	VPSUBQ    Y1, Y2, Y5
	VBLENDVPD Y5, Y2, Y5, Y2
	VPSUBQ    Y1, Y3, Y6
	VBLENDVPD Y6, Y3, Y6, Y3
	VPSUBQ    Y1, Y4, Y7
	VBLENDVPD Y7, Y4, Y7, Y4

	VPSLLQ  $40, Y2, Y2
	VPSLLQ  $20, Y3, Y3
	VPXOR   Y3, Y2, Y2
	VPXOR   Y4, Y2, Y2
	VPXOR   (SI), Y2, Y2
	VMOVDQU Y2, (DI)

	ADDQ $96, BX
	ADDQ $32, SI
	ADDQ $32, DI
	DECQ CX
	JNZ  loop

	VZEROUPPER

done:
	RET
