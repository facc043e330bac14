//go:build amd64 && !noasm

#include "textflag.h"

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() uint32
//
// The low word of XCR0; only call it when CPUID.1:ECX.OSXSAVE is set.
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	XORL CX, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET

// func seedAVX512(dst, base, pow *uint64, s uint64, groups int)
//
// Per group of eight words: three VPMULUDQ form s·P_k for k = 0, 1, 2 (the
// powers and s are below 2³¹, so the low 32 bits of each lane are the whole
// operand); one Mersenne fold t = (p & M) + (p >> 31) brings each product
// below 2M; VPMINUQ of t and t − M picks t − M exactly when t > M, since
// t − M wraps to above 2⁶³ when t < M. The three reduced values are shifted
// by 40, 20 and 0 and XORed with each other (one VPTERNLOGQ, truth table
// 0x96) and with base, and stored to dst.
//
// Register plan: Z0 holds s and Z1 holds M in every lane (all ones shifted
// right by 33); Z2-Z4 are the three products of the current group, Z5-Z7
// scratch. BX walks pow (192 bytes per group), SI walks base and DI walks
// dst (64 bytes per group). No legacy-SSE instruction runs here: after a
// VEX.256 or EVEX.512 write one would cost an SSE/AVX state transition.
TEXT ·seedAVX512(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ base+8(FP), SI
	MOVQ pow+16(FP), BX
	MOVQ s+24(FP), AX
	MOVQ groups+32(FP), CX
	TESTQ CX, CX
	JLE  done512
	VPBROADCASTQ AX, Z0
	VPTERNLOGQ   $0xff, Z1, Z1, Z1
	VPSRLQ       $33, Z1, Z1

loop512:
	VPMULUDQ 0(BX), Z0, Z2
	VPMULUDQ 64(BX), Z0, Z3
	VPMULUDQ 128(BX), Z0, Z4

	VPSRLQ $31, Z2, Z5
	VPANDQ Z1, Z2, Z2
	VPADDQ Z5, Z2, Z2
	VPSRLQ $31, Z3, Z6
	VPANDQ Z1, Z3, Z3
	VPADDQ Z6, Z3, Z3
	VPSRLQ $31, Z4, Z7
	VPANDQ Z1, Z4, Z4
	VPADDQ Z7, Z4, Z4

	VPSUBQ  Z1, Z2, Z5
	VPMINUQ Z5, Z2, Z2
	VPSUBQ  Z1, Z3, Z6
	VPMINUQ Z6, Z3, Z3
	VPSUBQ  Z1, Z4, Z7
	VPMINUQ Z7, Z4, Z4

	VPSLLQ     $40, Z2, Z2
	VPSLLQ     $20, Z3, Z3
	VPXORQ     (SI), Z4, Z4
	VPTERNLOGQ $0x96, Z4, Z3, Z2
	VMOVDQU64  Z2, (DI)

	ADDQ $192, BX
	ADDQ $64, SI
	ADDQ $64, DI
	DECQ CX
	JNZ  loop512

	VZEROUPPER

done512:
	RET

// func seedAVX2(dst, base, pow *uint64, s uint64, groups int)
//
// The AVX2 form of seedAVX512 over the same eight-word groups, as two halves
// of four lanes: the fold is the same, and VPSUBQ M with VBLENDVPD on the
// sign of t − M picks t or t − M. Y0 holds s and Y1 holds M in every lane;
// Y2-Y4 and Y8-Y10 are the products of the low and high half, Y5-Y7 and
// Y11-Y13 scratch. s is broadcast straight from the argument frame, so no
// legacy-SSE MOVQ into an X register follows a VEX.256 write.
TEXT ·seedAVX2(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ base+8(FP), SI
	MOVQ pow+16(FP), BX
	MOVQ groups+32(FP), CX
	TESTQ CX, CX
	JLE  done2
	VPBROADCASTQ s+24(FP), Y0
	VPCMPEQQ     Y1, Y1, Y1
	VPSRLQ       $33, Y1, Y1

loop2:
	VPMULUDQ 0(BX), Y0, Y2
	VPMULUDQ 64(BX), Y0, Y3
	VPMULUDQ 128(BX), Y0, Y4
	VPMULUDQ 32(BX), Y0, Y8
	VPMULUDQ 96(BX), Y0, Y9
	VPMULUDQ 160(BX), Y0, Y10

	VPSRLQ $31, Y2, Y5
	VPAND  Y1, Y2, Y2
	VPADDQ Y5, Y2, Y2
	VPSRLQ $31, Y3, Y6
	VPAND  Y1, Y3, Y3
	VPADDQ Y6, Y3, Y3
	VPSRLQ $31, Y4, Y7
	VPAND  Y1, Y4, Y4
	VPADDQ Y7, Y4, Y4
	VPSRLQ $31, Y8, Y11
	VPAND  Y1, Y8, Y8
	VPADDQ Y11, Y8, Y8
	VPSRLQ $31, Y9, Y12
	VPAND  Y1, Y9, Y9
	VPADDQ Y12, Y9, Y9
	VPSRLQ $31, Y10, Y13
	VPAND  Y1, Y10, Y10
	VPADDQ Y13, Y10, Y10

	VPSUBQ    Y1, Y2, Y5
	VBLENDVPD Y5, Y2, Y5, Y2
	VPSUBQ    Y1, Y3, Y6
	VBLENDVPD Y6, Y3, Y6, Y3
	VPSUBQ    Y1, Y4, Y7
	VBLENDVPD Y7, Y4, Y7, Y4
	VPSUBQ    Y1, Y8, Y11
	VBLENDVPD Y11, Y8, Y11, Y8
	VPSUBQ    Y1, Y9, Y12
	VBLENDVPD Y12, Y9, Y12, Y9
	VPSUBQ    Y1, Y10, Y13
	VBLENDVPD Y13, Y10, Y13, Y10

	VPSLLQ  $40, Y2, Y2
	VPSLLQ  $20, Y3, Y3
	VPXOR   Y3, Y2, Y2
	VPXOR   Y4, Y2, Y2
	VPXOR   (SI), Y2, Y2
	VMOVDQU Y2, (DI)
	VPSLLQ  $40, Y8, Y8
	VPSLLQ  $20, Y9, Y9
	VPXOR   Y9, Y8, Y8
	VPXOR   Y10, Y8, Y8
	VPXOR   32(SI), Y8, Y8
	VMOVDQU Y8, 32(DI)

	ADDQ $192, BX
	ADDQ $64, SI
	ADDQ $64, DI
	DECQ CX
	JNZ  loop2

	VZEROUPPER

done2:
	RET
