//go:build amd64 && !noasm

#include "textflag.h"

// func cpuSupportsAVX() bool
//
// CPUID.1:ECX must report OSXSAVE (bit 27) and AVX (bit 28), and XCR0 must
// show the OS saving XMM and YMM state (bits 1 and 2).
TEXT ·cpuSupportsAVX(SB), NOSPLIT, $0-1
	MOVL $1, AX
	CPUID
	MOVL CX, DX
	ANDL $(1<<27), DX
	JZ   noavx
	MOVL CX, DX
	ANDL $(1<<28), DX
	JZ   noavx
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  noavx
	MOVB $1, ret+0(FP)
	RET
noavx:
	MOVB $0, ret+0(FP)
	RET

// func block4AVX(dst, a, b *float64, k, stride, cols4 int)
//
// Four rows of a (row stride k) times b (k x stride), accumulated into four
// rows of dst (row stride `stride`, shared with b), columns [0, cols4) with
// cols4 % 4 == 0. k is outermost and ascending; products use VMULPD then
// VADDPD (no FMA), so every output element gets the scalar kernel's exact
// rounding sequence.
//
// Register plan: SI walks a's current column (AX re-derives the four row
// entries), BX walks b's rows, DI is the dst block origin. Y12-Y15 hold the
// four broadcast a-values for the current k; Y0/Y5 hold b column blocks;
// Y1-Y4 and Y6-Y9 are the per-row products. The j loop does eight columns
// per iteration with a four-column tail.
TEXT ·block4AVX(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), BX
	MOVQ k+24(FP), CX
	MOVQ stride+32(FP), R8
	MOVQ cols4+40(FP), R9
	SHLQ $3, R8               // dst/b row stride in bytes
	MOVQ k+24(FP), R11
	SHLQ $3, R11              // a row stride in bytes
	MOVQ R8, R10
	LEAQ (R10)(R10*2), R10    // 3 * row stride, for the fourth dst row

kloop:
	MOVQ SI, AX
	VBROADCASTSD (AX), Y12    // a0[kk]
	ADDQ R11, AX
	VBROADCASTSD (AX), Y13    // a1[kk]
	ADDQ R11, AX
	VBROADCASTSD (AX), Y14    // a2[kk]
	ADDQ R11, AX
	VBROADCASTSD (AX), Y15    // a3[kk]

	MOVQ BX, DX               // cursor into b's row kk
	MOVQ DI, R13              // cursor into dst row 0
	MOVQ R9, R14
	SUBQ $8, R14
	JL   jtail

jloop8:
	VMOVUPD (DX), Y0
	VMOVUPD 32(DX), Y5
	VMULPD  Y0, Y12, Y1
	VADDPD  (R13), Y1, Y1
	VMOVUPD Y1, (R13)
	VMULPD  Y5, Y12, Y6
	VADDPD  32(R13), Y6, Y6
	VMOVUPD Y6, 32(R13)
	VMULPD  Y0, Y13, Y2
	VADDPD  (R13)(R8*1), Y2, Y2
	VMOVUPD Y2, (R13)(R8*1)
	VMULPD  Y5, Y13, Y7
	VADDPD  32(R13)(R8*1), Y7, Y7
	VMOVUPD Y7, 32(R13)(R8*1)
	VMULPD  Y0, Y14, Y3
	VADDPD  (R13)(R8*2), Y3, Y3
	VMOVUPD Y3, (R13)(R8*2)
	VMULPD  Y5, Y14, Y8
	VADDPD  32(R13)(R8*2), Y8, Y8
	VMOVUPD Y8, 32(R13)(R8*2)
	VMULPD  Y0, Y15, Y4
	VADDPD  (R13)(R10*1), Y4, Y4
	VMOVUPD Y4, (R13)(R10*1)
	VMULPD  Y5, Y15, Y9
	VADDPD  32(R13)(R10*1), Y9, Y9
	VMOVUPD Y9, 32(R13)(R10*1)
	ADDQ $64, DX
	ADDQ $64, R13
	SUBQ $8, R14
	JGE  jloop8

jtail:
	ADDQ $8, R14              // remaining columns: 0 or 4 (cols4 % 4 == 0)
	JZ   knext
	VMOVUPD (DX), Y0
	VMULPD  Y0, Y12, Y1
	VADDPD  (R13), Y1, Y1
	VMOVUPD Y1, (R13)
	VMULPD  Y0, Y13, Y2
	VADDPD  (R13)(R8*1), Y2, Y2
	VMOVUPD Y2, (R13)(R8*1)
	VMULPD  Y0, Y14, Y3
	VADDPD  (R13)(R8*2), Y3, Y3
	VMOVUPD Y3, (R13)(R8*2)
	VMULPD  Y0, Y15, Y4
	VADDPD  (R13)(R10*1), Y4, Y4
	VMOVUPD Y4, (R13)(R10*1)

knext:
	ADDQ $8, SI               // next a column
	ADDQ R8, BX               // next b row
	DECQ CX
	JNZ  kloop
	VZEROUPPER
	RET

// func block8AVX(dst, a, b *float64, k, stride, cols4 int)
//
// Eight-row variant of block4AVX: one sweep over b's rows feeds eight output
// rows. Y8-Y15 hold the eight broadcast a-values for the current k, Y0/Y1
// hold b column blocks, Y2-Y7 are product temporaries. Rows 0-3 address off
// R13 and rows 4-7 off R12 = R13 + 4*stride, each using the {0, stride,
// 2*stride, 3*stride} offsets. Same rounding sequence as the scalar kernel.
TEXT ·block8AVX(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), BX
	MOVQ k+24(FP), CX
	MOVQ stride+32(FP), R8
	MOVQ cols4+40(FP), R9
	SHLQ $3, R8               // dst/b row stride in bytes
	MOVQ k+24(FP), R11
	SHLQ $3, R11              // a row stride in bytes
	MOVQ R8, R10
	LEAQ (R10)(R10*2), R10    // 3 * row stride

kloop8:
	MOVQ SI, AX
	VBROADCASTSD (AX), Y8     // a0[kk]
	ADDQ R11, AX
	VBROADCASTSD (AX), Y9
	ADDQ R11, AX
	VBROADCASTSD (AX), Y10
	ADDQ R11, AX
	VBROADCASTSD (AX), Y11
	ADDQ R11, AX
	VBROADCASTSD (AX), Y12
	ADDQ R11, AX
	VBROADCASTSD (AX), Y13
	ADDQ R11, AX
	VBROADCASTSD (AX), Y14
	ADDQ R11, AX
	VBROADCASTSD (AX), Y15    // a7[kk]

	MOVQ BX, DX               // cursor into b's row kk
	MOVQ DI, R13              // cursor into dst row 0
	MOVQ R9, R14
	SUBQ $8, R14
	JL   jtail8

jloop88:
	VMOVUPD (DX), Y0
	VMOVUPD 32(DX), Y1
	LEAQ (R13)(R8*4), R12     // cursor into dst row 4
	VMULPD  Y0, Y8, Y2
	VADDPD  (R13), Y2, Y2
	VMOVUPD Y2, (R13)
	VMULPD  Y1, Y8, Y3
	VADDPD  32(R13), Y3, Y3
	VMOVUPD Y3, 32(R13)
	VMULPD  Y0, Y9, Y4
	VADDPD  (R13)(R8*1), Y4, Y4
	VMOVUPD Y4, (R13)(R8*1)
	VMULPD  Y1, Y9, Y5
	VADDPD  32(R13)(R8*1), Y5, Y5
	VMOVUPD Y5, 32(R13)(R8*1)
	VMULPD  Y0, Y10, Y6
	VADDPD  (R13)(R8*2), Y6, Y6
	VMOVUPD Y6, (R13)(R8*2)
	VMULPD  Y1, Y10, Y7
	VADDPD  32(R13)(R8*2), Y7, Y7
	VMOVUPD Y7, 32(R13)(R8*2)
	VMULPD  Y0, Y11, Y2
	VADDPD  (R13)(R10*1), Y2, Y2
	VMOVUPD Y2, (R13)(R10*1)
	VMULPD  Y1, Y11, Y3
	VADDPD  32(R13)(R10*1), Y3, Y3
	VMOVUPD Y3, 32(R13)(R10*1)
	VMULPD  Y0, Y12, Y4
	VADDPD  (R12), Y4, Y4
	VMOVUPD Y4, (R12)
	VMULPD  Y1, Y12, Y5
	VADDPD  32(R12), Y5, Y5
	VMOVUPD Y5, 32(R12)
	VMULPD  Y0, Y13, Y6
	VADDPD  (R12)(R8*1), Y6, Y6
	VMOVUPD Y6, (R12)(R8*1)
	VMULPD  Y1, Y13, Y7
	VADDPD  32(R12)(R8*1), Y7, Y7
	VMOVUPD Y7, 32(R12)(R8*1)
	VMULPD  Y0, Y14, Y2
	VADDPD  (R12)(R8*2), Y2, Y2
	VMOVUPD Y2, (R12)(R8*2)
	VMULPD  Y1, Y14, Y3
	VADDPD  32(R12)(R8*2), Y3, Y3
	VMOVUPD Y3, 32(R12)(R8*2)
	VMULPD  Y0, Y15, Y4
	VADDPD  (R12)(R10*1), Y4, Y4
	VMOVUPD Y4, (R12)(R10*1)
	VMULPD  Y1, Y15, Y5
	VADDPD  32(R12)(R10*1), Y5, Y5
	VMOVUPD Y5, 32(R12)(R10*1)
	ADDQ $64, DX
	ADDQ $64, R13
	SUBQ $8, R14
	JGE  jloop88

jtail8:
	ADDQ $8, R14              // remaining columns: 0 or 4 (cols4 % 4 == 0)
	JZ   knext8
	VMOVUPD (DX), Y0
	LEAQ (R13)(R8*4), R12
	VMULPD  Y0, Y8, Y2
	VADDPD  (R13), Y2, Y2
	VMOVUPD Y2, (R13)
	VMULPD  Y0, Y9, Y3
	VADDPD  (R13)(R8*1), Y3, Y3
	VMOVUPD Y3, (R13)(R8*1)
	VMULPD  Y0, Y10, Y4
	VADDPD  (R13)(R8*2), Y4, Y4
	VMOVUPD Y4, (R13)(R8*2)
	VMULPD  Y0, Y11, Y5
	VADDPD  (R13)(R10*1), Y5, Y5
	VMOVUPD Y5, (R13)(R10*1)
	VMULPD  Y0, Y12, Y6
	VADDPD  (R12), Y6, Y6
	VMOVUPD Y6, (R12)
	VMULPD  Y0, Y13, Y7
	VADDPD  (R12)(R8*1), Y7, Y7
	VMOVUPD Y7, (R12)(R8*1)
	VMULPD  Y0, Y14, Y2
	VADDPD  (R12)(R8*2), Y2, Y2
	VMOVUPD Y2, (R12)(R8*2)
	VMULPD  Y0, Y15, Y3
	VADDPD  (R12)(R10*1), Y3, Y3
	VMOVUPD Y3, (R12)(R10*1)

knext8:
	ADDQ $8, SI               // next a column
	ADDQ R8, BX               // next b row
	DECQ CX
	JNZ  kloop8
	VZEROUPPER
	RET

// func vecMaxZero(dst, src *float64, n4 int)
//
// dst[i] = max(src[i], +0) for i in [0, n4), n4 % 4 == 0 and > 0. VMAXPD
// returns its second source on NaN and on equal-zero ties, so with +0 there
// this matches the scalar `v > 0 ? v : 0` bit for bit.
TEXT ·vecMaxZero(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n4+16(FP), CX
	VXORPD Y1, Y1, Y1
mzloop:
	VMOVUPD (SI), Y0
	VMAXPD  Y1, Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $4, CX
	JNZ  mzloop
	VZEROUPPER
	RET

// func vecMaskPositive(dst, grad, out *float64, n4 int)
//
// dst[i] = out[i] > 0 ? grad[i] : +0 for i in [0, n4), n4 % 4 == 0 and > 0.
// VCMPPD's ordered greater-than against +0 (predicate GT_OQ) sets a lane to
// all ones where out > 0 and to zero where out <= 0 or out is NaN; VANDPD of
// that mask with grad keeps grad's bits (-0 and NaN included) or gives +0.
TEXT ·vecMaskPositive(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ grad+8(FP), SI
	MOVQ out+16(FP), DX
	MOVQ n4+24(FP), CX
	VXORPD Y1, Y1, Y1
mploop:
	VMOVUPD (DX), Y0
	VCMPPD  $0x1e, Y1, Y0, Y0
	VANDPD  (SI), Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ $32, SI
	ADDQ $32, DX
	ADDQ $32, DI
	SUBQ $4, CX
	JNZ  mploop
	VZEROUPPER
	RET

// func vecAddRows(dst, row *float64, rows, stride, cols4 int)
//
// Adds row[0:cols4] into each of `rows` rows of dst (row stride `stride`
// values); cols4 % 4 == 0 and both counts > 0. One VADDPD per element, the
// same single rounding as the scalar bias loop.
TEXT ·vecAddRows(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ row+8(FP), SI
	MOVQ rows+16(FP), CX
	MOVQ stride+24(FP), R8
	MOVQ cols4+32(FP), R9
	SHLQ $3, R8               // row stride in bytes
arloop:
	MOVQ DI, DX
	MOVQ SI, BX
	MOVQ R9, R14
acloop:
	VMOVUPD (BX), Y0
	VADDPD  (DX), Y0, Y1
	VMOVUPD Y1, (DX)
	ADDQ $32, BX
	ADDQ $32, DX
	SUBQ $4, R14
	JNZ  acloop
	ADDQ R8, DI
	DECQ CX
	JNZ  arloop
	VZEROUPPER
	RET

// func adamAVX(p, grad, m, v *float64, n4 int, c *adamCoeffs)
//
// One Adam update of four elements per iteration, n4 % 4 == 0 and > 0. The
// operation order is adamUpdate's scalar loop:
//   gs = grad*scale
//   m  = beta1*m + mBeta1*gs
//   v  = beta2*v + (mBeta2*gs)*gs
//   p  = p - (lr*(m/bc1)) / (sqrt(v/bc2) + eps)
// Y7-Y15 hold the broadcast coefficients (adamCoeffs field order), Y0-Y3 the
// per-element temporaries.
TEXT ·adamAVX(SB), NOSPLIT, $0-48
	MOVQ p+0(FP), DI
	MOVQ grad+8(FP), SI
	MOVQ m+16(FP), R8
	MOVQ v+24(FP), R9
	MOVQ n4+32(FP), CX
	MOVQ c+40(FP), AX
	VBROADCASTSD 0(AX), Y15   // scale
	VBROADCASTSD 8(AX), Y14   // beta1
	VBROADCASTSD 16(AX), Y13  // mBeta1
	VBROADCASTSD 24(AX), Y12  // beta2
	VBROADCASTSD 32(AX), Y11  // mBeta2
	VBROADCASTSD 40(AX), Y10  // bc1
	VBROADCASTSD 48(AX), Y9   // bc2
	VBROADCASTSD 56(AX), Y8   // lr
	VBROADCASTSD 64(AX), Y7   // eps

adamloop:
	VMOVUPD (SI), Y0
	VMULPD  Y15, Y0, Y0       // gs = grad*scale
	VMULPD  (R8), Y14, Y1     // beta1*m
	VMULPD  Y0, Y13, Y2       // mBeta1*gs
	VADDPD  Y2, Y1, Y1        // m
	VMOVUPD Y1, (R8)
	VMULPD  (R9), Y12, Y2     // beta2*v
	VMULPD  Y0, Y11, Y3       // mBeta2*gs
	VMULPD  Y0, Y3, Y3        // (mBeta2*gs)*gs
	VADDPD  Y3, Y2, Y2        // v
	VMOVUPD Y2, (R9)
	VDIVPD  Y10, Y1, Y1       // mhat = m/bc1
	VDIVPD  Y9, Y2, Y2        // vhat = v/bc2
	VSQRTPD Y2, Y2
	VADDPD  Y7, Y2, Y2        // sqrt(vhat) + eps
	VMULPD  Y1, Y8, Y1        // lr*mhat
	VDIVPD  Y2, Y1, Y1        // (lr*mhat) / (sqrt(vhat) + eps)
	VMOVUPD (DI), Y3
	VSUBPD  Y1, Y3, Y3        // p - step
	VMOVUPD Y3, (DI)
	ADDQ $32, SI
	ADDQ $32, R8
	ADDQ $32, R9
	ADDQ $32, DI
	SUBQ $4, CX
	JNZ  adamloop
	VZEROUPPER
	RET
