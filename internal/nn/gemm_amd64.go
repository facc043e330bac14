//go:build amd64 && !noasm

package nn

// useAVX gates the assembly microkernels in MatMulInto, AddRowVector and
// batchReLU. It is true when the CPU implements AVX and the OS saves YMM
// state on context switch (CPUID.1:ECX.OSXSAVE+AVX plus XCR0 XMM|YMM),
// checked once at init.
var useAVX = cpuSupportsAVX()

// cpuSupportsAVX reports whether AVX is usable (CPU + OS). Implemented in
// gemm_amd64.s.
func cpuSupportsAVX() bool

// block4AVX accumulates a 4-row by cols4-column block of a GEMM: for four
// consecutive rows of a (row stride k values) it adds a@b into four
// consecutive rows of dst (row stride `stride` values, shared with b),
// covering columns [0, cols4) where cols4 %% 4 == 0. The k loop is outermost
// and ascending and every step is a separate VMULPD/VADDPD (never FMA), so
// each output element sees exactly the same sequence of IEEE-754 roundings as
// MatMulInto's portable loops: results are bit-identical for finite operands.
// Implemented in gemm_amd64.s.
//
//go:noescape
func block4AVX(dst, a, b *float64, k, stride, cols4 int)

// block8AVX is block4AVX for eight consecutive rows of a and dst: one sweep
// over b's rows serves eight output rows, halving weight-matrix streaming
// relative to the 4-row kernel on large batches. Same bit-identity contract.
// Implemented in gemm_amd64.s.
//
//go:noescape
func block8AVX(dst, a, b *float64, k, stride, cols4 int)

// vecMaxZero writes dst[i] = max(src[i], +0) for i in [0, n4), n4 %% 4 == 0.
// VMAXPD with +0 as the second source reproduces the scalar `v > 0 ? v : 0`
// exactly: negatives, -0 and NaN all map to +0, positives pass through.
// Implemented in gemm_amd64.s.
//
//go:noescape
func vecMaxZero(dst, src *float64, n4 int)

// vecMaskPositive writes dst[i] = grad[i] where out[i] > 0 and +0 where
// out[i] <= 0 or is NaN, for i in [0, n4), n4 %% 4 == 0: a VCMPPD/VANDPD
// mask, bit-identical to the scalar `out > 0 ? grad : 0` (grad's -0 and NaN
// pass unchanged). Implemented in gemm_amd64.s.
//
//go:noescape
func vecMaskPositive(dst, grad, out *float64, n4 int)

// vecAddRows adds the cols4-prefix (cols4 %% 4 == 0) of a row vector into
// each of `rows` rows of dst (row stride `stride` values): one IEEE add per
// element, bit-identical to the portable loop in Matrix.AddRowVector.
// Implemented in gemm_amd64.s.
//
//go:noescape
func vecAddRows(dst, row *float64, rows, stride, cols4 int)

// adamAVX applies one Adam update (see adamUpdate) to the first n4 elements
// of the parameter values p, gradients grad and moments m and v, n4 %% 4 == 0
// and > 0. Each element runs the scalar loop's multiplies, adds, divides,
// square root and subtract in the same order as separate VMULPD, VADDPD,
// VDIVPD, VSQRTPD and VSUBPD instructions (never FMA), so the results are
// bit-identical to it. Implemented in gemm_amd64.s.
//
//go:noescape
func adamAVX(p, grad, m, v *float64, n4 int, c *adamCoeffs)
