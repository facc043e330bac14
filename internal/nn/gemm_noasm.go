//go:build !amd64 || noasm

package nn

// Builds without the assembly microkernels (non-amd64, or the noasm tag used
// by the CI fallback leg) keep MatMulInto on its portable blocked loops,
// which compute identical bits.
var useAVX = false

func block4AVX(dst, a, b *float64, k, stride, cols4 int) {
	panic("nn: assembly kernel not available on this architecture")
}

func block8AVX(dst, a, b *float64, k, stride, cols4 int) {
	panic("nn: assembly kernel not available on this architecture")
}

func vecMaxZero(dst, src *float64, n4 int) {
	panic("nn: assembly kernel not available on this architecture")
}

func vecMaskPositive(dst, grad, out *float64, n4 int) {
	panic("nn: assembly kernel not available on this architecture")
}

func vecAddRows(dst, row *float64, rows, stride, cols4 int) {
	panic("nn: assembly kernel not available on this architecture")
}

func adamAVX(p, grad, m, v *float64, n4 int, c *adamCoeffs) {
	panic("nn: assembly kernel not available on this architecture")
}
