//go:build !amd64 || noasm

package rng

// Builds without the assembly kernels (non-amd64, or the noasm tag used by
// the CI fallback leg) seed through seedPortable, which computes identical
// bits.
var hasAVX2, hasAVX512 = false, false

func seedAVX512(dst, base, pow *uint64, s uint64, groups int) {
	panic("rng: assembly kernel not available on this architecture")
}

func seedAVX2(dst, base, pow *uint64, s uint64, groups int) {
	panic("rng: assembly kernel not available on this architecture")
}
