//go:build amd64 && !noasm

package rng

// useAVX2 gates seedAVX2. It is true when the CPU implements AVX2 and the OS
// saves YMM state on context switch (CPUID.7:EBX.AVX2, CPUID.1:ECX.OSXSAVE
// plus XCR0 XMM|YMM), checked once at init.
var useAVX2 = cpuSupportsAVX2()

// cpuSupportsAVX2 reports whether AVX2 is usable (CPU + OS). Implemented in
// seed_amd64.s.
func cpuSupportsAVX2() bool

// seedAVX2 writes base[i] ^ u_i(s) into dst[i] for the first 4·groups
// register words, s being a reduced seed and pow the power table laid out
// as powGroups. Every product is reduced exactly as mulmod does, so the
// words are bit-identical to seedPortable's. Implemented in seed_amd64.s.
//
//go:noescape
func seedAVX2(dst, base, pow *uint64, s uint64, groups int)
