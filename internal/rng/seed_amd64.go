//go:build amd64 && !noasm

package rng

// hasAVX2 and hasAVX512 report, once at init, which seed kernels the CPU and
// the OS support.
var hasAVX2, hasAVX512 = cpuSeedKernels()

// cpuSeedKernels reads the CPU's feature bits. AVX2 needs CPUID.7:EBX.AVX2
// (bit 5), CPUID.1:ECX.OSXSAVE (bit 27) and XCR0 showing the OS saving XMM
// and YMM state (bits 1, 2). AVX-512F needs CPUID.7:EBX.AVX512F (bit 16) and XCR0
// showing XMM, YMM, opmask and ZMM state (bits 1, 2, 5, 6, 7).
func cpuSeedKernels() (avx2, avx512 bool) {
	if max, _, _, _ := cpuid(0, 0); max < 7 {
		return false, false
	}
	if _, _, ecx, _ := cpuid(1, 0); ecx&(1<<27) == 0 {
		return false, false
	}
	xcr0 := xgetbv()
	_, ebx, _, _ := cpuid(7, 0)
	avx2 = ebx&(1<<5) != 0 && xcr0&0x06 == 0x06
	avx512 = ebx&(1<<16) != 0 && xcr0&0xe6 == 0xe6
	return avx2, avx512
}

// cpuid executes CPUID for a leaf and subleaf. Implemented in seed_amd64.s.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns the low word of XCR0. Implemented in seed_amd64.s.
func xgetbv() uint32

// seedAVX512 writes base[i] ^ u_i(s) into dst[i] for the first
// seedLanes·groups register words, s being a reduced seed and pow the power
// table laid out as powGroups. Every product is reduced exactly as mulmod
// does, so the words are bit-identical to seedPortable's. Implemented in
// seed_amd64.s.
//
//go:noescape
func seedAVX512(dst, base, pow *uint64, s uint64, groups int)

// seedAVX2 is seedAVX512 for CPUs with AVX2 only: the same contract, four
// lanes per instruction. Implemented in seed_amd64.s.
//
//go:noescape
func seedAVX2(dst, base, pow *uint64, s uint64, groups int)
