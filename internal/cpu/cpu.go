// Package cpu probes, once at init, the x86 vector features the repo's
// assembly kernels need: the payload keystream's (internal/prng) and the
// payload checksum's (internal/dataset). Other architectures report none.
package cpu

// AVX512 reports AVX512F and AVX512DQ, with the OS saving the opmask and
// ZMM state: the keystream kernel's requirement.
var AVX512 bool

// VPCLMULQDQ reports VPCLMULQDQ (CPUID leaf 7 ECX bit 10) with AVX512F,
// and the OS saving the opmask, YMM and ZMM state: the checksum kernel's
// requirement.
var VPCLMULQDQ bool

func init() { AVX512, VPCLMULQDQ = probe() }

func probe() (avx512, vpclmulqdq bool) {
	if maxLeaf, _, _, _ := cpuid(0); maxLeaf < 7 {
		return false, false
	}
	if _, _, c, _ := cpuid(1); c&(1<<27) == 0 {
		return false, false // no OSXSAVE: XGETBV is not usable
	}
	if xgetbv()&0xe6 != 0xe6 {
		return false, false // the OS does not save SSE, AVX, opmask and both ZMM halves
	}
	_, b, c, _ := cpuid(7)
	f := b&(1<<16) != 0
	return f && b&(1<<17) != 0, f && c&(1<<10) != 0
}
