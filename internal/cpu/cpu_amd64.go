package cpu

// cpuid returns CPUID leaf's registers, subleaf 0.
func cpuid(leaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns the low word of XCR0, the state components the OS saves.
func xgetbv() uint32
