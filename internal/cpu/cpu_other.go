//go:build !amd64

package cpu

func cpuid(leaf uint32) (eax, ebx, ecx, edx uint32) { return 0, 0, 0, 0 }

func xgetbv() uint32 { return 0 }
