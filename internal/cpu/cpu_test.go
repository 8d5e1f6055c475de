package cpu

import (
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// TestProbeMatchesCPUInfo compares the probe with the flags Linux reports,
// which it clears for any feature whose register state the OS does not save.
func TestProbeMatchesCPUInfo(t *testing.T) {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil || runtime.GOARCH != "amd64" {
		t.Skip("no /proc/cpuinfo flags for an amd64 CPU")
	}
	var flags []string
	for line := range strings.Lines(string(data)) {
		if name, value, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			flags = strings.Fields(value)
			break
		}
	}
	has := func(f string) bool { return slices.Contains(flags, f) }
	if want := has("avx512f") && has("avx512dq"); AVX512 != want {
		t.Errorf("AVX512 = %v, cpuinfo says %v", AVX512, want)
	}
	if want := has("avx512f") && has("vpclmulqdq"); VPCLMULQDQ != want {
		t.Errorf("VPCLMULQDQ = %v, cpuinfo says %v", VPCLMULQDQ, want)
	}
	t.Logf("AVX512 %v, VPCLMULQDQ %v", AVX512, VPCLMULQDQ)
}
