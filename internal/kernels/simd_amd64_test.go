//go:build amd64 && !purego

package kernels

import (
	"os"
	"strings"
	"testing"
)

// TestSIMDSelectedWhereCPUHasAVX2 fails when the CPU reports avx2 in
// /proc/cpuinfo but the micro-kernels did not select the AVX2 path, so a
// broken CPU check cannot fall back to the Go kernels unnoticed.
func TestSIMDSelectedWhereCPUHasAVX2(t *testing.T) {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo: %v", err)
	}
	if !cpuinfoHasFlag(string(info), "avx2") {
		t.Skip("the CPU does not report avx2")
	}
	if !hasAVX2 {
		t.Fatal("/proc/cpuinfo reports avx2 but the CPUID/XGETBV check found none")
	}
	if lv := Level(); lv != "avx2" {
		t.Fatalf("Level() = %q with AVX2 present, want avx2", lv)
	}
	SetPureGo(true)
	if lv := Level(); lv != "purego" {
		t.Errorf("Level() = %q after SetPureGo(true), want purego", lv)
	}
	SetPureGo(false)
	if lv := Level(); lv != "avx2" {
		t.Errorf("Level() = %q after SetPureGo(false), want avx2", lv)
	}
}

// cpuinfoHasFlag reports whether any "flags" line of a /proc/cpuinfo
// listing names flag.
func cpuinfoHasFlag(info, flag string) bool {
	for _, line := range strings.Split(info, "\n") {
		name, list, ok := strings.Cut(line, ":")
		if !ok || strings.TrimSpace(name) != "flags" {
			continue
		}
		for _, f := range strings.Fields(list) {
			if f == flag {
				return true
			}
		}
	}
	return false
}
