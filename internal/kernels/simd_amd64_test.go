//go:build amd64 && !purego

package kernels

import (
	"os"
	"strings"
	"testing"
)

// TestSIMDSelectedWhereCPUHasAVX2 fails when the CPU reports avx2 in
// /proc/cpuinfo but the CPU check chose no SIMD level, so a broken check
// cannot fall back to the Go kernels unnoticed; SetLevel must reach the
// AVX2 kernels and purego, and restore the check's choice.
func TestSIMDSelectedWhereCPUHasAVX2(t *testing.T) {
	info := cpuinfo(t)
	if !cpuinfoHasFlag(info, "avx2") {
		t.Skip("the CPU does not report avx2")
	}
	if hostLevel < levelAVX2 {
		t.Fatalf("/proc/cpuinfo reports avx2 but the CPUID/XGETBV check chose %s", levelNames[hostLevel])
	}
	best := Level()
	for _, lv := range []string{"avx2", "purego", best} {
		if err := SetLevel(lv); err != nil {
			t.Fatalf("SetLevel(%q): %v", lv, err)
		}
		if got := Level(); got != lv {
			t.Errorf("Level() = %q after SetLevel(%q)", got, lv)
		}
	}
}

// TestSIMDSelectedWhereCPUHasAVX512 fails when the CPU reports avx512f but
// the micro-kernels do not run the AVX-512 level, and checks that the
// lower levels stay reachable, so their kernels are tested here too.
func TestSIMDSelectedWhereCPUHasAVX512(t *testing.T) {
	if !cpuinfoHasFlag(cpuinfo(t), "avx512f") {
		t.Skip("the CPU does not report avx512f")
	}
	if lv := Level(); lv != "avx512" {
		t.Fatalf("Level() = %q with AVX-512F present, want avx512", lv)
	}
	if got, want := strings.Join(Levels(), " "), "avx512 avx2 purego"; got != want {
		t.Fatalf("Levels() = %q, want %q", got, want)
	}
}

// TestSetLevelRejectsUnknown checks that a level name SetLevel does not
// know leaves the level unchanged.
func TestSetLevelRejectsUnknown(t *testing.T) {
	before := Level()
	if err := SetLevel("neon"); err == nil {
		t.Fatal(`SetLevel("neon") succeeded`)
	}
	if Level() != before {
		t.Fatalf("Level() = %q after a rejected SetLevel, want %q", Level(), before)
	}
}

func cpuinfo(t *testing.T) string {
	t.Helper()
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo: %v", err)
	}
	return string(info)
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
