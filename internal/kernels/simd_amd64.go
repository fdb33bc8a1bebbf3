//go:build amd64 && !purego

package kernels

import "sync/atomic"

// hasAVX2 is the CPU check, run once at init: the CPU implements AVX2 and
// the OS saves the YMM register state across context switches.
var hasAVX2 = detectAVX2()

// simdOn selects the AVX2 kernels; it starts as hasAVX2 and SetPureGo
// switches it.
var simdOn atomic.Bool

func init() { simdOn.Store(hasAVX2) }

func detectAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	// XCR0 bits 1 and 2: the OS saves the XMM and YMM state.
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

// Level names the host kernels the micro-kernel entry points run:
// "avx2", or "purego" for the portable Go kernels.
func Level() string {
	if simd() {
		return "avx2"
	}
	return "purego"
}

// SetPureGo switches every micro-kernel entry point to the portable Go
// kernels (pure = true) or back to the level the CPU check chose. It
// exists for in-process comparisons of the two, such as make bench-smoke;
// both paths give bit-identical results.
func SetPureGo(pure bool) { simdOn.Store(hasAVX2 && !pure) }

func simd() bool { return simdOn.Load() }

// sgemmSIMD runs an SGEMMMicro tile on the AVX2 kernel in row blocks of
// four (then the 1–3 leftover rows) over the leading nr &^ 3 columns, and
// the last nr mod 4 columns on the Go blocks. One bounds check per operand
// covers every element the assembly reads or writes, so a short slice
// panics here instead of being overrun.
func sgemmSIMD(mr, nr, kc int, alpha float32, a []float32, lda int, b []float32, ldb int, beta float32, c []float32, ldc int) {
	nv := nr &^ 3
	if mr <= 0 || nv <= 0 || kc <= 0 || lda < 0 || ldb < 0 || ldc < 0 {
		sgemmGo(mr, nr, kc, alpha, a, lda, b, ldb, beta, c, ldc)
		return
	}
	_ = a[(mr-1)*lda+kc-1]
	_ = b[(kc-1)*ldb+nv-1]
	_ = c[(mr-1)*ldc+nv-1]
	for i := 0; i < mr; i += 4 {
		sgemmAVX2(min(4, mr-i), nv, kc, alpha, &a[i*lda], lda, &b[0], ldb, beta, &c[i*ldc], ldc)
	}
	if nv < nr {
		sgemmGo(mr, nr-nv, kc, alpha, a, lda, b[nv:], ldb, beta, c[nv:], ldc)
	}
}

// dgemmSIMD is sgemmSIMD for FP64: columns in pairs on the AVX2 kernel,
// an odd last column on the Go blocks.
func dgemmSIMD(mr, nr, kc int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) {
	nv := nr &^ 1
	if mr <= 0 || nv <= 0 || kc <= 0 || lda < 0 || ldb < 0 || ldc < 0 {
		dgemmGo(mr, nr, kc, alpha, a, lda, b, ldb, beta, c, ldc)
		return
	}
	_ = a[(mr-1)*lda+kc-1]
	_ = b[(kc-1)*ldb+nv-1]
	_ = c[(mr-1)*ldc+nv-1]
	for i := 0; i < mr; i += 4 {
		dgemmAVX2(min(4, mr-i), nv, kc, alpha, &a[i*lda], lda, &b[0], ldb, beta, &c[i*ldc], ldc)
	}
	if nv < nr {
		dgemmGo(mr, nr-nv, kc, alpha, a, lda, b[nv:], ldb, beta, c[nv:], ldc)
	}
}

// sgemmAVX2 computes the rows×cols block c = α·a·b (+ β·c) for
// 1 ≤ rows ≤ 4, cols a positive multiple of 4 and kc ≥ 1, reading
// exactly the elements of a, b and c that block covers (simd_amd64.s).
//
//shalom:asmleaf noalloc,nolock,noblock,notime
//go:noescape
func sgemmAVX2(rows, cols, kc int, alpha float32, a *float32, lda int, b *float32, ldb int, beta float32, c *float32, ldc int)

// dgemmAVX2 is sgemmAVX2 for FP64, with cols a positive multiple of 2.
//
//shalom:asmleaf noalloc,nolock,noblock,notime
//go:noescape
func dgemmAVX2(rows, cols, kc int, alpha float64, a *float64, lda int, b *float64, ldb int, beta float64, c *float64, ldc int)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
