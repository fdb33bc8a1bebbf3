//go:build amd64 && !purego

package kernels

import "sync/atomic"

// hostLevel is the CPU check, run once at init: the best kernel level the
// CPU implements and the OS saves the register state of.
var hostLevel = detectLevel()

// level is the kernel level the entry points run; it starts as hostLevel
// and SetLevel switches it.
var level atomic.Int32

func init() { level.Store(int32(hostLevel)) }

func currentLevel() kernelLevel { return kernelLevel(level.Load()) }

func storeLevel(lv kernelLevel) { level.Store(int32(lv)) }

func detectLevel() kernelLevel {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return levelPureGo
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return levelPureGo
	}
	// XCR0 bits 1 and 2: the OS saves the XMM and YMM state.
	xcr0, _ := xgetbv()
	if xcr0&6 != 6 {
		return levelPureGo
	}
	const avx2, avx512f = 1 << 5, 1 << 16
	_, ebx, _, _ := cpuid(7, 0)
	switch {
	case ebx&avx2 == 0:
		return levelPureGo
	// XCR0 bits 5–7: the OS also saves the opmask registers, the upper
	// halves of ZMM0–15 and ZMM16–31.
	case ebx&avx512f != 0 && xcr0&0xE6 == 0xE6:
		return levelAVX512
	}
	return levelAVX2
}

// sgemmSIMD runs an SGEMMMicro tile on the assembly kernels in row blocks
// of four (then the 1–3 leftover rows). The AVX-512 kernel covers every
// column, masking the last 1–15; the AVX2 kernel covers the leading
// nr &^ 3 columns and leaves the last nr mod 4 to the Go blocks. One
// bounds check per operand covers every element the assembly reads or
// writes, so a short slice panics here instead of being overrun.
func sgemmSIMD(mr, nr, kc int, alpha float32, a []float32, lda int, b []float32, ldb int, beta float32, c []float32, ldc int) {
	zmm := currentLevel() == levelAVX512
	nv := nr
	if !zmm {
		nv = nr &^ 3
	}
	if mr <= 0 || nv <= 0 || kc <= 0 || lda < 0 || ldb < 0 || ldc < 0 {
		sgemmGo(mr, nr, kc, alpha, a, lda, b, ldb, beta, c, ldc)
		return
	}
	_ = a[(mr-1)*lda+kc-1]
	_ = b[(kc-1)*ldb+nv-1]
	_ = c[(mr-1)*ldc+nv-1]
	for i := 0; i < mr; i += 4 {
		if zmm {
			sgemmAVX512(min(4, mr-i), nv, kc, alpha, &a[i*lda], lda, &b[0], ldb, beta, &c[i*ldc], ldc)
		} else {
			sgemmAVX2(min(4, mr-i), nv, kc, alpha, &a[i*lda], lda, &b[0], ldb, beta, &c[i*ldc], ldc)
		}
	}
	if nv < nr {
		sgemmGo(mr, nr-nv, kc, alpha, a, lda, b[nv:], ldb, beta, c[nv:], ldc)
	}
}

// dgemmSIMD is sgemmSIMD for FP64: every column on the AVX-512 kernel, or
// columns in pairs on the AVX2 kernel and an odd last column on the Go
// blocks.
func dgemmSIMD(mr, nr, kc int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) {
	zmm := currentLevel() == levelAVX512
	nv := nr
	if !zmm {
		nv = nr &^ 1
	}
	if mr <= 0 || nv <= 0 || kc <= 0 || lda < 0 || ldb < 0 || ldc < 0 {
		dgemmGo(mr, nr, kc, alpha, a, lda, b, ldb, beta, c, ldc)
		return
	}
	_ = a[(mr-1)*lda+kc-1]
	_ = b[(kc-1)*ldb+nv-1]
	_ = c[(mr-1)*ldc+nv-1]
	for i := 0; i < mr; i += 4 {
		if zmm {
			dgemmAVX512(min(4, mr-i), nv, kc, alpha, &a[i*lda], lda, &b[0], ldb, beta, &c[i*ldc], ldc)
		} else {
			dgemmAVX2(min(4, mr-i), nv, kc, alpha, &a[i*lda], lda, &b[0], ldb, beta, &c[i*ldc], ldc)
		}
	}
	if nv < nr {
		dgemmGo(mr, nr-nv, kc, alpha, a, lda, b[nv:], ldb, beta, c[nv:], ldc)
	}
}

// sgemmAVX512 computes the rows×cols block c = α·a·b (+ β·c) for
// 1 ≤ rows ≤ 4, cols ≥ 1 and kc ≥ 1, reading exactly the elements of a, b
// and c that block covers (avx512_amd64.s).
//
//shalom:asmleaf noalloc,nolock,noblock,notime
//go:noescape
func sgemmAVX512(rows, cols, kc int, alpha float32, a *float32, lda int, b *float32, ldb int, beta float32, c *float32, ldc int)

// dgemmAVX512 is sgemmAVX512 for FP64.
//
//shalom:asmleaf noalloc,nolock,noblock,notime
//go:noescape
func dgemmAVX512(rows, cols, kc int, alpha float64, a *float64, lda int, b *float64, ldb int, beta float64, c *float64, ldc int)

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
