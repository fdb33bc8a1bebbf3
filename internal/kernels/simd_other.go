//go:build !amd64 || purego

package kernels

// hostLevel is always purego on this build, which has no SIMD kernels.
const hostLevel = levelPureGo

func currentLevel() kernelLevel { return levelPureGo }

func storeLevel(kernelLevel) {}

// The SIMD entry points are the Go kernels on this build; simd reports
// false, so the dispatch never reaches them.
func sgemmSIMD(mr, nr, kc int, alpha float32, a []float32, lda int, b []float32, ldb int, beta float32, c []float32, ldc int) {
	sgemmGo(mr, nr, kc, alpha, a, lda, b, ldb, beta, c, ldc)
}

func dgemmSIMD(mr, nr, kc int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) {
	dgemmGo(mr, nr, kc, alpha, a, lda, b, ldb, beta, c, ldc)
}
