package kernels

import (
	"math"
	"testing"

	"libshalom/internal/mat"
)

// The oracles are the scalar i-j-k loops the Go kernels replaced: each C
// element summed in its own precision in k order 0…kc−1, then combined as
// α·acc (+ β·c). The register-blocked kernels keep exactly that arithmetic,
// so they must agree bit for bit, not merely within a tolerance.

func oracleNN[T float](mr, nr, kc int, alpha T, a []T, lda int, b []T, ldb int, beta T, c []T, ldc int) {
	for i := 0; i < mr; i++ {
		ar := a[i*lda:]
		for j := 0; j < nr; j++ {
			var acc T
			for k := 0; k < kc; k++ {
				acc += ar[k] * b[k*ldb+j]
			}
			if beta == 0 {
				c[i*ldc+j] = alpha * acc
			} else {
				c[i*ldc+j] = alpha*acc + beta*c[i*ldc+j]
			}
		}
	}
}

func oracleNT[T float](mr, nr, kc int, alpha T, a []T, lda int, bT []T, ldbT int, beta T, c []T, ldc int) {
	for i := 0; i < mr; i++ {
		ar := a[i*lda:]
		for j := 0; j < nr; j++ {
			br := bT[j*ldbT:]
			var acc T
			for k := 0; k < kc; k++ {
				acc += ar[k] * br[k]
			}
			if beta == 0 {
				c[i*ldc+j] = alpha * acc
			} else {
				c[i*ldc+j] = alpha*acc + beta*c[i*ldc+j]
			}
		}
	}
}

// bitsOf widens one element to its IEEE bit pattern, so NaN payloads and
// signed zeros compare exactly.
func bitsOf[T float](v T) uint64 {
	switch x := any(v).(type) {
	case float32:
		return uint64(math.Float32bits(x))
	default:
		return math.Float64bits(any(v).(float64))
	}
}

// firstBitDiff returns the first index at which got and want differ in
// their bit patterns, or -1.
func firstBitDiff[T float](got, want []T) int {
	for i := range want {
		if bitsOf(got[i]) != bitsOf(want[i]) {
			return i
		}
	}
	return -1
}

func randSlice[T float](n int, rng *mat.RNG) []T {
	s := make([]T, n)
	for i := range s {
		s[i] = T(rng.Float64()*2 - 1)
	}
	return s
}

// microCase is one tile problem with padded leading dimensions. Operand
// slices are cut to the exact length the kernel may touch, so an
// out-of-tile read panics instead of passing silently.
type microCase struct {
	mr, nr, kc, lda, ldb, ldbT, ldc int
	alpha, beta                     float64
}

// kernelSet is one precision's kernels under test.
type kernelSet[T float] struct {
	nn, nt func(mr, nr, kc int, alpha T, a []T, lda int, b []T, ldb int, beta T, c []T, ldc int)
	ntPack func(mr, nr, kc int, alpha T, a []T, lda int, b []T, ldb int, beta T, c []T, ldc int, bc []T, nrTotal, jOff int)
}

// checkBitExact runs every kernel of ks on tc and compares C (the whole
// padded buffer, so writes outside the tile show) and the packed B buffers
// against the oracles bit for bit.
func checkBitExact[T float](t *testing.T, name string, ks kernelSet[T], tc microCase, rng *mat.RNG) {
	t.Helper()
	mr, nr, kc := tc.mr, tc.nr, tc.kc
	alpha, beta := T(tc.alpha), T(tc.beta)
	a := randSlice[T]((mr-1)*tc.lda+kc, rng)
	b := randSlice[T]((kc-1)*tc.ldb+nr, rng)
	bT := randSlice[T]((nr-1)*tc.ldbT+kc, rng)
	c0 := randSlice[T]((mr-1)*tc.ldc+nr, rng)
	if beta == 0 {
		// beta == 0 must overwrite C without reading it.
		for i := range c0 {
			c0[i] = T(math.NaN())
		}
	}
	// The pack wrapper writes the sliver at column jOff of a wider buffer.
	const jOff = 1
	nrTotal := nr + 2
	run := func(kernel string, got func(c []T), want func(c []T)) {
		t.Helper()
		cg, cw := append([]T(nil), c0...), append([]T(nil), c0...)
		got(cg)
		want(cw)
		if i := firstBitDiff(cg, cw); i >= 0 {
			t.Fatalf("%s %s %+v: C[%d] = %v (%#x), oracle %v (%#x)", name, kernel, tc, i, cg[i], bitsOf(cg[i]), cw[i], bitsOf(cw[i]))
		}
	}
	run("NN", func(c []T) { ks.nn(mr, nr, kc, alpha, a, tc.lda, b, tc.ldb, beta, c, tc.ldc) },
		func(c []T) { oracleNN(mr, nr, kc, alpha, a, tc.lda, b, tc.ldb, beta, c, tc.ldc) })
	run("NT", func(c []T) { ks.nt(mr, nr, kc, alpha, a, tc.lda, bT, tc.ldbT, beta, c, tc.ldc) },
		func(c []T) { oracleNT(mr, nr, kc, alpha, a, tc.lda, bT, tc.ldbT, beta, c, tc.ldc) })

	bc := make([]T, kc*nrTotal)
	run("NTPack", func(c []T) { ks.ntPack(mr, nr, kc, alpha, a, tc.lda, bT, tc.ldbT, beta, c, tc.ldc, bc, nrTotal, jOff) },
		func(c []T) { oracleNT(mr, nr, kc, alpha, a, tc.lda, bT, tc.ldbT, beta, c, tc.ldc) })
	for k := 0; k < kc; k++ {
		for j := 0; j < nr; j++ {
			if bitsOf(bc[k*nrTotal+jOff+j]) != bitsOf(bT[j*tc.ldbT+k]) {
				t.Fatalf("%s NTPack %+v: Bc(%d,%d) misplaced", name, tc, k, j)
			}
		}
	}
}

var (
	f32Set = kernelSet[float32]{SGEMMMicro, SGEMMMicroNT, SGEMMMicroNTPack}
	f64Set = kernelSet[float64]{DGEMMMicro, DGEMMMicroNT, DGEMMMicroNTPack}
)

// TestMicroKernelsBitExact sweeps every tile shape up to one past the FP32
// host tile in each direction (8×32, so every register block, SIMD column
// chunk, masked tail and leftover combination runs), at panel depths from
// 1 to KP920's kc = 431, with tight and padded leading dimensions, at
// every kernel level, against the k-ordered oracles.
func TestMicroKernelsBitExact(t *testing.T) {
	rng := mat.NewRNG(14)
	for _, lv := range Levels() {
		atLevel(lv, func() {
			for _, kc := range []int{1, 3, 17, 64, 431} {
				for mr := 1; mr <= 9; mr++ {
					for nr := 1; nr <= 33; nr++ {
						for _, beta := range []float64{0, 1, 0.5} {
							for _, pad := range []int{0, 3} {
								tc := microCase{mr: mr, nr: nr, kc: kc,
									lda: kc + pad, ldb: nr + 2*pad, ldbT: kc + pad, ldc: nr + pad + 1,
									alpha: 1.5, beta: beta}
								checkBitExact(t, "f32/"+lv, f32Set, tc, rng)
								checkBitExact(t, "f64/"+lv, f64Set, tc, rng)
							}
						}
					}
				}
			}
		})
	}
}
