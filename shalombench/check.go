package main

import (
	"fmt"
	"math"
)

// safetyFactor widens the forward-error bound of a length-k dot product to
// cover the rounding of the α scaling, the β·C update and the final store,
// and any reassociation a kernel applies to the k-sum. Each of those adds at
// most one unit roundoff per term, which a factor of two absorbs.
const safetyFactor = 2.0

// unitRoundoff is u for an element size: 2⁻²⁴ for float32, 2⁻⁵³ for float64.
func unitRoundoff(elemBytes int) float64 {
	if elemBytes == 8 {
		return math.Ldexp(1, -53)
	}
	return math.Ldexp(1, -24)
}

// gammaK is γ_k = k·u/(1−k·u), the classic bound on the relative error of a
// k-term floating-point dot product.
func gammaK(k int, u float64) float64 {
	ku := float64(k) * u
	return ku / (1 - ku)
}

// refResult is the float64 reference of one GEMM: the exact-as-possible
// result C = α·op(A)·op(B) + β·C0 and the per-element error bound
// s·γ_k·|α|·(|A||B|)_ij + u·|β·C0_ij|, both m×n row-major.
type refResult struct {
	want  []float64
	bound []float64
}

// reference computes the float64 reference and bound of one GEMM whose
// operands are given as float64 row-major arrays in their stored layout
// (A is k×m when transA, B is n×k when transB).
func reference(transA, transB bool, m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c0 []float64, ldc int, elemBytes int) refResult {
	u := unitRoundoff(elemBytes)
	g := safetyFactor * gammaK(k, u) * math.Abs(alpha)
	r := refResult{want: make([]float64, m*n), bound: make([]float64, m*n)}
	rows := func(lo, hi int) {
		ai := make([]float64, k)
		acc := make([]float64, n)
		abs := make([]float64, n)
		for i := lo; i < hi; i++ {
			for p := range ai {
				if transA {
					ai[p] = a[p*lda+i]
				} else {
					ai[p] = a[i*lda+p]
				}
			}
			if transB {
				// B is stored n×k: each element of the row is a dot product
				// of two contiguous vectors.
				for j := 0; j < n; j++ {
					var d, da float64
					for p, bjp := range b[j*ldb : j*ldb+k] {
						d += ai[p] * bjp
						da += math.Abs(ai[p]) * math.Abs(bjp)
					}
					acc[j], abs[j] = d, da
				}
			} else {
				clear(acc)
				clear(abs)
				for p, aip := range ai {
					absA := math.Abs(aip)
					for j, bpj := range b[p*ldb : p*ldb+n] {
						acc[j] += aip * bpj
						abs[j] += absA * math.Abs(bpj)
					}
				}
			}
			for j := 0; j < n; j++ {
				bc := beta * c0[i*ldc+j]
				r.want[i*n+j] = alpha*acc[j] + bc
				r.bound[i*n+j] = g*abs[j] + u*math.Abs(bc)
			}
		}
	}
	// Large references split their rows over the processors; small ones
	// are not worth the goroutines.
	if m*n*k < 1<<20 {
		rows(0, m)
	} else {
		parallelRows(m, rows)
	}
	return r
}

// check compares a computed m×n result (leading dimension ldc) against the
// reference, returning an error naming the first element outside the bound.
func (r refResult) check(got []float64, ldc, m, n int) error {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			g, w, b := got[i*ldc+j], r.want[i*n+j], r.bound[i*n+j]
			if d := math.Abs(g - w); !(d <= b) {
				return fmt.Errorf("C[%d,%d] = %g, reference %g, |error| %.3g exceeds bound %.3g", i, j, g, w, d, b)
			}
		}
	}
	return nil
}

func widen[T float](v []T) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = float64(x)
	}
	return out
}
