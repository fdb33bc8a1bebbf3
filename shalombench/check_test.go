package main

import (
	"math"
	"math/rand/v2"
	"testing"

	"libshalom"
	"libshalom/internal/heal"
)

// bigInputs returns an m×k A and k×n B uniform in [-100, 100).
func bigInputs(m, n, k int) (a, b []float32) {
	r := rand.New(rand.NewPCG(7, uint64(k)))
	a, b = make([]float32, m*k), make([]float32, k*n)
	fillUniform(r, a, 100)
	fillUniform(r, b, 100)
	return a, b
}

// A correct f32 result over long dot products of large inputs passes the
// dot-product bound, where the fixed relative tolerance of heal.Tolerance
// rejects at least one of them.
func TestCheckAcceptsCorrectLongDotProducts(t *testing.T) {
	const m, n = 16, 16
	agreed := 0
	for _, k := range []int{512, 4096} {
		a, b := bigInputs(m, n, k)
		c := make([]float32, m*n)
		if err := libshalom.New().SGEMM(libshalom.NN, m, n, k, 1, a, k, b, n, 0, c, n); err != nil {
			t.Fatal(err)
		}
		ref := reference(false, false, m, n, k, 1, widen(a), k, widen(b), n, 0, make([]float64, m*n), n, 4)
		if err := ref.check(widen(c), n, m, n); err != nil {
			t.Errorf("k=%d: correct result rejected: %v", k, err)
		}
		if heal.Agrees(widen(c), n, ref.want, n, m, n, heal.Tolerance(4)) {
			agreed++
		}
	}
	if agreed == 2 {
		t.Errorf("heal.Tolerance accepted both cases; this input no longer separates the two checks")
	}
}

// A result that drops the last k-step fails the bound.
func TestCheckRejectsDroppedKStep(t *testing.T) {
	const m, n = 8, 8
	for _, k := range []int{512, 4096} {
		a, b := bigInputs(m, n, k)
		got := make([]float64, m*n)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				var acc float32
				for p := 0; p < k-1; p++ {
					acc += a[i*k+p] * b[p*n+j]
				}
				got[i*n+j] = float64(acc)
			}
		}
		ref := reference(false, false, m, n, k, 1, widen(a), k, widen(b), n, 0, make([]float64, m*n), n, 4)
		if err := ref.check(got, n, m, n); err == nil {
			t.Errorf("k=%d: result missing the last k-step passed the check", k)
		}
	}
}

// The bound covers all four storage layouts and the β·C term.
func TestReferenceLayouts(t *testing.T) {
	const m, n, k = 5, 7, 9
	for _, mode := range []libshalom.Mode{libshalom.NN, libshalom.NT, libshalom.TN, libshalom.TT} {
		o := newOp(false, mode, m, n, k, 1.5, 1, 3, uint64(mode))
		o.allocate()
		ref := o.referenceNow()
		if err := o.runLib(libshalom.New()); err != nil {
			t.Fatal(err)
		}
		if err := o.checkAgainst(ref); err != nil {
			t.Errorf("%v: %v", mode, err)
		}
	}
}

func TestGammaK(t *testing.T) {
	u := unitRoundoff(4)
	if u != math.Ldexp(1, -24) || unitRoundoff(8) != math.Ldexp(1, -53) {
		t.Fatal("unit roundoff")
	}
	if g := gammaK(512, u); g <= 512*u || g > 512*u*1.001 {
		t.Errorf("γ_512 = %g", g)
	}
}
