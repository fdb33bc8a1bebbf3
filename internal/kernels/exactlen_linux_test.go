package kernels

import (
	"os"
	"syscall"
	"testing"
	"unsafe"

	"libshalom/internal/mat"
)

// guarded returns an n-element slice that ends exactly where a mapped page
// ends, with an inaccessible page after it: touching one element past the
// slice faults, even from assembly, which no bounds check sees. free
// unmaps it.
func guarded[T float](t *testing.T, n int) (s []T, free func()) {
	t.Helper()
	size := int(unsafe.Sizeof(T(0)))
	page := os.Getpagesize()
	body := (n*size + page - 1) / page * page
	mem, err := syscall.Mmap(-1, 0, body+page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatalf("mmap: %v", err)
	}
	if err := syscall.Mprotect(mem[body:], syscall.PROT_NONE); err != nil {
		t.Fatalf("mprotect: %v", err)
	}
	s = unsafe.Slice((*T)(unsafe.Pointer(&mem[body-n*size])), n)
	return s, func() { _ = syscall.Munmap(mem) }
}

// fillGuarded copies src into a guarded slice of the same length.
func fillGuarded[T float](t *testing.T, src []T) ([]T, func()) {
	s, free := guarded[T](t, len(src))
	copy(s, src)
	return s, free
}

// checkExactLength runs the NN and NT-pack kernels of ks on operands with
// tight leading dimensions and no slack past the last element a tile may
// read or write, each against a guard page, and compares C and the packed
// sliver with the oracles bit for bit.
func checkExactLength[T float](t *testing.T, name string, ks kernelSet[T], mr, nr, kc int, beta T, rng *mat.RNG) {
	t.Helper()
	const alpha = 1.5
	// NT-pack writes its sliver at column jOff of a wider buffer.
	const jOff = 1
	nrTotal := nr + jOff
	a, freeA := fillGuarded(t, randSlice[T](mr*kc, rng))
	defer freeA()
	b, freeB := fillGuarded(t, randSlice[T](kc*nr, rng))
	defer freeB()
	bT, freeBT := fillGuarded(t, randSlice[T](nr*kc, rng))
	defer freeBT()
	c0 := randSlice[T](mr*nr, rng)
	c, freeC := guarded[T](t, len(c0))
	defer freeC()
	bc, freeBC := guarded[T](t, (kc-1)*nrTotal+jOff+nr)
	defer freeBC()

	want := make([]T, len(c0))
	check := func(kernel string) {
		t.Helper()
		if i := firstBitDiff(c, want); i >= 0 {
			t.Fatalf("%s %s mr=%d nr=%d kc=%d beta=%v: C[%d] = %v, oracle %v", name, kernel, mr, nr, kc, beta, i, c[i], want[i])
		}
	}

	copy(c, c0)
	copy(want, c0)
	ks.nn(mr, nr, kc, alpha, a, kc, b, nr, beta, c, nr)
	oracleNN(mr, nr, kc, alpha, a, kc, b, nr, beta, want, nr)
	check("NN")

	copy(c, c0)
	copy(want, c0)
	ks.ntPack(mr, nr, kc, alpha, a, kc, bT, kc, beta, c, nr, bc, nrTotal, jOff)
	oracleNT(mr, nr, kc, alpha, a, kc, bT, kc, beta, want, nr)
	check("NTPack")
	for k := 0; k < kc; k++ {
		for j := 0; j < nr; j++ {
			if bitsOf(bc[k*nrTotal+jOff+j]) != bitsOf(bT[j*kc+k]) {
				t.Fatalf("%s NTPack mr=%d nr=%d kc=%d: Bc(%d,%d) misplaced", name, mr, nr, kc, k, j)
			}
		}
	}
}

// TestMicroKernelsExactLength covers the row remainders 1–3 both alone and
// after a full block of four rows, and every column chunk with every tail
// (AVX-512 FP32 32/16 plus a masked 1–15, FP64 16/8 plus a masked 1–7;
// AVX2 FP32 12/8/4 plus 1–3, FP64 6/4/2 plus 1), at every kernel level, so
// a masked load or store that touched a lane past the operand would fault.
func TestMicroKernelsExactLength(t *testing.T) {
	rng := mat.NewRNG(16)
	for _, lv := range Levels() {
		atLevel(lv, func() {
			for mr := 1; mr <= 7; mr++ {
				for nr := 1; nr <= 33; nr++ {
					for _, kc := range []int{1, 7} {
						for _, beta := range []float64{0, 0.5} {
							checkExactLength(t, "f32/"+lv, f32Set, mr, nr, kc, float32(beta), rng)
							checkExactLength(t, "f64/"+lv, f64Set, mr, nr, kc, beta, rng)
						}
					}
				}
			}
		})
	}
}
