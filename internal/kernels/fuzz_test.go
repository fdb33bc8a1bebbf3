package kernels

import (
	"math"
	"testing"
	"testing/quick"

	"libshalom/internal/isa"
	"libshalom/internal/mat"
	"libshalom/internal/vexec"
)

// TestFuzzMainSpecs drives BuildMain through random feasible specs and, for
// each, (a) runs the static analyzer's kernel invariants, (b) executes the
// program functionally against the Go micro-kernel and (c) requires the Go
// micro-kernel to match the k-ordered oracle bit for bit.
func TestFuzzMainSpecs(t *testing.T) {
	f := func(seed uint32) bool {
		rng := mat.NewRNG(uint64(seed) + 12345)
		elem := []int{4, 8}[rng.Intn(2)]
		lanes := 16 / elem
		// Random feasible tile.
		var mr, nr int
		for {
			mr = rng.Intn(10) + 1
			nr = (rng.Intn(4) + 1) * lanes
			nb := nr / lanes
			if mr+nb+mr*nb <= 32 {
				break
			}
		}
		kc := (rng.Intn(6) + 1) * lanes
		lda := kc + rng.Intn(8)
		ldb := nr + rng.Intn(8)
		ldc := nr + rng.Intn(8)
		spec := MainSpec{
			Elem: elem, MR: mr, NR: nr, KC: kc,
			LDA: lda, LDB: ldb, LDC: ldc,
			Accumulate: rng.Intn(2) == 0,
			PackB:      rng.Intn(2) == 0,
			Schedule:   Schedule(rng.Intn(2)),
		}
		p := BuildMain(spec)
		rep, err := isa.Analyze(p)
		if err != nil {
			t.Logf("spec %+v: analyze: %v", spec, err)
			return false
		}
		// The pipelined tail may reload up to mr + nr/lanes registers that
		// the truncated final iteration never consumes.
		budget := mr + nr/lanes
		if err := rep.CheckKernelInvariants(budget); err != nil {
			t.Logf("spec %+v: %v", spec, err)
			return false
		}

		// Functional check against the Go kernel.
		if elem == 4 {
			a := fillRand32((mr-1)*lda+kc, rng)
			b := fillRand32((kc-1)*ldb+nr, rng)
			c := fillRand32((mr-1)*ldc+nr, rng)
			cISA := append([]float32(nil), c...)
			streams := [][]float32{a, b, cISA}
			if spec.PackB {
				streams = append(streams, make([]float32, kc*nr))
			}
			m, err := vexec.NewMachine(p, streams, nil)
			if err != nil {
				t.Logf("spec %+v: bind: %v", spec, err)
				return false
			}
			m.Run()
			beta := float32(0)
			if spec.Accumulate {
				beta = 1
			}
			cOracle := append([]float32(nil), c...)
			oracleNN(mr, nr, kc, 1, a, lda, b, ldb, beta, cOracle, ldc)
			SGEMMMicro(mr, nr, kc, 1, a, lda, b, ldb, beta, c, ldc)
			if i := firstBitDiff(c, cOracle); i >= 0 {
				t.Logf("spec %+v: Go kernel C[%d] = %v, oracle %v", spec, i, c[i], cOracle[i])
				return false
			}
			for i := 0; i < mr; i++ {
				for j := 0; j < nr; j++ {
					d := cISA[i*ldc+j] - c[i*ldc+j]
					if d > 1e-3 || d < -1e-3 {
						t.Logf("spec %+v: C(%d,%d) diff %g", spec, i, j, d)
						return false
					}
				}
			}
		} else {
			a := fillRand64((mr-1)*lda+kc, rng)
			b := fillRand64((kc-1)*ldb+nr, rng)
			c := fillRand64((mr-1)*ldc+nr, rng)
			cISA := append([]float64(nil), c...)
			streams := [][]float64{a, b, cISA}
			if spec.PackB {
				streams = append(streams, make([]float64, kc*nr))
			}
			m, err := vexec.NewMachine(p, nil, streams)
			if err != nil {
				return false
			}
			m.Run()
			beta := float64(0)
			if spec.Accumulate {
				beta = 1
			}
			cOracle := append([]float64(nil), c...)
			oracleNN(mr, nr, kc, 1, a, lda, b, ldb, beta, cOracle, ldc)
			DGEMMMicro(mr, nr, kc, 1, a, lda, b, ldb, beta, c, ldc)
			if i := firstBitDiff(c, cOracle); i >= 0 {
				t.Logf("spec %+v: Go kernel C[%d] = %v, oracle %v", spec, i, c[i], cOracle[i])
				return false
			}
			for i := 0; i < mr; i++ {
				for j := 0; j < nr; j++ {
					d := cISA[i*ldc+j] - c[i*ldc+j]
					if d > 1e-12 || d < -1e-12 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestFuzzNTPackSpecs drives BuildNTPack through random feasible specs with
// the same analyzer, functional and bitwise oracle checks.
func TestFuzzNTPackSpecs(t *testing.T) {
	f := func(seed uint32) bool {
		rng := mat.NewRNG(uint64(seed)*7 + 99)
		elem := []int{4, 8}[rng.Intn(2)]
		lanes := 16 / elem
		var mr, nb int
		for {
			mr = rng.Intn(8) + 1
			nb = rng.Intn(3) + 1
			if mr+nb+mr*nb <= 31 {
				break
			}
		}
		kc := (rng.Intn(4) + 1) * lanes
		groups := rng.Intn(3) + 1
		nrTotal := nb * groups
		jOff := nb * rng.Intn(groups)
		spec := NTPackSpec{
			Elem: elem, MR: mr, NB: nb, KC: kc,
			LDA: kc + rng.Intn(4), LDBT: kc + rng.Intn(4), LDC: nrTotal + rng.Intn(4),
			NRTotal: nrTotal, JOff: jOff, Accum: rng.Intn(2) == 0,
		}
		p := BuildNTPack(spec)
		rep, err := isa.Analyze(p)
		if err != nil {
			return false
		}
		if err := rep.CheckKernelInvariants(0); err != nil {
			t.Logf("spec %+v: %v", spec, err)
			return false
		}
		if elem != 4 {
			return true // functional FP64 parity is covered in isa_test.go
		}
		a := fillRand32((mr-1)*spec.LDA+kc, rng)
		bT := fillRand32((nb-1)*spec.LDBT+kc, rng)
		c := fillRand32((mr-1)*spec.LDC+jOff+nb, rng)
		cISA := append([]float32(nil), c...)
		bc := make([]float32, (kc-1)*nrTotal+jOff+nb)
		bcGo := append([]float32(nil), bc...)
		if err := vexec.RunF32(p, a, bT, cISA, bc); err != nil {
			return false
		}
		beta := float32(0)
		if spec.Accum {
			beta = 1
		}
		cOracle := append([]float32(nil), c...)
		oracleNT(mr, nb, kc, 1, a, spec.LDA, bT, spec.LDBT, beta, cOracle[jOff:], spec.LDC)
		SGEMMMicroNTPack(mr, nb, kc, 1, a, spec.LDA, bT, spec.LDBT, beta, c[jOff:], spec.LDC, bcGo, nrTotal, jOff)
		if i := firstBitDiff(c, cOracle); i >= 0 {
			t.Logf("spec %+v: Go kernel C[%d] = %v, oracle %v", spec, i, c[i], cOracle[i])
			return false
		}
		for i := 0; i < mr; i++ {
			for j := 0; j < nb; j++ {
				d := cISA[i*spec.LDC+jOff+j] - c[jOff+i*spec.LDC+j]
				if d > 1e-3 || d < -1e-3 {
					return false
				}
			}
		}
		for k := 0; k < kc; k++ {
			for j := 0; j < nb; j++ {
				if bc[k*nrTotal+jOff+j] != bT[j*spec.LDBT+k] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestAnalyzerOnEdgeKernels applies the invariants to both Fig 6 variants.
func TestAnalyzerOnEdgeKernels(t *testing.T) {
	for _, sched := range []Schedule{Batch, Pipelined} {
		p := BuildEdge8x4(EdgeSpec{Elem: 4, KC: 16, LDAp: 8, LDB: 4, LDC: 4, Schedule: sched})
		rep, err := isa.Analyze(p)
		if err != nil {
			t.Fatal(err)
		}
		// The pipelined variant's final double-buffer reloads are dead.
		if err := rep.CheckKernelInvariants(4); err != nil {
			t.Fatalf("%v edge kernel: %v", sched, err)
		}
		if rep.PeakLive > 32 {
			t.Fatalf("%v edge kernel peak live %d", sched, rep.PeakLive)
		}
	}
}

// FuzzMicroKernelsBitExact feeds arbitrary tile shapes up to one past the
// host tile, panel depths, leading-dimension padding and scalars to the
// NN, NT and NT-pack kernels at every kernel level, requiring bit
// equality with the k-ordered oracles (the seed corpus runs in go test;
// go test -fuzz explores further).
func FuzzMicroKernelsBitExact(f *testing.F) {
	f.Add(uint64(1), uint8(7), uint8(12), uint16(256), uint8(0), 1.0, 0.0)
	f.Add(uint64(2), uint8(7), uint8(6), uint16(431), uint8(3), -0.5, 1.0)
	f.Add(uint64(3), uint8(1), uint8(1), uint16(1), uint8(1), 2.0, 0.5)
	f.Add(uint64(4), uint8(8), uint8(13), uint16(17), uint8(5), 1.5, -2.0)
	// A NaN β must accumulate (β ≠ 0) and a −0 β must not read C (β == 0),
	// as the Go comparison decides; the assembly tests β itself.
	f.Add(uint64(5), uint8(7), uint8(12), uint16(9), uint8(0), 1.0, math.NaN())
	f.Add(uint64(6), uint8(7), uint8(12), uint16(9), uint8(0), 1.0, math.Copysign(0, -1))
	// The host tiles 8×32 and 8×16, one past 8×32 into the AVX-512 masked
	// chunk, and a 5×23 edge tile (shapes are the operands plus one).
	f.Add(uint64(7), uint8(7), uint8(31), uint16(255), uint8(0), 1.0, 0.0)
	f.Add(uint64(8), uint8(7), uint8(15), uint16(430), uint8(2), -0.5, 1.0)
	f.Add(uint64(9), uint8(8), uint8(32), uint16(63), uint8(7), 1.5, math.NaN())
	f.Add(uint64(10), uint8(4), uint8(22), uint16(30), uint8(1), 2.0, math.Copysign(0, -1))
	f.Fuzz(func(t *testing.T, seed uint64, mr, nr uint8, kc uint16, pad uint8, alpha, beta float64) {
		tc := microCase{mr: int(mr%9) + 1, nr: int(nr%33) + 1, kc: int(kc%512) + 1, alpha: alpha, beta: beta}
		p := int(pad % 8)
		tc.lda, tc.ldb, tc.ldbT, tc.ldc = tc.kc+p, tc.nr+p, tc.kc+p/2, tc.nr+p/3
		for _, lv := range Levels() {
			atLevel(lv, func() {
				rng := mat.NewRNG(seed)
				checkBitExact(t, "f32/"+lv, f32Set, tc, rng)
				checkBitExact(t, "f64/"+lv, f64Set, tc, rng)
			})
		}
	})
}
