package core

import (
	"math"
	"runtime"
	"testing"
	"testing/quick"

	"libshalom/internal/kernels"
	"libshalom/internal/mat"
	"libshalom/internal/parallel"
	"libshalom/internal/platform"
)

// buildOperands creates random logical M×K A and K×N B stored according to
// mode, plus a random C. Returns stored matrices.
func buildOperands32(mode Mode, m, n, k int, rng *mat.RNG) (a, b, c *mat.F32) {
	la := mat.RandomF32(m, k, rng)
	lb := mat.RandomF32(k, n, rng)
	if mode.TransA() {
		la = la.Transpose()
	}
	if mode.TransB() {
		lb = lb.Transpose()
	}
	return la, lb, mat.RandomF32(m, n, rng)
}

func refWant32(mode Mode, alpha float32, a, b *mat.F32, beta float32, c *mat.F32) *mat.F32 {
	want := c.Clone()
	ta, tb := mat.NoTrans, mat.NoTrans
	if mode.TransA() {
		ta = mat.Transpose
	}
	if mode.TransB() {
		tb = mat.Transpose
	}
	mat.RefGEMMF32(ta, tb, alpha, a, b, beta, want)
	return want
}

func TestSGEMMAllModesSmall(t *testing.T) {
	rng := mat.NewRNG(11)
	for _, mode := range Modes() {
		for _, dims := range [][3]int{{1, 1, 1}, {7, 12, 4}, {8, 8, 8}, {13, 9, 21}, {23, 23, 23}, {50, 40, 30}, {64, 3, 100}} {
			m, n, k := dims[0], dims[1], dims[2]
			a, b, c := buildOperands32(mode, m, n, k, rng)
			want := refWant32(mode, 1.5, a, b, -0.5, c)
			got := c.Clone()
			if err := SGEMM(Config{}, mode, m, n, k, 1.5, a.Data, a.Stride, b.Data, b.Stride, -0.5, got.Data, got.Stride); err != nil {
				t.Fatalf("%v %v: %v", mode, dims, err)
			}
			if !got.Equal(want, 1e-3) {
				t.Fatalf("%v %v: max diff %g", mode, dims, got.MaxDiff(want))
			}
		}
	}
}

// TestSGEMMProperty drives random shapes, strides, scalars, modes, platforms
// and thread counts against the reference.
func TestSGEMMProperty(t *testing.T) {
	plats := platform.All()
	f := func(seed uint32) bool {
		rng := mat.NewRNG(uint64(seed) + 101)
		m, n, k := rng.Intn(96)+1, rng.Intn(96)+1, rng.Intn(64)+1
		mode := Modes()[rng.Intn(4)]
		alpha := float32(rng.Float64()*4 - 2)
		beta := float32(rng.Float64()*4 - 2)
		if rng.Intn(4) == 0 {
			beta = 0
		}
		if rng.Intn(8) == 0 {
			alpha = 0
		}
		threads := []int{1, 1, 2, 4, 7}[rng.Intn(5)]
		plat := plats[rng.Intn(len(plats))]
		a, b, c := buildOperands32(mode, m, n, k, rng)
		// Random extra stride on C to exercise non-compact views.
		cWide := mat.NewF32(m, n+rng.Intn(5))
		cv := cWide.View(0, 0, m, n)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				cv.Set(i, j, c.At(i, j))
			}
		}
		want := refWant32(mode, alpha, a, b, beta, c)
		if err := SGEMM(Config{Plat: plat, Threads: threads}, mode, m, n, k, alpha, a.Data, a.Stride, b.Data, b.Stride, beta, cv.Data, cv.Stride); err != nil {
			return false
		}
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				d := float64(cv.At(i, j)) - float64(want.At(i, j))
				if d > 1e-2 || d < -1e-2 {
					t.Logf("mode %v m%d n%d k%d t%d: C(%d,%d)=%v want %v", mode, m, n, k, threads, i, j, cv.At(i, j), want.At(i, j))
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

func TestDGEMMAllModes(t *testing.T) {
	rng := mat.NewRNG(77)
	for _, mode := range Modes() {
		m, n, k := 23, 29, 17
		la := mat.RandomF64(m, k, rng)
		lb := mat.RandomF64(k, n, rng)
		a, b := la, lb
		if mode.TransA() {
			a = la.Transpose()
		}
		if mode.TransB() {
			b = lb.Transpose()
		}
		c := mat.RandomF64(m, n, rng)
		want := c.Clone()
		ta, tb := mat.NoTrans, mat.NoTrans
		if mode.TransA() {
			ta = mat.Transpose
		}
		if mode.TransB() {
			tb = mat.Transpose
		}
		mat.RefGEMMF64(ta, tb, 2, a, b, 0.25, want)
		if err := DGEMM(Config{}, mode, m, n, k, 2, a.Data, a.Stride, b.Data, b.Stride, 0.25, c.Data, c.Stride); err != nil {
			t.Fatal(err)
		}
		if !c.Equal(want, 1e-10) {
			t.Fatalf("%v: max diff %g", mode, c.MaxDiff(want))
		}
	}
}

func TestDGEMMProperty(t *testing.T) {
	f := func(seed uint32) bool {
		rng := mat.NewRNG(uint64(seed)*3 + 7)
		m, n, k := rng.Intn(48)+1, rng.Intn(48)+1, rng.Intn(48)+1
		mode := Modes()[rng.Intn(4)]
		threads := []int{1, 3}[rng.Intn(2)]
		la := mat.RandomF64(m, k, rng)
		lb := mat.RandomF64(k, n, rng)
		a, b := la, lb
		if mode.TransA() {
			a = la.Transpose()
		}
		if mode.TransB() {
			b = lb.Transpose()
		}
		c := mat.RandomF64(m, n, rng)
		want := c.Clone()
		ta, tb := mat.NoTrans, mat.NoTrans
		if mode.TransA() {
			ta = mat.Transpose
		}
		if mode.TransB() {
			tb = mat.Transpose
		}
		mat.RefGEMMF64(ta, tb, -1.25, a, b, 0.5, want)
		if err := DGEMM(Config{Threads: threads}, mode, m, n, k, -1.25, a.Data, a.Stride, b.Data, b.Stride, 0.5, c.Data, c.Stride); err != nil {
			return false
		}
		return c.Equal(want, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestLargeKMultipleBlocks forces several kc blocks so the beta-once logic
// and Bc reuse across kk are exercised.
func TestLargeKMultipleBlocks(t *testing.T) {
	rng := mat.NewRNG(5)
	m, n, k := 30, 40, 700 // k > kc for every platform
	for _, mode := range []Mode{NN, NT} {
		a, b, c := buildOperands32(mode, m, n, k, rng)
		want := refWant32(mode, 1, a, b, 1, c)
		got := c.Clone()
		if err := SGEMM(Config{Plat: platform.Phytium2000()}, mode, m, n, k, 1, a.Data, a.Stride, b.Data, b.Stride, 1, got.Data, got.Stride); err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want, 1e-2) {
			t.Fatalf("%v: max diff %g", mode, got.MaxDiff(want))
		}
	}
}

// TestIrregularParallelMatchesSerial checks the §6 parallel path bit-for-bit
// against the single-threaded path on an irregular shape.
func TestIrregularParallelMatchesSerial(t *testing.T) {
	rng := mat.NewRNG(6)
	m, n, k := 32, 1536, 96
	for _, mode := range []Mode{NN, NT} {
		a, b, c := buildOperands32(mode, m, n, k, rng)
		serial := c.Clone()
		parallelC := c.Clone()
		if err := SGEMM(Config{Threads: 1}, mode, m, n, k, 1, a.Data, a.Stride, b.Data, b.Stride, 0, serial.Data, serial.Stride); err != nil {
			t.Fatal(err)
		}
		pool := parallel.NewPool(8)
		defer pool.Close()
		if err := SGEMM(Config{Threads: 8, Pool: pool}, mode, m, n, k, 1, a.Data, a.Stride, b.Data, b.Stride, 0, parallelC.Data, parallelC.Stride); err != nil {
			t.Fatal(err)
		}
		if !parallelC.Equal(serial, 0) {
			t.Fatalf("%v: parallel result differs from serial (max %g)", mode, parallelC.MaxDiff(serial))
		}
	}
}

func TestAlphaZeroScalesOnly(t *testing.T) {
	c := mat.NewF32(3, 3)
	c.Fill(2)
	a := mat.NewF32(3, 3)
	b := mat.NewF32(3, 3)
	a.Fill(999)
	b.Fill(999)
	if err := SGEMM(Config{}, NN, 3, 3, 3, 0, a.Data, 3, b.Data, 3, 0.5, c.Data, 3); err != nil {
		t.Fatal(err)
	}
	if c.At(1, 1) != 1 {
		t.Fatalf("alpha=0 path wrong: %v", c.At(1, 1))
	}
}

func TestKZeroScalesOnly(t *testing.T) {
	c := mat.NewF64(2, 2)
	c.Fill(4)
	if err := DGEMM(Config{}, NN, 2, 2, 0, 3, []float64{0}, 1, []float64{0}, 2, 0.25, c.Data, 2); err != nil {
		t.Fatal(err)
	}
	if c.At(0, 0) != 1 {
		t.Fatal("k=0 path wrong")
	}
}

func TestZeroSizeNoop(t *testing.T) {
	if err := SGEMM(Config{}, NN, 0, 5, 3, 1, nil, 3, make([]float32, 15), 5, 0, nil, 5); err != nil {
		t.Fatalf("m=0 call errored: %v", err)
	}
	if err := SGEMM(Config{}, NN, 5, 0, 3, 1, make([]float32, 15), 3, nil, 1, 0, nil, 1); err != nil {
		t.Fatalf("n=0 call errored: %v", err)
	}
}

func TestArgValidation(t *testing.T) {
	c := make([]float32, 4)
	if err := SGEMM(Config{}, NN, -1, 2, 2, 1, c, 2, c, 2, 0, c, 2); err == nil {
		t.Fatal("negative m accepted")
	}
	if err := SGEMM(Config{}, NN, 2, 2, 2, 1, c, 1, c, 2, 0, c, 2); err == nil {
		t.Fatal("lda < k accepted")
	}
	if err := SGEMM(Config{}, NN, 2, 2, 2, 1, make([]float32, 3), 2, c, 2, 0, c, 2); err == nil {
		t.Fatal("short A accepted")
	}
	if err := SGEMM(Config{}, NN, 2, 2, 2, 1, c, 2, make([]float32, 3), 2, 0, c, 2); err == nil {
		t.Fatal("short B accepted")
	}
	if err := SGEMM(Config{}, NN, 2, 2, 2, 1, c, 2, c, 2, 0, make([]float32, 3), 2); err == nil {
		t.Fatal("short C accepted")
	}
	// Transposed shapes: lda must cover M for TN.
	if err := SGEMM(Config{}, TN, 4, 2, 2, 1, make([]float32, 8), 2, c, 2, 0, make([]float32, 8), 2); err == nil {
		t.Fatal("TN lda < m accepted")
	}
}

func TestModeHelpers(t *testing.T) {
	if NN.TransA() || NN.TransB() || !TT.TransA() || !TT.TransB() || NT.TransA() || !NT.TransB() || !TN.TransA() || TN.TransB() {
		t.Fatal("mode trans flags wrong")
	}
	for _, m := range Modes() {
		got, err := ParseMode(m.String())
		if err != nil || got != m {
			t.Fatalf("ParseMode round trip failed for %v", m)
		}
	}
	if _, err := ParseMode("XX"); err == nil {
		t.Fatal("bad mode accepted")
	}
	if Mode(9).String() == "" {
		t.Fatal("unknown mode String empty")
	}
}

func TestConfigDefaults(t *testing.T) {
	if (Config{}).platform().Name != "Kunpeng 920" {
		t.Fatal("default platform wrong")
	}
	if (Config{}).platform() != (Config{}).platform() {
		t.Fatal("default platform rebuilt on every call")
	}
	ph := platform.Phytium2000()
	if (Config{Plat: ph}).platform() != ph {
		t.Fatal("explicit platform ignored")
	}
}

// TestSmallCallPackBuffersSizedByProblem pins gemmST's pack buffers to the
// problem rather than the blocking: an 8³ call holds at most one 8×nr B
// sliver and one 8×8 A block, where sizing them by KP920's kc = 431 and
// mc = 147 allocated about 250 KB per TN/TT call.
func TestSmallCallPackBuffersSizedByProblem(t *testing.T) {
	const n = 8
	cfg := Config{Plat: platform.KP920(), Threads: 1}
	for _, mode := range Modes() {
		// Square operands have the same stored shape in every mode.
		rng := mat.NewRNG(uint64(mode) + 31)
		a, b, c := mat.RandomF32(n, n, rng), mat.RandomF32(n, n, rng), mat.RandomF32(n, n, rng)
		a64, b64, c64 := mat.RandomF64(n, n, rng), mat.RandomF64(n, n, rng), mat.RandomF64(n, n, rng)
		for _, tc := range []struct {
			prec     string
			maxBytes uint64 // nr = 12 (f32) / 6 (f64): (8·nr + 8·8) elements
			call     func() error
		}{
			{"f32", 4 * (8*12 + 8*8), func() error {
				return SGEMM(cfg, mode, n, n, n, 1, a.Data, a.Stride, b.Data, b.Stride, 0, c.Data, c.Stride)
			}},
			{"f64", 8 * (8*6 + 8*8), func() error {
				return DGEMM(cfg, mode, n, n, n, 1, a64.Data, a64.Stride, b64.Data, b64.Stride, 0, c64.Data, c64.Stride)
			}},
		} {
			if err := tc.call(); err != nil {
				t.Fatalf("%s %v: %v", tc.prec, mode, err)
			}
			allocs, bytes := allocsAndBytesPerRun(200, func() { _ = tc.call() })
			if allocs > 2 || bytes > tc.maxBytes {
				t.Errorf("%s %v 8³: %.1f allocs and %d B per call, want ≤ 2 and ≤ %d B",
					tc.prec, mode, allocs, bytes, tc.maxBytes)
			}
		}
	}
}

// TestPackBufLensClampedToProblem pins the pack buffer gemmST asks for to
// the problem: one kc×nr sliver for NT/TT and one kc×nc panel for packed
// NN/TN, never wider or deeper than the operand, plus the mc×kc A block
// for TN/TT — so a small call asks for a small buffer whatever the blocking
// and the host tile.
func TestPackBufLensClampedToProblem(t *testing.T) {
	plat := platform.KP920()
	for _, tc := range []struct {
		mode      Mode
		elem      int
		sliver, a bool // whether the call packs a B sliver, gathers A
	}{
		{NN, 4, false, false}, // B fits L1: no packing
		{NT, 4, true, false},
		{TT, 8, true, true},
		{TN, 8, false, true},
	} {
		p := derivePlan(plat, tc.mode, tc.elem)
		var wantB, wantA int
		if tc.sliver {
			wantB = 8 * min(p.host.NR, 8) // a sliver no wider than n
		}
		if tc.a {
			wantA = 8 * 8 // an A block no larger than m×k
		}
		if nB, nA := p.packBufLens(8, 8, 8); nB != wantB || nA != wantA {
			t.Errorf("%v %d-byte 8³: buffers (%d, %d), want (%d, %d)", tc.mode, tc.elem, nB, nA, wantB, wantA)
		}
	}
	// A packed NN panel spans min(kc, k)×min(nc, n); an NT sliver kc×nr.
	p := derivePlan(plat, NN, 4)
	if nB, _ := p.packBufLens(16, 4096, 512); nB != p.blk.KC*p.blk.NC {
		t.Errorf("NN 16×4096×512: B buffer %d, want kc·nc = %d", nB, p.blk.KC*p.blk.NC)
	}
	p = derivePlan(plat, NT, 4)
	if nB, _ := p.packBufLens(16, 4096, 512); nB != p.blk.KC*p.host.NR {
		t.Errorf("NT 16×4096×512: B buffer %d, want kc·nr = %d", nB, p.blk.KC*p.host.NR)
	}
}

// atLevel runs f with the micro-kernels switched to level, then restores
// the level that was running.
func atLevel(t *testing.T, level string, f func()) {
	t.Helper()
	prev := kernels.Level()
	if err := kernels.SetLevel(level); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = kernels.SetLevel(prev) }()
	f()
}

// TestHostTileLevelsBitIdentical runs the driver at every kernel level —
// the 8×32 / 8×16 host tile with the row-by-row NN panel at a SIMD level,
// the modelled 7×12 / 7×6 under purego — on shapes that take the
// unpacked, the panel-packed (several panels and kc blocks, edge slivers)
// and the NT-packed paths in every mode, and requires bitwise equal C.
func TestHostTileLevelsBitIdentical(t *testing.T) {
	cfg := Config{Plat: platform.KP920(), Threads: 1}
	rng := mat.NewRNG(17)
	rand := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.Float64()*2 - 1
		}
		return v
	}
	for _, mode := range Modes() {
		for _, s := range [][3]int{{9, 33, 17}, {70, 45, 500}, {16, 700, 500}} {
			m, n, k := s[0], s[1], s[2]
			lda, ldb := k, n
			if mode.TransA() {
				lda = m
			}
			if mode.TransB() {
				ldb = k
			}
			a, b, c := rand(m*k), rand(k*n), rand(m*n)
			a32, b32, c32 := toF32(a), toF32(b), toF32(c)
			var want32 []float32
			var want []float64
			for _, lv := range kernels.Levels() {
				got32, got := append([]float32(nil), c32...), append([]float64(nil), c...)
				atLevel(t, lv, func() {
					if err := SGEMM(cfg, mode, m, n, k, 1.5, a32, lda, b32, ldb, 0.5, got32, n); err != nil {
						t.Fatal(err)
					}
					if err := DGEMM(cfg, mode, m, n, k, 1.5, a, lda, b, ldb, 0.5, got, n); err != nil {
						t.Fatal(err)
					}
				})
				if want == nil {
					want32, want = got32, got
					continue
				}
				for i := range got {
					if math.Float32bits(got32[i]) != math.Float32bits(want32[i]) || math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%v %d×%d×%d: C[%d] at %s = %v / %v, at %s %v / %v",
							mode, m, n, k, i, lv, got32[i], got[i], kernels.Levels()[0], want32[i], want[i])
					}
				}
			}
		}
	}
}

func toF32(v []float64) []float32 {
	out := make([]float32, len(v))
	for i, x := range v {
		out[i] = float32(x)
	}
	return out
}

// allocsAndBytesPerRun is testing.AllocsPerRun plus the heap bytes
// allocated per run.
func allocsAndBytesPerRun(runs int, f func()) (allocs float64, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs),
		(after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}
