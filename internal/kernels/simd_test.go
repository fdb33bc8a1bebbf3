package kernels

import (
	"testing"

	"libshalom/internal/mat"
)

// atLevel runs f with the micro-kernels switched to level, one of
// Levels(), then restores the level that was running.
func atLevel(level string, f func()) {
	prev := Level()
	if err := SetLevel(level); err != nil {
		panic(err)
	}
	defer func() { _ = SetLevel(prev) }()
	f()
}

// BenchmarkMicroKernels measures the micro-kernels with L1-resident
// operands (kc = 256) on the plans' modelled tiles — the FP32 7×12 tile, a
// 7×11 edge tile of comparable work and the FP64 7×6 tile, each NN,
// NT-pack and NT (the NT dot kernels are Go at every level) — and on the
// host tiles the drivers sweep at a SIMD level, FP32 8×32 (with an 8×31
// edge that runs the AVX-512 masked chunk) and FP64 8×16, once per kernel
// level, so the speeds of one tile sit side by side:
//
//	go test -run '^$' -bench MicroKernels -cpu 1 ./internal/kernels
//
// SetBytes carries the flop count, so the MB/s column reads MFLOP/s.
func BenchmarkMicroKernels(b *testing.B) {
	const kc = 256
	rng := mat.NewRNG(4)
	a32, b32, c32 := fillRand32(8*kc, rng), fillRand32(kc*32, rng), make([]float32, 8*32)
	bc32 := make([]float32, kc*32)
	a64, b64, c64 := fillRand64(8*kc, rng), fillRand64(kc*16, rng), make([]float64, 8*16)
	bc64 := make([]float64, kc*16)
	cases := []struct {
		name   string
		mr, nr int
		run    func()
	}{
		{"sgemm7x12", 7, 12, func() { SGEMMMicro(7, 12, kc, 1, a32, kc, b32, 12, 0, c32, 12) }},
		{"sgemm7x11-edge", 7, 11, func() { SGEMMMicro(7, 11, kc, 1, a32, kc, b32, 12, 0, c32, 12) }},
		{"sgemm7x12-ntpack", 7, 12, func() { SGEMMMicroNTPack(7, 12, kc, 1, a32, kc, b32, kc, 0, c32, 12, bc32, 12, 0) }},
		{"sgemm7x12-nt", 7, 12, func() { SGEMMMicroNT(7, 12, kc, 1, a32, kc, b32, kc, 0, c32, 12) }},
		{"sgemm8x32", 8, 32, func() { SGEMMMicro(8, 32, kc, 1, a32, kc, b32, 32, 0, c32, 32) }},
		{"sgemm8x31-edge", 8, 31, func() { SGEMMMicro(8, 31, kc, 1, a32, kc, b32, 32, 0, c32, 32) }},
		{"dgemm7x6", 7, 6, func() { DGEMMMicro(7, 6, kc, 1, a64, kc, b64, 6, 0, c64, 6) }},
		{"dgemm7x6-ntpack", 7, 6, func() { DGEMMMicroNTPack(7, 6, kc, 1, a64, kc, b64, kc, 0, c64, 6, bc64, 6, 0) }},
		{"dgemm7x6-nt", 7, 6, func() { DGEMMMicroNT(7, 6, kc, 1, a64, kc, b64, kc, 0, c64, 6) }},
		{"dgemm8x16", 8, 16, func() { DGEMMMicro(8, 16, kc, 1, a64, kc, b64, 16, 0, c64, 16) }},
	}
	for _, tc := range cases {
		for _, lv := range Levels() {
			b.Run(tc.name+"/"+lv, func(b *testing.B) {
				atLevel(lv, func() {
					b.SetBytes(int64(2 * tc.mr * tc.nr * kc))
					for i := 0; i < b.N; i++ {
						tc.run()
					}
				})
			})
		}
	}
}
