package kernels

import (
	"testing"

	"libshalom/internal/mat"
)

// levels returns the kernel levels this build can run: the one the CPU
// check chose and, when that is a SIMD level, the portable Go kernels too.
func levels() []string {
	if lv := Level(); lv != "purego" {
		return []string{lv, "purego"}
	}
	return []string{"purego"}
}

// atLevel runs f with the micro-kernels switched to level, then restores
// the CPU check's choice.
func atLevel(level string, f func()) {
	SetPureGo(level == "purego")
	defer SetPureGo(false)
	f()
}

// BenchmarkMicroKernels measures the micro-kernels on the plans' modelled
// tiles with L1-resident operands (kc = 256) — the FP32 7×12 tile, a 7×11
// edge tile of comparable work and the FP64 7×6 tile, each NN, NT-pack and
// NT (the NT dot kernels are Go at every level) — once per kernel level,
// so the SIMD and pure-Go speeds of one tile sit side by side:
//
//	go test -run '^$' -bench MicroKernels -cpu 1 ./internal/kernels
//
// SetBytes carries the flop count, so the MB/s column reads MFLOP/s.
func BenchmarkMicroKernels(b *testing.B) {
	const kc = 256
	rng := mat.NewRNG(4)
	a32, b32, c32 := fillRand32(7*kc, rng), fillRand32(kc*12, rng), make([]float32, 7*12)
	bc32 := make([]float32, kc*12)
	a64, b64, c64 := fillRand64(7*kc, rng), fillRand64(kc*6, rng), make([]float64, 7*6)
	bc64 := make([]float64, kc*6)
	cases := []struct {
		name   string
		mr, nr int
		run    func()
	}{
		{"sgemm7x12", 7, 12, func() { SGEMMMicro(7, 12, kc, 1, a32, kc, b32, 12, 0, c32, 12) }},
		{"sgemm7x11-edge", 7, 11, func() { SGEMMMicro(7, 11, kc, 1, a32, kc, b32, 12, 0, c32, 12) }},
		{"sgemm7x12-ntpack", 7, 12, func() { SGEMMMicroNTPack(7, 12, kc, 1, a32, kc, b32, kc, 0, c32, 12, bc32, 12, 0) }},
		{"sgemm7x12-nt", 7, 12, func() { SGEMMMicroNT(7, 12, kc, 1, a32, kc, b32, kc, 0, c32, 12) }},
		{"dgemm7x6", 7, 6, func() { DGEMMMicro(7, 6, kc, 1, a64, kc, b64, 6, 0, c64, 6) }},
		{"dgemm7x6-ntpack", 7, 6, func() { DGEMMMicroNTPack(7, 6, kc, 1, a64, kc, b64, kc, 0, c64, 6, bc64, 6, 0) }},
		{"dgemm7x6-nt", 7, 6, func() { DGEMMMicroNT(7, 6, kc, 1, a64, kc, b64, kc, 0, c64, 6) }},
	}
	for _, tc := range cases {
		for _, lv := range levels() {
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
