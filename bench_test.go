package libshalom

// Benchmark harness: one testing.B benchmark per paper table/figure (the
// model-driven reproductions from internal/bench; see DESIGN.md §4 and
// EXPERIMENTS.md), plus wall-clock benchmarks of this library's actual Go
// GEMM on the paper's workload classes.

import (
	"io"
	"testing"

	"libshalom/internal/baselines"
	"libshalom/internal/bench"
	"libshalom/internal/core"
	"libshalom/internal/mat"
	"libshalom/internal/workloads"
)

// --- real wall-clock GEMM benchmarks (this library's Go implementation) ---

func benchSGEMM(b *testing.B, mode Mode, m, n, k, threads int) {
	b.Helper()
	rng := mat.NewRNG(1)
	ar, ac := m, k
	if mode.TransA() {
		ar, ac = k, m
	}
	br, bc := k, n
	if mode.TransB() {
		br, bc = n, k
	}
	A := mat.RandomF32(ar, ac, rng)
	B := mat.RandomF32(br, bc, rng)
	C := mat.NewF32(m, n)
	ctx := New(WithThreads(threads))
	defer ctx.Close()
	b.SetBytes(int64(2 * m * n * k)) // flops reported as "bytes" throughput
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ctx.SGEMM(mode, m, n, k, 1, A.Data, A.Stride, B.Data, B.Stride, 0, C.Data, C.Stride); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSGEMMSmall8(b *testing.B)    { benchSGEMM(b, NN, 8, 8, 8, 1) }
func BenchmarkSGEMMSmall32(b *testing.B)   { benchSGEMM(b, NN, 32, 32, 32, 1) }
func BenchmarkSGEMMSmall64(b *testing.B)   { benchSGEMM(b, NN, 64, 64, 64, 1) }
func BenchmarkSGEMMSmall120(b *testing.B)  { benchSGEMM(b, NN, 120, 120, 120, 1) }
func BenchmarkSGEMMSmall32NT(b *testing.B) { benchSGEMM(b, NT, 32, 32, 32, 1) }

// The naive ikj loop is the simplest thing that could replace the
// library's single-threaded NN path; `make bench-smoke` requires the
// library to beat it (TestBenchSmoke).
func BenchmarkIKJSmall32(b *testing.B)  { benchIKJ(b, 32) }
func BenchmarkIKJSmall64(b *testing.B)  { benchIKJ(b, 64) }
func BenchmarkIKJSmall120(b *testing.B) { benchIKJ(b, 120) }

func benchIKJ(b *testing.B, n int) {
	b.Helper()
	rng := mat.NewRNG(1)
	A := mat.RandomF32(n, n, rng)
	B := mat.RandomF32(n, n, rng)
	C := mat.NewF32(n, n)
	b.SetBytes(int64(2 * n * n * n)) // flops reported as "bytes" throughput
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ikjSGEMM(n, n, n, A.Data, A.Stride, B.Data, B.Stride, C.Data, C.Stride)
	}
}

// ikjSGEMM computes C = A·B for row-major operands with the row of C
// innermost: each A(i,p) scales one contiguous row of B into row i of C.
func ikjSGEMM(m, n, k int, a []float32, lda int, b []float32, ldb int, c []float32, ldc int) {
	for i := 0; i < m; i++ {
		ci := c[i*ldc : i*ldc+n]
		clear(ci)
		for p := 0; p < k; p++ {
			aip := a[i*lda+p]
			for j, bv := range b[p*ldb : p*ldb+n] {
				ci[j] += aip * bv
			}
		}
	}
}

func BenchmarkSGEMMIrregular(b *testing.B)         { benchSGEMM(b, NT, 32, 2048, 512, 1) }
func BenchmarkSGEMMIrregularParallel(b *testing.B) { benchSGEMM(b, NT, 64, 4096, 576, 0) }

// BenchmarkTelemetryOff/On compare the 64x64x64 SGEMM hot path without and
// with the telemetry layer. The overhead budget is <2% for the disabled
// path; wall-clock deltas at that scale are noise on shared CI machines, so
// the budget is enforced non-flakily by the telemetryprobe build tag
// instead (TestTelemetryProbe: the disabled path performs exactly zero
// telemetry atomic writes, and TestTelemetryOffHotPathAllocs: zero
// allocations). These benchmarks exist to measure the enabled path's real
// cost locally: `go test -bench 'TelemetryO(n|ff)' -count 10`.
func BenchmarkTelemetryOff(b *testing.B) { benchTelemetry(b, New(WithThreads(1))) }
func BenchmarkTelemetryOn(b *testing.B)  { benchTelemetry(b, New(WithThreads(1), WithTelemetry())) }

func benchTelemetry(b *testing.B, ctx *Context) {
	b.Helper()
	defer ctx.Close()
	rng := mat.NewRNG(1)
	A := mat.RandomF32(64, 64, rng)
	B := mat.RandomF32(64, 64, rng)
	C := mat.NewF32(64, 64)
	b.SetBytes(2 * 64 * 64 * 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ctx.SGEMM(NN, 64, 64, 64, 1, A.Data, A.Stride, B.Data, B.Stride, 0, C.Data, C.Stride); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDGEMMCP2K(b *testing.B) {
	for _, sh := range workloads.CP2K() {
		b.Run(sh.Name, func(b *testing.B) { benchDGEMM(b, sh) })
	}
}

// benchDGEMM times single-threaded NN DGEMM on one shape.
func benchDGEMM(b *testing.B, sh workloads.Shape) {
	b.Helper()
	rng := mat.NewRNG(2)
	A := mat.RandomF64(sh.M, sh.K, rng)
	B := mat.RandomF64(sh.K, sh.N, rng)
	C := mat.NewF64(sh.M, sh.N)
	ctx := New(WithThreads(1))
	defer ctx.Close()
	b.SetBytes(int64(sh.Flops()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ctx.DGEMM(NN, sh.M, sh.N, sh.K, 1, A.Data, A.Stride, B.Data, B.Stride, 0, C.Data, C.Stride); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBaselineComparison measures this repo's runnable baseline
// implementations on the same small kernel, wall-clock.
func BenchmarkBaselineComparison(b *testing.B) {
	rng := mat.NewRNG(3)
	m := 32
	A := mat.RandomF32(m, m, rng)
	B := mat.RandomF32(m, m, rng)
	C := mat.NewF32(m, m)
	for _, lib := range baselines.All() {
		lib := lib
		b.Run(lib.String(), func(b *testing.B) {
			b.SetBytes(int64(2 * m * m * m))
			for i := 0; i < b.N; i++ {
				if err := baselines.SGEMM(lib, nil, 1, core.NN, m, m, m, 1, A.Data, A.Stride, B.Data, B.Stride, 0, C.Data, C.Stride); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("LibShalom", func(b *testing.B) {
		ctx := New(WithThreads(1))
		b.SetBytes(int64(2 * m * m * m))
		for i := 0; i < b.N; i++ {
			if err := ctx.SGEMM(NN, m, m, m, 1, A.Data, A.Stride, B.Data, B.Stride, 0, C.Data, C.Stride); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- one benchmark per paper table/figure (model-driven reproductions) ---

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e := bench.ByID(id)
	if e == nil {
		b.Fatalf("unknown experiment %q", id)
	}
	for i := 0; i < b.N; i++ {
		e.Run(io.Discard)
	}
}

func BenchmarkTable1Platforms(b *testing.B)          { benchExperiment(b, "table1") }
func BenchmarkFig2aMotivationSmall(b *testing.B)     { benchExperiment(b, "fig2a") }
func BenchmarkFig2bMotivationIrregular(b *testing.B) { benchExperiment(b, "fig2b") }
func BenchmarkFig6EdgeSchedules(b *testing.B)        { benchExperiment(b, "fig6") }
func BenchmarkFig7SmallGEMMWarm(b *testing.B)        { benchExperiment(b, "fig7") }
func BenchmarkFig8SmallGEMMCold(b *testing.B)        { benchExperiment(b, "fig8") }
func BenchmarkFig9IrregularPhytium(b *testing.B)     { benchExperiment(b, "fig9") }
func BenchmarkFig10IrregularKP920TX2(b *testing.B)   { benchExperiment(b, "fig10") }
func BenchmarkFig11Scalability(b *testing.B)         { benchExperiment(b, "fig11") }
func BenchmarkFig12L2Misses(b *testing.B)            { benchExperiment(b, "fig12") }
func BenchmarkFig13Breakdown(b *testing.B)           { benchExperiment(b, "fig13") }
func BenchmarkFig14CP2K(b *testing.B)                { benchExperiment(b, "fig14") }
func BenchmarkFig15VGG(b *testing.B)                 { benchExperiment(b, "fig15") }
