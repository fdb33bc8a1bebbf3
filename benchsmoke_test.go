package libshalom

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"libshalom/internal/kernels"
	"libshalom/internal/mat"
	"libshalom/internal/workloads"
)

// benchSmokeRuns is how many timings of each side the gate takes; the
// minimum of each is compared, which discards runs a noisy neighbour
// slowed.
const benchSmokeRuns = 5

// benchSmokeCommand reproduces BENCH_kernels.json.
const benchSmokeCommand = "make bench-smoke (SHALOM_BENCH_SMOKE=1 go test -count=1 -cpu 1 -run TestBenchSmoke .)"

// benchSmokeGate is the least library/ikj throughput ratio the gate
// accepts on the NN SGEMM rows.
const benchSmokeGate = 1.0

// benchSmokeSIMDGate is the least SIMD/pure-Go throughput ratio the gate
// accepts on the NN SGEMM rows from benchSmokeSIMDFrom³ up, when the host
// runs a SIMD kernel level; on an AVX-512 host the avx512/avx2 ratio must
// reach it there too.
const (
	benchSmokeSIMDGate = 1.0
	benchSmokeSIMDFrom = 64
)

// kernelRow is one BENCH_kernels.json row: single-threaded throughput of
// one problem through the library at the host's kernel level and, in the
// same process, through the AVX2 kernels on an AVX-512 host and through
// the pure-Go kernels (kernels.SetLevel), plus the naive ikj loop on the
// square NN SGEMM rows.
type kernelRow struct {
	Shape         string  `json:"shape"`
	Threads       int     `json:"threads"`
	LibNsPerOp    float64 `json:"lib_ns_per_op"`
	LibGFLOPS     float64 `json:"lib_gflops"`
	AVX2NsPerOp   float64 `json:"avx2_ns_per_op,omitempty"`
	AVX2GFLOPS    float64 `json:"avx2_gflops,omitempty"`
	VsAVX2        float64 `json:"lib_over_avx2_throughput,omitempty"`
	PureGoNsPerOp float64 `json:"purego_ns_per_op"`
	PureGoGFLOPS  float64 `json:"purego_gflops"`
	VsPureGo      float64 `json:"lib_over_purego_throughput"`
	IKJNsPerOp    float64 `json:"ikj_ns_per_op,omitempty"`
	IKJGFLOPS     float64 `json:"ikj_gflops,omitempty"`
	VsIKJ         float64 `json:"lib_over_ikj_throughput,omitempty"`
}

// minNsPerOp is the least ns/op of benchSmokeRuns timings of bench, with
// the micro-kernels switched to level.
func minNsPerOp(t *testing.T, level string, bench func(*testing.B)) time.Duration {
	prev := kernels.Level()
	if err := kernels.SetLevel(level); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = kernels.SetLevel(prev) }()
	best := time.Duration(1 << 62)
	for r := 0; r < benchSmokeRuns; r++ {
		best = min(best, nsPerOp(testing.Benchmark(bench)))
	}
	return best
}

// benchMicro times the FP32 mr×nr micro-kernel with L1-resident operands
// (kc = 256).
func benchMicro(mr, nr int) func(*testing.B) {
	return func(b *testing.B) {
		const kc = 256
		rng := mat.NewRNG(4)
		a := mat.RandomF32(mr, kc, rng)
		bb := mat.RandomF32(kc, nr, rng)
		c := make([]float32, mr*nr)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			kernels.SGEMMMicro(mr, nr, kc, 1, a.Data, kc, bb.Data, nr, 0, c, nr)
		}
	}
}

// TestBenchSmoke is the bench-smoke gate. Every row times the library at
// the host's kernel level against the pure-Go kernels, and on an AVX-512
// host against the AVX2 kernels, in this process: the FP32 7×12 modelled
// and 8×32 host micro-kernel tiles, single-threaded NN SGEMM at 32³, 64³
// and 120³, and one CP2K DGEMM shape. On the NN SGEMM rows the library
// must reach at least 1.0× the naive ikj loop's throughput, and from 64³
// up the SIMD kernels at least 1.0× the pure-Go ones and AVX-512 at least
// 1.0× AVX2 (each side the minimum ns/op of benchSmokeRuns timings). It
// writes the rows to BENCH_kernels.json. Timing is noisy on shared hosts,
// so the gate stays out of tier-1 and make check: it runs only with
// SHALOM_BENCH_SMOKE=1.
func TestBenchSmoke(t *testing.T) {
	if os.Getenv("SHALOM_BENCH_SMOKE") == "" {
		t.Skip("timing gate; run with SHALOM_BENCH_SMOKE=1 (make bench-smoke)")
	}
	level := kernels.Level()
	simd, zmm := level != "purego", level == "avx512"
	row := func(shape string, flops float64, bench func(*testing.B)) kernelRow {
		lib, pure := minNsPerOp(t, level, bench), minNsPerOp(t, "purego", bench)
		r := kernelRow{
			Shape:         shape,
			Threads:       1,
			LibNsPerOp:    float64(lib),
			LibGFLOPS:     flops / float64(lib),
			PureGoNsPerOp: float64(pure),
			PureGoGFLOPS:  flops / float64(pure),
			VsPureGo:      float64(pure) / float64(lib),
		}
		if zmm {
			avx2 := minNsPerOp(t, "avx2", bench)
			r.AVX2NsPerOp, r.AVX2GFLOPS, r.VsAVX2 = float64(avx2), flops/float64(avx2), float64(avx2)/float64(lib)
		}
		return r
	}

	rows := []kernelRow{
		row("micro 7×12 f32 (kc 256)", 2*7*12*256, benchMicro(7, 12)),
		row("micro 8×32 f32 (kc 256)", 2*8*32*256, benchMicro(8, 32)),
	}
	for _, n := range []int{32, 64, 120} {
		flops := 2 * float64(n) * float64(n) * float64(n)
		r := row(fmt.Sprintf("NN %d³", n), flops, func(b *testing.B) { benchSGEMM(b, NN, n, n, n, 1) })
		ikj := minNsPerOp(t, level, func(b *testing.B) { benchIKJ(b, n) })
		r.IKJNsPerOp, r.IKJGFLOPS, r.VsIKJ = float64(ikj), flops/float64(ikj), float64(ikj)/r.LibNsPerOp
		if r.VsIKJ < benchSmokeGate {
			t.Errorf("%s: library/ikj throughput %.2f, want ≥ %.1f", r.Shape, r.VsIKJ, benchSmokeGate)
		}
		if simd && n >= benchSmokeSIMDFrom && r.VsPureGo < benchSmokeSIMDGate {
			t.Errorf("%s: %s/purego throughput %.2f, want ≥ %.1f", r.Shape, level, r.VsPureGo, benchSmokeSIMDGate)
		}
		if zmm && n >= benchSmokeSIMDFrom && r.VsAVX2 < benchSmokeSIMDGate {
			t.Errorf("%s: avx512/avx2 throughput %.2f, want ≥ %.1f", r.Shape, r.VsAVX2, benchSmokeSIMDGate)
		}
		rows = append(rows, r)
	}
	cp2k := workloads.CP2K()[3]
	rows = append(rows, row("NN DGEMM "+cp2k.Name, cp2k.Flops(), func(b *testing.B) { benchDGEMM(b, cp2k) }))
	for _, r := range rows {
		avx2, ikj := "", ""
		if r.VsAVX2 > 0 {
			avx2 = fmt.Sprintf(", avx2 %.0f ns/op (%.2f GFLOPS, ratio %.2f)", r.AVX2NsPerOp, r.AVX2GFLOPS, r.VsAVX2)
		}
		if r.VsIKJ > 0 {
			ikj = fmt.Sprintf(", ikj %.2f GFLOPS (ratio %.2f)", r.IKJGFLOPS, r.VsIKJ)
		}
		t.Logf("%s: %s %.0f ns/op (%.2f GFLOPS)%s, purego %.0f ns/op (%.2f GFLOPS, ratio %.2f)%s",
			r.Shape, level, r.LibNsPerOp, r.LibGFLOPS, avx2, r.PureGoNsPerOp, r.PureGoGFLOPS, r.VsPureGo, ikj)
	}

	var avx2Gate float64 // left out of the record without an AVX-512 row
	if zmm {
		avx2Gate = benchSmokeSIMDGate
	}
	out := struct {
		Captured  string      `json:"captured"`
		Host      string      `json:"host"`
		GoVersion string      `json:"go_version"`
		Level     string      `json:"kernel_level"`
		Command   string      `json:"command"`
		MinOfRuns int         `json:"min_of_runs"`
		Gate      float64     `json:"gate_lib_over_ikj_at_least"`
		SIMDGate  float64     `json:"gate_lib_over_purego_at_least"`
		SIMDFrom  string      `json:"gate_lib_over_purego_from"`
		AVX2Gate  float64     `json:"gate_lib_over_avx2_at_least,omitempty"`
		Passed    bool        `json:"passed"`
		Rows      []kernelRow `json:"rows"`
	}{
		Captured:  time.Now().UTC().Format("2006-01-02"),
		Host:      hostDescription(),
		GoVersion: runtime.Version(),
		Level:     level,
		Command:   benchSmokeCommand,
		MinOfRuns: benchSmokeRuns,
		Gate:      benchSmokeGate,
		SIMDGate:  benchSmokeSIMDGate,
		SIMDFrom:  fmt.Sprintf("NN %d³", benchSmokeSIMDFrom),
		AVX2Gate:  avx2Gate,
		Passed:    !t.Failed(),
		Rows:      rows,
	}
	buf, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_kernels.json", append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

func nsPerOp(r testing.BenchmarkResult) time.Duration {
	return time.Duration(r.NsPerOp())
}

// hostDescription names the CPU model (from /proc/cpuinfo where the OS has
// one), the architecture and the CPU count.
func hostDescription() string {
	model := "unknown CPU"
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(info), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				model = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return fmt.Sprintf("%s, %s/%s, %d CPUs", model, runtime.GOOS, runtime.GOARCH, runtime.NumCPU())
}
