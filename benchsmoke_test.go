package libshalom

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// benchSmokeRuns is how many timings of each side the gate takes; the
// minimum of each is compared, which discards runs a noisy neighbour
// slowed.
const benchSmokeRuns = 5

// benchSmokeCommand reproduces BENCH_kernels.json.
const benchSmokeCommand = "make bench-smoke (SHALOM_BENCH_SMOKE=1 go test -count=1 -cpu 1 -run TestBenchSmoke .)"

// benchSmokeGate is the least library/ikj throughput ratio the gate
// accepts.
const benchSmokeGate = 1.0

// kernelRow is one BENCH_kernels.json row: the library's single-threaded
// NN SGEMM against the naive ikj loop on the same square problem.
type kernelRow struct {
	Shape      string  `json:"shape"`
	Threads    int     `json:"threads"`
	LibNsPerOp float64 `json:"lib_ns_per_op"`
	LibGFLOPS  float64 `json:"lib_gflops"`
	IKJNsPerOp float64 `json:"ikj_ns_per_op"`
	IKJGFLOPS  float64 `json:"ikj_gflops"`
	VsIKJ      float64 `json:"lib_over_ikj_throughput"`
}

// TestBenchSmoke is the bench-smoke gate: for single-threaded NN SGEMM at
// 32³, 64³ and 120³, the library's throughput over the naive ikj loop's —
// each the minimum ns/op of benchSmokeRuns alternating timings in this
// process — must be at least 1.0. It writes the rows to BENCH_kernels.json.
// Timing is noisy on shared hosts, so the gate stays out of tier-1 and
// make check: it runs only with SHALOM_BENCH_SMOKE=1.
func TestBenchSmoke(t *testing.T) {
	if os.Getenv("SHALOM_BENCH_SMOKE") == "" {
		t.Skip("timing gate; run with SHALOM_BENCH_SMOKE=1 (make bench-smoke)")
	}
	var rows []kernelRow
	for _, n := range []int{32, 64, 120} {
		lib, ikj := time.Duration(1<<62), time.Duration(1<<62)
		for r := 0; r < benchSmokeRuns; r++ {
			lib = min(lib, nsPerOp(testing.Benchmark(func(b *testing.B) { benchSGEMM(b, NN, n, n, n, 1) })))
			ikj = min(ikj, nsPerOp(testing.Benchmark(func(b *testing.B) { benchIKJ(b, n) })))
		}
		flops := 2 * float64(n) * float64(n) * float64(n)
		row := kernelRow{
			Shape:      fmt.Sprintf("NN %d³", n),
			Threads:    1,
			LibNsPerOp: float64(lib),
			LibGFLOPS:  flops / float64(lib),
			IKJNsPerOp: float64(ikj),
			IKJGFLOPS:  flops / float64(ikj),
			VsIKJ:      float64(ikj) / float64(lib),
		}
		rows = append(rows, row)
		t.Logf("%s: library %.0f ns/op (%.2f GFLOPS), ikj %.0f ns/op (%.2f GFLOPS), ratio %.2f",
			row.Shape, row.LibNsPerOp, row.LibGFLOPS, row.IKJNsPerOp, row.IKJGFLOPS, row.VsIKJ)
		if row.VsIKJ < benchSmokeGate {
			t.Errorf("%s: library/ikj throughput %.2f, want ≥ %.1f", row.Shape, row.VsIKJ, benchSmokeGate)
		}
	}
	out := struct {
		Captured  string      `json:"captured"`
		Host      string      `json:"host"`
		GoVersion string      `json:"go_version"`
		Command   string      `json:"command"`
		MinOfRuns int         `json:"min_of_runs"`
		Gate      float64     `json:"gate_lib_over_ikj_at_least"`
		Passed    bool        `json:"passed"`
		Rows      []kernelRow `json:"rows"`
	}{
		Captured:  time.Now().UTC().Format("2006-01-02"),
		Host:      hostDescription(),
		GoVersion: runtime.Version(),
		Command:   benchSmokeCommand,
		MinOfRuns: benchSmokeRuns,
		Gate:      benchSmokeGate,
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
