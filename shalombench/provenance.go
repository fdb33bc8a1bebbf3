package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// provenance is what every result record carries, so two records can be
// told apart by more than their numbers.
func provenance(rc runConfig) map[string]any {
	return map[string]any{
		"commit":         gitCommit(rc.root),
		"source_sha256":  sourceDigest(rc.root, rc.out),
		"workload":       rc.workload,
		"seed":           rc.seed,
		"seconds":        rc.seconds,
		"trace":          rc.trace,
		"go_version":     runtime.Version(),
		"goos_goarch":    runtime.GOOS + "/" + runtime.GOARCH,
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"num_cpu":        runtime.NumCPU(),
		"cpu_model":      cpuModel(),
		"caches":         cacheSizes(),
		"workload_const": workloadConstants(),
	}
}

// workloadConstants are the fixed settings of every workload, rates
// included.
func workloadConstants() map[string]any {
	return map[string]any{
		"small_single_calls":              smallSingles,
		"small_batch_calls":               smallBatches,
		"small_batch_len":                 smallBatchLen,
		"small_dims":                      []int{smallMinDim, smallMaxDim},
		"irregular_shapes":                irregularShapes(),
		"cp2k_shapes":                     cp2kShapes(),
		"serve_pool":                      servePoolSize,
		"serve_mix":                       map[string]float64{"f32_tiny_4_16": serveTinyShare, "f64_cp2k": serveCP2KShare, "f32_32_64": 1 - serveTinyShare - serveCP2KShare},
		"serve_low_rps":                   serveLowRate,
		"serve_high_rps":                  serveHighRate,
		"serve_window_us":                 serveWindow.Microseconds(),
		"serve_phase_shares":              map[string]float64{"low": serveLowShare, "high": serveHighShare, "capacity": serveSatShare},
		"serve_generators":                serveGenerators,
		"setup_probes":                    setupProbes,
		"check_safety_factor":             safetyFactor,
		"library_defaults":                "libshalom.New()",
		"serve_backend_defaults":          "shalom-serve defaults: telemetry and attribution on",
		"serve_router_defaults":           "shalom-router defaults, 1 backend",
		"irregular_largest_operand_bytes": largestOperandRange(),
	}
}

// gitCommit is HEAD of the checkout, or "unknown" outside a git work tree.
// The search for a repository stops at the checkout root.
func gitCommit(root string) string {
	abs, err := filepath.Abs(root)
	if err != nil {
		return "unknown"
	}
	cmd := exec.Command("git", "-C", abs, "rev-parse", "HEAD")
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(abs))
	b, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// sourceDigest is SHA-256 over the paths and contents of the checkout's Go
// sources and module files, skipping hidden directories and the artefact
// directory: it identifies the code measured where no commit is known.
func sourceDigest(root, out string) string {
	outAbs, _ := filepath.Abs(out)
	h := sha256.New()
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			abs, _ := filepath.Abs(path)
			if path != root && (strings.HasPrefix(d.Name(), ".") || abs == outAbs) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return nil
		}
		defer f.Close()
		rel, _ := filepath.Rel(root, path)
		io.WriteString(h, rel+"\x00")
		_, _ = io.Copy(h, f)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cacheSizes lists cpu0's caches as "L<level> <type>" → size.
func cacheSizes() map[string]string {
	out := map[string]string{}
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		read := func(name string) string {
			b, err := os.ReadFile(filepath.Join(d, name))
			if err != nil {
				return "?"
			}
			return strings.TrimSpace(string(b))
		}
		out["L"+read("level")+" "+read("type")] = read("size")
	}
	return out
}

// largestOperandRange is the smallest and largest size, over the irregular
// grid, of each op's largest operand (B on short-wide shapes, A on the tall-
// skinny ones): the working set to set beside the cache sizes.
func largestOperandRange() [2]int {
	lo, hi := 0, 0
	for _, s := range irregularShapes() {
		m, n, k := s[0], s[1], s[2]
		for _, eb := range []int{4, 8} {
			b := max(m*k, k*n) * eb
			if lo == 0 || b < lo {
				lo = b
			}
			hi = max(hi, b)
		}
	}
	return [2]int{lo, hi}
}

// cpuTicks reads the machine's cumulative stolen and total CPU ticks from
// /proc/stat, zero where they are not available. Time a hypervisor gives
// to other guests slows every figure of a run; the record keeps its share.
func cpuTicks() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}
