// Command shalombench is the libshalom benchmark: it runs one workload in a
// fresh process, checks every output, and prints the end-to-end metrics
// (or, with -trace 1, the per-layer metrics and a span file) as the last
// line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// Run it through run.sh, which builds it against the checkout's sources:
//
//	bash shalombench/run.sh --workload small-calls --seed 1 --seconds 10 --trace 0
//
// Workloads:
//
//	small-calls  one closed-loop caller, small f32 GEMMs (4–32) in all modes,
//	             f64 at the CP2K sizes, a quarter of the GEMMs in batch
//	             calls of 16
//	irregular    one closed-loop caller, short-wide and tall-skinny f32/f64
//	             GEMMs in NN and NT, B above L2 and below L3
//	serve        a seeded Poisson open loop through an in-process router to
//	             an in-process server: fixed low and high rates, then the
//	             closed-loop capacity
//
// Exit status: 0 when every output was correct, 1 when any was wrong or
// failed (the result line is still printed), 2 when the run could not be
// made (no result line).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

var workloadNames = []string{"small-calls", "irregular", "serve"}

type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	root     string // checkout root
	out      string // artefact directory
}

func (rc runConfig) logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "shalombench: "+format+"\n", args...)
}

func (rc runConfig) artefact(kind, ext string) string {
	return filepath.Join(rc.out, kind, fmt.Sprintf("%s-seed%d.%s", rc.workload, rc.seed, ext))
}

func (rc runConfig) writeSpans(tr *tracer) error {
	path := rc.artefact("spans", "json")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	spans, err := tr.finish(path)
	if err != nil {
		return fmt.Errorf("writing span file: %w", err)
	}
	rc.logf("wrote %d spans (%d dropped) to %s", len(spans), tr.dropped, path)
	return nil
}

func main() {
	workload := flag.String("workload", "", "workload: small-calls, irregular or serve")
	seed := flag.Uint64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 10, "measuring time of the run")
	trace := flag.Int("trace", 0, "1: print the per-layer metrics and write a span file")
	root := flag.String("root", ".", "checkout root (provenance)")
	out := flag.String("out", ".bench_build", "directory for result records and span files")
	probe := flag.Bool("setup-probe", false, "internal: set up, run the first op, print when it was answered, exit")
	flag.Parse()

	known := false
	for _, w := range workloadNames {
		known = known || w == *workload
	}
	if !known || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "shalombench: want -workload %v, -seconds > 0, -trace 0|1\n", workloadNames)
		os.Exit(2)
	}
	rc := runConfig{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, root: *root, out: *out}
	if *probe {
		answered, gen, err := setupProbe(rc)
		if err != nil {
			rc.logf("set-up failed: %v", err)
			os.Exit(2)
		}
		fmt.Printf("ready %d %d\n", answered.UnixNano(), gen.Nanoseconds())
		return
	}
	if err := run(rc); err != nil {
		rc.logf("%v", err)
		os.Exit(2)
	}
}

// setupProbe does what a run does before its first correct op, and that
// op. It returns when the op was answered and how long making the op's
// inputs took.
func setupProbe(rc runConfig) (time.Time, time.Duration, error) {
	if rc.workload == "serve" {
		return serveSetupProbe(rc.seed)
	}
	return libSetupProbe(rc.workload, rc.seed)
}

// setupProbes is how many fresh processes measure the set-up time; the
// median is reported.
const setupProbes = 11

// measureSetup starts the benchmark binary in probe mode setupProbes times
// and times each from process start until its first op was answered, less
// the time the probe spent making the op's inputs. Checking the answer
// comes after and is not counted.
func measureSetup(rc runConfig) (float64, []float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, nil, err
	}
	var times []float64
	for i := 0; i < setupProbes; i++ {
		cmd := exec.Command(self, "-setup-probe", "-workload", rc.workload,
			"-seed", strconv.FormatUint(rc.seed, 10), "-out", rc.out, "-root", rc.root)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return 0, nil, err
		}
		t0 := time.Now()
		if err := cmd.Start(); err != nil {
			return 0, nil, err
		}
		line, rerr := bufio.NewReader(stdout).ReadString('\n')
		werr := cmd.Wait()
		var answered, gen int64
		n, serr := fmt.Sscanf(line, "ready %d %d\n", &answered, &gen)
		if rerr != nil || werr != nil || serr != nil || n != 2 {
			return 0, nil, fmt.Errorf("set-up probe failed: %q %v %v %v", line, rerr, werr, serr)
		}
		d := time.Unix(0, answered).Sub(t0) - time.Duration(gen)
		if d <= 0 {
			return 0, nil, fmt.Errorf("set-up probe reported an answer before it started: %q", line)
		}
		times = append(times, d.Seconds())
	}
	sorted := append([]float64(nil), times...)
	return quantile(sorted, 0.5), times, nil
}

func run(rc runConfig) error {
	setup, setupTimes, err := measureSetup(rc)
	if err != nil {
		return err
	}
	steal0, total0 := cpuTicks()
	var o *outcome
	if rc.workload == "serve" {
		o, err = runServe(rc)
	} else {
		o, err = runLib(rc)
	}
	if err != nil {
		return err
	}
	o.values["setup_s"] = setup
	o.values["fail_share"] = ratio(float64(o.failed), float64(o.attempted))
	o.record["setup_probe_s"] = setupTimes
	steal1, total1 := cpuTicks()
	o.record["host_steal_share"] = ratio(float64(steal1-steal0), float64(total1-total0))
	defs := endToEnd
	if rc.trace {
		defs = perLayer
	}
	ms, err := o.emit(defs)
	if err != nil {
		return err
	}
	if err := writeRecord(rc, o, ms); err != nil {
		return err
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{o.failed == 0, o.attempted, o.failed, ms})
	if err != nil {
		return err
	}
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-28s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
	fmt.Println(string(line))
	if o.failed > 0 {
		os.Exit(1)
	}
	return nil
}

// writeRecord writes the run's result record: provenance, the printed
// metrics and the run's detail.
func writeRecord(rc runConfig, o *outcome, ms map[string]metric) error {
	mode := "e2e"
	if rc.trace {
		mode = "trace"
	}
	path := rc.artefact("results", mode+".json")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	rec := map[string]any{
		"provenance": provenance(rc),
		"attempted":  o.attempted,
		"failed":     o.failed,
		"metrics":    ms,
		"detail":     o.record,
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	rc.logf("result record: %s", path)
	return nil
}
