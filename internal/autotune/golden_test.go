package autotune

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"libshalom/internal/platform"
	"libshalom/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// checkGolden compares got with testdata/name; -update rewrites the file.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("exposition differs from %s (rerun with -update to accept):\n%s", path, got)
	}
}

// goldenEngine is an engine with three fixed class books: one promoted with
// both tiles known, one rejected with only an incumbent, one idle.
func goldenEngine() *Engine {
	e := New(Config{Recorder: telemetry.New(telemetry.Options{}), Platform: platform.KP920()})
	e.searched, e.proved, e.rejected, e.promoted = 3, 2, 1, 1
	e.classes[classKey{elem: 4, class: telemetry.ShapeSmall}] = &classState{
		state:     StatePromoted,
		incumbent: Candidate{MR: 1, NR: 4, KC: 16, Kernel: "detuned-1x4", GFLOPS: 7.75},
		cand:      Candidate{MR: 5, NR: 12, KC: 16, Kernel: "tuned-5x12-kc16-pipelined", GFLOPS: 31.5},
	}
	e.classes[classKey{elem: 8, class: telemetry.ShapeTiny}] = &classState{
		state:     StateRejected,
		incumbent: Candidate{MR: 4, NR: 4, KC: 32, Kernel: "analytic-4x4", GFLOPS: 14},
		detail:    "no candidate beats the incumbent",
	}
	e.classes[classKey{elem: 4, class: telemetry.ShapeIrregular}] = &classState{state: StateIdle}
	return e
}

// The engine's per-class gauge family over fixed books is pinned byte for
// byte.
func TestExpositionGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := telemetry.WriteFamilies(&buf, goldenEngine().MetricFamilies()); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "exposition.golden", buf.Bytes())
}
