package attrib

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

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

// goldenEngine is an engine with fixed accounts on three keys and a fixed
// calibration: its report is a pure function of this state.
func goldenEngine(t *testing.T) *Engine {
	e := newTestEngine(t, telemetry.New(telemetry.Options{}), 3)
	e.cal, e.windows = 1.25, 11
	set := func(prec, mode, class, kernel uint8, a account) {
		e.accounts[telemetry.AttribKeyIndex(prec, mode, class, kernel)] = a
	}
	set(telemetry.PrecF32, 0, uint8(telemetry.ShapeSmall), telemetry.KernelFast, account{
		calls: 600, windows: 9, ewma: 10.5, hotRate: 3e9, p50: 10, p99: 12.5,
		predicted: 20, peak: 32, roofline: 28, relEff: 0.42, drifting: true, driftEvents: 2})
	set(telemetry.PrecF32, 1, uint8(telemetry.ShapeTiny), telemetry.KernelFast, account{
		calls: 90, windows: 4, ewma: 2.25, hotRate: 1e9, p50: 2, p99: 3,
		predicted: 2.5, peak: 32, roofline: 4, relEff: 0.9})
	set(telemetry.PrecF64, 0, uint8(telemetry.ShapeIrregular), telemetry.KernelFast, account{
		calls: 12, windows: 2, ewma: 9, hotRate: 0, p50: 9, p99: 9.5,
		predicted: 8, peak: 16, roofline: 10, relEff: 1.1})
	return e
}

// The engine's gauge family over fixed accounts is pinned byte for byte.
func TestExpositionGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := telemetry.WriteFamilies(&buf, goldenEngine(t).MetricFamilies()); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "exposition.golden", buf.Bytes())
}
