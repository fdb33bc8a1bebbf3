package router

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

// goldenRouter is a router over three backends with fixed outcome books:
// one healthy, one ejected, one healthy but draining (not ready).
func goldenRouter(t *testing.T) *Router {
	rt, err := New(Config{Backends: []string{"http://10.0.0.1:8080", "http://10.0.0.2:8080", "10.0.0.3:8080"}})
	if err != nil {
		t.Fatal(err)
	}
	set := func(i int, state backendState, ready bool, routed, failures, sheds uint64, trips int) {
		b := rt.backends[i]
		b.state, b.ready, b.routed, b.failures, b.sheds, b.trips = state, ready, routed, failures, sheds, trips
	}
	set(0, StateHealthy, true, 120, 1, 4, 0)
	set(1, StateEjected, true, 30, 9, 0, 2)
	set(2, StateHealthy, false, 75, 0, 2, 1)
	return rt
}

// The per-backend series over fixed books are pinned byte for byte.
func TestExpositionGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := telemetry.WriteFamilies(&buf, goldenRouter(t).backendFamilies()); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "exposition.golden", buf.Bytes())
}
