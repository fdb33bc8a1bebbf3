package attrib

import (
	"strings"
	"testing"
	"time"

	"libshalom/internal/perfsim"
	"libshalom/internal/platform"
	"libshalom/internal/telemetry"
)

// feedCalls drives n synthetic clean calls of one key into the recorder
// through the same CallDone entry point the driver uses, so the sketch
// path under test is the production one. Each call's reported duration is
// derived from the key's own model prediction scaled by hostScale, which
// makes the measured/predicted ratio of the key exactly hostScale — the
// quantity the calibrated drift detector scores.
func feedCalls(tel *telemetry.Recorder, mode, class, kernel uint8, n int, hostScale float64) {
	m, nn, k := telemetry.RepresentativeShape(telemetry.ShapeClass(class))
	flops := 2 * float64(m) * float64(nn) * float64(k)
	pred := perfsim.ClassPrediction(platform.KP920(), 4, mode, class, kernel, 1)
	durNs := flops / (pred * hostScale) // GFLOPS = flops/ns
	for i := 0; i < n; i++ {
		start := tel.Now() - int64(durNs)
		tel.CallDone(telemetry.PrecF32, mode, class, kernel, telemetry.OutcomeOK, start, flops)
	}
}

func newTestEngine(t *testing.T, tel *telemetry.Recorder, k int) *Engine {
	t.Helper()
	e := New(Config{
		Recorder:       tel,
		Platform:       platform.KP920(),
		Window:         100 * time.Millisecond,
		Margin:         0.35,
		DriftWindows:   k,
		MinWindowCalls: 4,
	})
	if e == nil {
		t.Fatal("New returned nil with a live recorder")
	}
	return e
}

func TestNilEngineIsDisabled(t *testing.T) {
	var e *Engine
	e.Start()
	e.Step()
	e.Close()
	if e.Feed() != nil || e.DriftTotal() != 0 || e.Windows() != 0 {
		t.Fatal("nil engine returned live data")
	}
	if err := telemetry.WriteFamilies(&strings.Builder{}, e.MetricFamilies()); err != nil {
		t.Fatalf("nil WritePrometheus: %v", err)
	}
	if New(Config{}) != nil {
		t.Fatal("New without a recorder must return the disabled (nil) engine")
	}
}

// The calibration contract: two keys whose measured/predicted ratios match
// sit at par together; no drift fires even though the host runs far below
// the modeled ARM platform.
func TestCalibrationAbsorbsHostScale(t *testing.T) {
	tel := telemetry.New(telemetry.Options{})
	e := newTestEngine(t, tel, 2)
	small := uint8(telemetry.ShapeSmall)
	tiny := uint8(telemetry.ShapeTiny)
	for w := 0; w < 6; w++ {
		// Both classes 50× slower than the model, but equally so — a slow
		// host, not a regression.
		feedCalls(tel, 0, small, 0, 8, 0.02)
		feedCalls(tel, 0, tiny, 0, 8, 0.02)
		e.Step()
	}
	if got := e.DriftTotal(); got != 0 {
		t.Fatalf("calibrated equal-ratio keys drifted %d times", got)
	}
	feed := e.Feed()
	if len(feed) != 2 {
		t.Fatalf("feed has %d entries, want 2", len(feed))
	}
	for _, c := range feed {
		if c.RelEff <= 0 {
			t.Fatalf("%s/%s: no relative efficiency scored: %+v", c.ShapeClass, c.Kernel, c)
		}
	}
}

// The drift contract: a key whose measured rate collapses relative to the
// others crosses the margin for K consecutive windows, fires exactly one
// drift event (latched), bumps the telemetry counter, invokes OnDrift, and
// tops the candidate feed; recovery un-latches it.
func TestSeededSlowClassDriftsAndRanksFirst(t *testing.T) {
	tel := telemetry.New(telemetry.Options{})
	e := newTestEngine(t, tel, 2)
	var events []DriftEvent
	e.cfg.OnDrift = func(ev DriftEvent) { events = append(events, ev) }
	small := uint8(telemetry.ShapeSmall)
	tiny := uint8(telemetry.ShapeTiny)

	healthy := func() {
		feedCalls(tel, 0, small, 0, 8, 0.02)
		feedCalls(tel, 0, tiny, 0, 8, 0.02)
		e.Step()
	}
	slowed := func() {
		// The small class collapses 10×; tiny keeps the calibration anchored.
		feedCalls(tel, 0, small, 0, 8, 0.002)
		feedCalls(tel, 0, tiny, 0, 8, 0.02)
		e.Step()
	}

	for i := 0; i < 3; i++ {
		healthy()
	}
	if e.DriftTotal() != 0 {
		t.Fatalf("healthy warmup drifted: %d", e.DriftTotal())
	}
	slowed() // window 1 below par: streak, no event yet (K=2)
	if e.DriftTotal() != 0 {
		t.Fatal("drift fired before K consecutive windows")
	}
	slowed() // window 2: fires
	if e.DriftTotal() != 1 {
		t.Fatalf("drift events = %d, want 1 after K windows", e.DriftTotal())
	}
	slowed() // latched: no second event while still drifting
	if e.DriftTotal() != 1 {
		t.Fatalf("latched drift re-fired: %d", e.DriftTotal())
	}
	if len(events) != 1 {
		t.Fatalf("OnDrift calls = %d, want 1", len(events))
	}
	ev := events[0]
	if ev.ShapeClass != "small" || ev.Kernel != "fast" || ev.Precision != "f32" {
		t.Fatalf("drift event names the wrong key: %+v", ev)
	}
	if ev.RelEff >= 1-e.cfg.Margin {
		t.Fatalf("drift event rel-eff %v not below the margin", ev.RelEff)
	}
	if got := tel.AttribDriftCount(small); got != 1 {
		t.Fatalf("telemetry drift counter = %d, want 1", got)
	}
	snap := tel.Snapshot()
	if len(snap.AttribDrift) != 1 || snap.AttribDrift[0].Name != "small" {
		t.Fatalf("snapshot attrib drift = %+v", snap.AttribDrift)
	}
	if snap.Counters[telemetry.AttribWindows] == 0 {
		t.Fatal("snapshot records no attribution windows")
	}

	feed := e.Feed()
	if feed[0].ShapeClass != "small" || !feed[0].Drifting {
		t.Fatalf("top candidate = %+v, want the drifting small class", feed[0])
	}
	if feed[0].Score <= feed[1].Score {
		t.Fatalf("ranking broken: %v <= %v", feed[0].Score, feed[1].Score)
	}
	if feed[0].PredictedGFLOPS <= 0 || feed[0].PeakGFLOPS <= 0 || feed[0].RooflineGFLOPS <= 0 {
		t.Fatalf("model columns missing: %+v", feed[0])
	}

	// Recovery: back at par for one window clears the latch.
	healthy()
	for _, c := range e.Feed() {
		if c.ShapeClass == "small" && c.Drifting {
			t.Fatalf("small class still drifting after recovery: %+v", c)
		}
	}
	if e.DriftTotal() != 1 {
		t.Fatalf("recovery changed the event count: %d", e.DriftTotal())
	}
}

// Windows below the qualification floor must freeze accounts: no scoring,
// no drift, but also no decay of previously scored state.
func TestSparseWindowsFreezeAccounts(t *testing.T) {
	tel := telemetry.New(telemetry.Options{})
	e := newTestEngine(t, tel, 1)
	small := uint8(telemetry.ShapeSmall)
	for i := 0; i < 3; i++ {
		feedCalls(tel, 0, small, 0, 8, 0.02)
		e.Step()
	}
	want := e.Feed()[0].MeasuredGFLOPS
	// Two calls (< MinWindowCalls=4), grotesquely slow: must not score.
	feedCalls(tel, 0, small, 0, 2, 0.0001)
	e.Step()
	got := e.Feed()[0]
	if got.MeasuredGFLOPS != want {
		t.Fatalf("sparse window rescored the account: %v -> %v", want, got.MeasuredGFLOPS)
	}
	if e.DriftTotal() != 0 {
		t.Fatal("sparse window triggered drift")
	}
	// An idle window (no calls at all) likewise leaves everything frozen.
	e.Step()
	if e.Feed()[0].MeasuredGFLOPS != want {
		t.Fatal("idle window mutated the account")
	}
}

func TestReportAndPrometheusExposition(t *testing.T) {
	tel := telemetry.New(telemetry.Options{})
	e := newTestEngine(t, tel, 1)
	feedCalls(tel, 1, uint8(telemetry.ShapeSmall), 0, 8, 0.05)
	e.Step()
	rep := e.Report()
	if rep.Platform != "Kunpeng 920" && rep.Platform == "" {
		t.Fatalf("report platform = %q", rep.Platform)
	}
	if rep.Windows != 1 || len(rep.Candidates) != 1 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.Candidates[0].Mode != "NT" {
		t.Fatalf("candidate mode = %q, want NT", rep.Candidates[0].Mode)
	}
	var sb strings.Builder
	if err := telemetry.WriteFamilies(&sb, e.MetricFamilies()); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"libshalom_attrib_rel_efficiency{precision=\"f32\",mode=\"NT\",shape_class=\"small\",kernel=\"fast\"}",
		"libshalom_attrib_candidate_score",
		"libshalom_attrib_calibration",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

// The ticker goroutine closes windows on its own and shuts down cleanly.
func TestStartCloseLifecycle(t *testing.T) {
	tel := telemetry.New(telemetry.Options{})
	e := New(Config{Recorder: tel, Window: 5 * time.Millisecond, MinWindowCalls: 1})
	e.Start()
	e.Start() // idempotent
	deadline := time.Now().Add(2 * time.Second)
	for e.Windows() == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	e.Close()
	e.Close() // idempotent
	if e.Windows() == 0 {
		t.Fatal("ticker never closed a window")
	}
}
