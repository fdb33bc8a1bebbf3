package core

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"libshalom/internal/faults"
	"libshalom/internal/guard"
	"libshalom/internal/heal"
	"libshalom/internal/mat"
	"libshalom/internal/platform"
	"libshalom/internal/telemetry"
)

// TestSingleAndBatchDispatchParity runs one problem through every route of
// the fallback chain twice — as a single call and as a batch of one — and
// requires the two to be indistinguishable: bitwise-equal C, the same
// (kernel, outcome) call counts and the same heal and degradation events.
func TestSingleAndBatchDispatchParity(t *testing.T) {
	const m, n, k = 24, 20, 18
	plat := platform.KP920()
	class := uint8(telemetry.ClassifyShape(m, n, k))
	prevHeal := heal.Configure(heal.Config{CanaryStride: 1})
	t.Cleanup(func() {
		heal.Configure(prevHeal)
		faults.Reset()
		guard.Reset()
	})
	// tuned installs an override for the problem's class and returns its
	// private breaker path.
	tuned := func() string {
		path := guard.MintOverridePath(4, "parity")
		guard.SetOverride(4, class, guard.TileOverride{MR: 5, NR: 8, KC: 8, Kernel: "tuned-5x8-kc8", Path: path})
		return path
	}
	routes := []struct {
		name  string
		setup func()
		want  string // the one (kernel/outcome) label the call must record
		heal  map[string]uint64
	}{
		{"fast", func() {}, "fast/ok", nil},
		{"open-breaker-ref", func() {
			guard.Trip(plat.Name, guard.PathF32, guard.ReasonPanic, "parity", "", time.Hour)
		}, "ref/ok", nil},
		{"canary-agrees", func() {
			guard.BeginProbation(plat.Name, guard.PathF32)
		}, "fast/ok", map[string]uint64{"canary-run": 1, "canary-agree": 1}},
		{"canary-mismatch", func() {
			guard.BeginProbation(plat.Name, guard.PathF32)
			faults.Arm(faults.CanaryMismatch, 1)
		}, "ref/degraded", map[string]uint64{"canary-run": 1, "canary-mismatch": 1, "breaker-open": 1}},
		{"tuned-healthy", func() { tuned() }, "tuned/ok", nil},
		{"tuned-probing", func() {
			guard.BeginProbation(plat.Name, tuned())
		}, "tuned/ok", map[string]uint64{"canary-run": 1, "canary-agree": 1}},
	}
	for _, rt := range routes {
		t.Run(rt.name, func(t *testing.T) {
			run := func(batch bool) ([]float32, telemetry.Snapshot) {
				guard.Reset()
				faults.Reset()
				rt.setup()
				rng := mat.NewRNG(5)
				a, b, c := buildOperands32(NN, m, n, k, rng)
				tel := telemetry.New(telemetry.Options{TraceEvents: -1})
				cfg := Config{Plat: plat, Threads: 1, Tel: tel}
				var err error
				if batch {
					err = SGEMMBatch(cfg, NN, []BatchEntry[float32]{{
						M: m, N: n, K: k, Alpha: 1.25, A: a.Data, LDA: a.Stride, B: b.Data, LDB: b.Stride,
						Beta: -0.75, C: c.Data, LDC: c.Stride,
					}})
				} else {
					err = SGEMM(cfg, NN, m, n, k, 1.25, a.Data, a.Stride, b.Data, b.Stride, -0.75, c.Data, c.Stride)
				}
				if err != nil {
					t.Fatalf("batch=%v: %v", batch, err)
				}
				return c.Data, tel.Snapshot()
			}
			single, sSnap := run(false)
			batched, bSnap := run(true)
			for i := range single {
				if math.Float32bits(single[i]) != math.Float32bits(batched[i]) {
					t.Fatalf("C[%d]: single %v, batch %v", i, single[i], batched[i])
				}
			}
			sCalls, bCalls := callLabels(sSnap), callLabels(bSnap)
			if want := map[string]uint64{rt.want: 1}; !reflect.DeepEqual(sCalls, want) {
				t.Fatalf("single call recorded %v, want %v", sCalls, want)
			}
			if !reflect.DeepEqual(sCalls, bCalls) {
				t.Fatalf("calls: single %v, batch %v", sCalls, bCalls)
			}
			wantHeal := rt.heal
			if wantHeal == nil {
				wantHeal = map[string]uint64{}
			}
			if got := eventCounts(sSnap.Heal); !reflect.DeepEqual(got, wantHeal) {
				t.Fatalf("single call heal events %v, want %v", got, wantHeal)
			}
			if !reflect.DeepEqual(sSnap.Heal, bSnap.Heal) {
				t.Fatalf("heal events: single %v, batch %v", sSnap.Heal, bSnap.Heal)
			}
			if !reflect.DeepEqual(sSnap.Degradations, bSnap.Degradations) {
				t.Fatalf("degradations: single %v, batch %v", sSnap.Degradations, bSnap.Degradations)
			}
		})
	}
}

// callLabels maps "kernel/outcome" to the number of calls recorded under it.
func callLabels(s telemetry.Snapshot) map[string]uint64 {
	out := map[string]uint64{}
	for _, c := range s.Calls {
		out[fmt.Sprintf("%s/%s", c.Kernel, c.Outcome)] += c.Count
	}
	return out
}

func eventCounts(evs []telemetry.EventCount) map[string]uint64 {
	out := map[string]uint64{}
	for _, e := range evs {
		out[e.Name] = e.Count
	}
	return out
}
