package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

func smallOps(seed uint64) []*gemmOp {
	var ops []*gemmOp
	for _, c := range genSmallCalls(seed) {
		ops = append(ops, c.ops...)
	}
	return ops
}

func TestGeneratedInputsAreSeedDeterministic(t *testing.T) {
	gens := map[string]func(uint64) []*gemmOp{
		"small-calls": smallOps,
		"irregular":   genIrregular,
		"serve":       genServePool,
	}
	for name, gen := range gens {
		a, b, c := inputDigest(gen(1)), inputDigest(gen(1)), inputDigest(gen(2))
		if a != b {
			t.Errorf("%s: the same seed generated different inputs", name)
		}
		if a == c {
			t.Errorf("%s: different seeds generated identical inputs", name)
		}
	}
}

// Every seed draws the same mix; only values and order change.
func TestSmallCallsMix(t *testing.T) {
	calls := genSmallCalls(5)
	var batches, f64, gemms int
	var bytes float64
	for _, c := range calls {
		if c.batch {
			batches++
		}
		if c.ops[0].f64 {
			f64++
		}
		for _, o := range c.ops {
			gemms++
			bytes += float64(o.elemBytes() * (o.m*o.k + o.k*o.n + o.m*o.n))
			if !o.f64 && (o.m < smallMinDim || o.m > smallMaxDim || o.k > smallMaxDim || o.n > smallMaxDim) {
				t.Fatalf("f32 shape %dx%dx%d outside [%d, %d]", o.m, o.n, o.k, smallMinDim, smallMaxDim)
			}
		}
	}
	if batches*smallBatchLen*4 != gemms || f64*4 != len(calls) {
		t.Errorf("%d batch calls, %d f64 calls of %d calls and %d GEMMs", batches, f64, len(calls), gemms)
	}
	if bytes <= 4<<20 {
		t.Errorf("operand pool %.1f MiB does not exceed 4 MiB", bytes/(1<<20))
	}
}

func TestServeMix(t *testing.T) {
	var tiny, cp, mid int
	for _, o := range genServePool(3) {
		switch {
		case o.f64:
			cp++
		case o.m <= 16:
			tiny++
		default:
			mid++
		}
	}
	if tiny != 350 || cp != 100 || mid != 50 {
		t.Errorf("mix tiny/cp2k/mid = %d/%d/%d, want 350/100/50", tiny, cp, mid)
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitName = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// Every metric has a valid name and a unit, is declared once, and matches
// the benchmark's declaration in BENCHMARK.json.
func TestMetricNamesAndUnits(t *testing.T) {
	seen := map[string]bool{}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if !metricName.MatchString(d.name) || !unitName.MatchString(d.unit) {
				t.Errorf("bad metric %q unit %q", d.name, d.unit)
			}
			if seen[d.name] {
				t.Errorf("metric %q declared twice", d.name)
			}
			seen[d.name] = true
		}
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	match := func(kind string, defs []metricDef, got []struct{ Name, Unit string }) {
		if len(defs) != len(got) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the benchmark", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s/%s, the benchmark %s/%s", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	match("end_to_end", endToEnd, decl.EndToEnd)
	match("per_layer", perLayer, decl.PerLayer)
}
