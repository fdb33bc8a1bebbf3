package telemetry

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

// Prometheus reads a bucket's le as an inclusive bound: every finite bucket
// must count exactly the observations at or below its le, including values
// on a power-of-two edge and values past the clamped top bucket.
func TestHistogramBoundsInclusive(t *testing.T) {
	r := New(Options{})
	sizes := []int{1, 1, 2, 3, 4, 1 << 20}
	waits := []int64{0, 1023, 1024, 1025, 20e9}
	for _, n := range sizes {
		r.ServerFlush(n)
	}
	for _, ns := range waits {
		r.ServerQueueWait(ns)
	}
	var buf bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	check := func(family string, scale float64, obs []float64) {
		t.Helper()
		prefix := family + `_bucket{le="`
		buckets := 0
		for _, line := range strings.Split(out, "\n") {
			rest, ok := strings.CutPrefix(line, prefix)
			if !ok {
				continue
			}
			le, count, _ := strings.Cut(rest, `"} `)
			bound, err := strconv.ParseFloat(le, 64)
			if err != nil {
				t.Fatalf("%s: bad le in %q", family, line)
			}
			want := 0
			for _, o := range obs {
				if o/scale <= bound {
					want++
				}
			}
			if count != strconv.Itoa(want) {
				t.Errorf("%s: %q counts %s, want %d observations <= %s", family, line, count, want, le)
			}
			buckets++
		}
		if buckets < 3 {
			t.Fatalf("%s: %d bucket lines in:\n%s", family, buckets, out)
		}
	}
	check("libshalom_server_batch_size", 1, []float64{1, 1, 2, 3, 4, 1 << 20})
	check("libshalom_server_queue_wait_seconds", 1e9, []float64{0, 1023, 1024, 1025, 20e9})
}

// Label values are escaped by the text-format rules (backslash, double
// quote, line feed), not by Go quoting: other bytes stay literal.
func TestLabelValueEscaping(t *testing.T) {
	fam := Family{Name: "x", Help: "h", Type: "gauge", Labels: []string{"v"},
		Samples: func(yield func(Sample)) { yield(Sample{Labels: []string{"a\\b\"c\nd\té"}, Value: 0.5}) }}
	var buf bytes.Buffer
	if err := WriteFamilies(&buf, []Family{fam}); err != nil {
		t.Fatal(err)
	}
	want := "# HELP x h\n# TYPE x gauge\nx{v=\"a\\\\b\\\"c\\nd\té\"} 0.5\n"
	if buf.String() != want {
		t.Fatalf("got %q, want %q", buf.String(), want)
	}
}

// The server, router, journal and autotune sections stay out of the
// exposition until one of their activating counters moves; moving only a
// non-activating one (a gauge, a follow-on counter, a histogram) keeps the
// section hidden.
func TestSectionVisibility(t *testing.T) {
	sections := []string{"libshalom_server_", "libshalom_router_", "libshalom_journal_", "libshalom_autotune_"}
	expose := func(r *Recorder) string {
		t.Helper()
		var buf bytes.Buffer
		if err := r.Snapshot().WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	fresh := expose(New(Options{}))
	for _, sec := range sections {
		if strings.Contains(fresh, sec) {
			t.Fatalf("fresh recorder exposes a %s family:\n%s", sec, fresh)
		}
	}
	cases := []struct {
		name    string
		move    func(r *Recorder)
		section string // "" keeps every section hidden
	}{
		{"server accepted", func(r *Recorder) { r.Add(ServerAccepted, 1) }, "libshalom_server_"},
		{"server shed", func(r *Recorder) { r.Add(ServerShed, 1) }, "libshalom_server_"},
		{"server expired", func(r *Recorder) { r.Add(ServerExpired, 1) }, "libshalom_server_"},
		{"server rejected", func(r *Recorder) { r.Add(ServerRejected, 1) }, "libshalom_server_"},
		{"server flush", func(r *Recorder) { r.ServerFlush(1) }, "libshalom_server_"},
		{"server queue wait", func(r *Recorder) { r.ServerQueueWait(1000) }, ""},
		{"router attempt", func(r *Recorder) { r.Add(RouterAttempts, 1) }, "libshalom_router_"},
		{"router probe", func(r *Recorder) { r.Add(RouterProbes, 1) }, "libshalom_router_"},
		{"router failed probe", func(r *Recorder) { r.Add(RouterProbes, 1); r.Add(RouterProbeFailures, 1) }, "libshalom_router_"},
		{"router rejected", func(r *Recorder) { r.Add(RouterRejected, 1) }, "libshalom_router_"},
		{"router shed", func(r *Recorder) { r.Add(RouterShed, 1) }, "libshalom_router_"},
		{"router forwarded", func(r *Recorder) { r.Add(RouterForwarded, 1) }, ""},
		{"router retry", func(r *Recorder) { r.Add(RouterRetries, 1) }, ""},
		{"router hedge", func(r *Recorder) { r.Add(RouterHedges, 1) }, ""},
		{"router error", func(r *Recorder) { r.Add(RouterErrors, 1) }, ""},
		{"router ejection", func(r *Recorder) { r.Add(RouterEjections, 1) }, ""},
		{"router readmission", func(r *Recorder) { r.Add(RouterReadmissions, 1) }, ""},
		{"router backends", func(r *Recorder) { r.Set(RouterBackendsEligible, 2); r.Set(RouterBackendsEjected, 1) }, ""},
		{"journal record", func(r *Recorder) { r.Add(JournalRecords, 1); r.Add(JournalBytes, 64) }, "libshalom_journal_"},
		{"journal anchor", func(r *Recorder) { r.Add(JournalAnchors, 1); r.Add(JournalBytes, 64) }, "libshalom_journal_"},
		{"journal segment sealed", func(r *Recorder) { r.Add(JournalSegmentsSealed, 1) }, ""},
		{"journal fsync", func(r *Recorder) { r.Add(JournalFsyncs, 1) }, ""},
		{"autotune event", func(r *Recorder) { r.TuneEvent(TuneSearch) }, "libshalom_autotune_"},
		{"autotune overrides", func(r *Recorder) { r.Add(AutotuneOverrides, 1) }, "libshalom_autotune_"},
	}
	for _, c := range cases {
		r := New(Options{})
		c.move(r)
		out := expose(r)
		for _, sec := range sections {
			if got, want := strings.Contains(out, sec), sec == c.section; got != want {
				t.Errorf("%s: %s families present = %v, want %v", c.name, sec, got, want)
			}
		}
	}
}
