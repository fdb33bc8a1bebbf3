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
