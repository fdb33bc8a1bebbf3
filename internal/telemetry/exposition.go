package telemetry

import (
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
)

// The /metrics exposition is one table of metric families, rendered by one
// writer in the Prometheus text format (version 0.0.4). Sources supply rows
// and never format text; adding a metric is adding a row.

// Family is one row of the /metrics table.
type Family struct {
	Name   string
	Help   string
	Type   string   // "counter", "gauge" or "histogram"
	Labels []string // label names; every sample carries values in this order
	// Samples yields the family's samples; a family without any is omitted.
	Samples func(yield func(Sample))

	// Histogram families only. A sample's Counts[i] holds raw values v with
	// 2^(i-1) <= v < 2^i (bucketLog2), the last bucket also every larger
	// one; exposed value = raw / Scale. Continuous marks a real quantity
	// truncated to whole raw units for bucketing (bucket i holds values
	// below 2^i); otherwise raw values are integers and bucket i ends at
	// 2^i − 1. NoSum marks a quantity whose sum is not recorded.
	Scale      float64
	Continuous bool
	NoSum      bool
}

// Sample is one series of a family.
type Sample struct {
	Labels []string // values, in Family.Labels order
	Value  float64  // counter and gauge families
	Counts []uint64 // histogram families: per-bucket (not cumulative) counts
	Sum    float64  // histogram families: sum in the exposed unit
}

// Each yields one sample per element of xs.
func Each[T any](xs []T, sample func(T) Sample) func(yield func(Sample)) {
	return func(yield func(Sample)) {
		for _, x := range xs {
			yield(sample(x))
		}
	}
}

// WriteFamilies renders the families in table order.
func WriteFamilies(w io.Writer, fams []Family) error {
	var b []byte
	for _, f := range fams {
		header := "# HELP " + f.Name + " " + f.Help + "\n# TYPE " + f.Name + " " + f.Type + "\n"
		f.Samples(func(s Sample) {
			b, header = append(b, header...), "" // only a family with samples gets one
			if f.Type == "histogram" {
				b = appendHistogram(b, &f, s)
			} else {
				b = appendSeries(b, f.Name, f.Labels, s.Labels, s.Value)
			}
		})
	}
	_, err := w.Write(b)
	return err
}

// appendHistogram is the one histogram emitter: cumulative buckets with
// inclusive upper bounds, empty buckets skipped, and the clamped top bucket
// folded into +Inf since it has no finite bound.
func appendHistogram(b []byte, f *Family, s Sample) []byte {
	n := len(f.Labels)
	names := append(f.Labels[:n:n], "le")
	values := append(s.Labels[:n:n], "")
	var cum uint64
	for i, c := range s.Counts {
		cum += c
		if c == 0 || i == len(s.Counts)-1 {
			continue
		}
		bound := math.Ldexp(1, i)
		if !f.Continuous {
			bound--
		}
		values[n] = formatValue(bound / f.Scale)
		b = appendSeries(b, f.Name+"_bucket", names, values, float64(cum))
	}
	values[n] = "+Inf"
	b = appendSeries(b, f.Name+"_bucket", names, values, float64(cum))
	if !f.NoSum {
		b = appendSeries(b, f.Name+"_sum", f.Labels, s.Labels, s.Sum)
	}
	return appendSeries(b, f.Name+"_count", f.Labels, s.Labels, float64(cum))
}

// labelEscaper escapes a label value by the text-format rules: backslash,
// double quote and line feed; every other byte is literal UTF-8.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// appendSeries appends one sample line.
func appendSeries(b []byte, name string, names, values []string, v float64) []byte {
	b = append(b, name...)
	sep := "{"
	for i, l := range names {
		b = append(b, sep+l+`="`+labelEscaper.Replace(values[i])+`"`...)
		sep = ","
	}
	if len(names) > 0 {
		b = append(b, '}')
	}
	return append(append(append(b, ' '), formatValue(v)...), '\n')
}

// formatValue prints integers (counts, and any value exactly representable
// as one) in decimal and everything else in the shortest %g form.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1<<53 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// MetricsHandler serves the /metrics exposition: the recorder's families,
// the Go runtime gauges, then the families of each source in order.
// Everything is read at scrape time, never on the GEMM path; a source may
// return nil (a disabled engine).
func MetricsHandler(r *Recorder, sources ...func() []Family) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		fams := append(r.Snapshot().families(), runtimeFamilies()...)
		for _, src := range sources {
			fams = append(fams, src()...)
		}
		_ = WriteFamilies(w, fams) // a failed write means the scraper hung up; there is no one to tell
	})
}

// WritePrometheus renders the snapshot's families. Output is
// deterministic: keys appear in dense-index order.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	return WriteFamilies(w, s.families())
}

// scalar is a family with one unlabeled sample.
func scalar(name, typ, help string, v float64) Family {
	return Family{Name: name, Help: help, Type: typ, Samples: func(yield func(Sample)) { yield(Sample{Value: v}) }}
}

// events is a counter family over named events, one label naming the event.
func events(name, help, label string, evs []EventCount) Family {
	return Family{Name: name, Help: help, Type: "counter", Labels: []string{label},
		Samples: Each(evs, func(e EventCount) Sample { return Sample{Labels: []string{e.Name}, Value: float64(e.Count)} })}
}

var callLabels = []string{"precision", "mode", "shape_class", "kernel", "outcome"}

func (c CallStat) labelValues() []string {
	return []string{c.Precision, c.Mode, c.ShapeClass, c.Kernel, c.Outcome}
}

func (a AttribStat) labelValues() []string {
	return []string{a.Precision, a.Mode, a.ShapeClass, a.Kernel}
}

// families is the snapshot's table: call counters and histograms, pool and
// thread-policy state, event counters, and the serving, router, autotune
// and journal sections once they have recorded anything.
func (s Snapshot) families() []Family {
	fams := []Family{
		{Name: "libshalom_gemm_calls_total", Type: "counter", Labels: callLabels,
			Help: "GEMM calls by precision, mode, shape class, kernel path and outcome.",
			Samples: Each(s.Calls, func(c CallStat) Sample {
				return Sample{Labels: c.labelValues(), Value: float64(c.Count)}
			})},
		{Name: "libshalom_gemm_latency_seconds", Type: "histogram", Labels: callLabels, Scale: 1e9,
			Help: "GEMM call latency, log2-bucketed.",
			Samples: Each(s.Calls, func(c CallStat) Sample {
				return Sample{Labels: c.labelValues(), Counts: c.LatencyBuckets[:], Sum: float64(c.DurNs) / 1e9}
			})},
		{Name: "libshalom_gemm_gflops", Type: "histogram", Labels: callLabels, Scale: 4, Continuous: true,
			Help: "Achieved GFLOPS per call, log2-bucketed on quarter-GFLOPS.",
			Samples: Each(s.Calls, func(c CallStat) Sample {
				var n uint64
				for _, b := range c.GFLOPSBuckets {
					n += b
				}
				return Sample{Labels: c.labelValues(), Counts: c.GFLOPSBuckets[:], Sum: c.MeanGFLOPS() * float64(n)}
			})},
		scalar("libshalom_pool_tasks_queued_total", "counter", "Tasks submitted to the worker pool.", float64(s.Pool.TasksQueued)),
		scalar("libshalom_pool_tasks_started_total", "counter", "Tasks begun by pool workers.", float64(s.Pool.TasksStarted)),
		scalar("libshalom_pool_tasks_done_total", "counter", "Tasks completed by pool workers.", float64(s.Pool.TasksDone)),
		scalar("libshalom_pool_tasks_in_flight", "gauge", "Tasks started but not yet finished.", float64(s.Pool.InFlight)),
		scalar("libshalom_pool_queue_wait_seconds_total", "counter", "Summed task queue wait.", float64(s.Pool.QueueWaitNs)/1e9),
		scalar("libshalom_pool_worker_busy_seconds_total", "counter", "Summed task execution time.", float64(s.Pool.BusyNs)/1e9),
		scalar("libshalom_threads_policy_calls_total", "counter", "Calls routed through the thread policy.", float64(s.Threads.Calls)),
		scalar("libshalom_threads_requested_total", "counter", "Summed requested thread widths.", float64(s.Threads.RequestedSum)),
		scalar("libshalom_threads_chosen_total", "counter", "Summed chosen thread widths.", float64(s.Threads.ChosenSum)),
		scalar("libshalom_threads_clamped_calls_total", "counter", "Calls whose width the small-GEMM policy clamped.", float64(s.Threads.ClampedCalls)),
		events("libshalom_fault_events_total", "Fired fault-injection points.", "point", s.Faults),
		events("libshalom_degradation_events_total", "Kernel-path demotions observed by the runtime.", "reason", s.Degradations),
		events("libshalom_heal_events_total", "Self-healing events: breaker lifecycle, canary verdicts, watchdog conversions, transient retries.", "event", s.Heal),
		{Name: "libshalom_attrib_calls_total", Type: "counter", Labels: callLabels[:4], // the call key less outcome
			Help: "Clean (outcome ok) calls feeding the attribution sketch.",
			Samples: Each(s.Attrib, func(a AttribStat) Sample {
				return Sample{Labels: a.labelValues(), Value: float64(a.Count)}
			})},
		{Name: "libshalom_attrib_gflops", Type: "gauge", Labels: append(callLabels[:4:4], "stat"),
			Help: "Achieved GFLOPS from the fine attribution sketch (stat: mean, p50, p99).",
			Samples: func(yield func(Sample)) {
				for _, a := range s.Attrib {
					yield(Sample{Labels: append(a.labelValues(), "mean"), Value: a.MeanGFLOPS})
					yield(Sample{Labels: append(a.labelValues(), "p50"), Value: a.P50GFLOPS})
					yield(Sample{Labels: append(a.labelValues(), "p99"), Value: a.P99GFLOPS})
				}
			}},
		events("libshalom_attrib_drift_events_total", "Drift events the attribution engine emitted, by shape class.", "shape_class", s.AttribDrift),
		scalar("libshalom_attrib_windows_total", "counter", "Completed attribution windows.", float64(s.AttribWindows)),
		scalar("libshalom_breakers_open", "gauge", "Circuit breakers currently open (reference path in use), as observed through this recorder.", float64(s.BreakersOpen)),
		scalar("libshalom_breakers_probing", "gauge", "Circuit breakers currently probing (canary re-promotion in progress), as observed through this recorder.", float64(s.BreakersProbing)),
		scalar("libshalom_trace_spans_total", "counter", "Phase spans recorded into the trace ring.", float64(s.TraceSpans)),
		scalar("libshalom_trace_spans_dropped_total", "counter", "Spans overwritten by ring wraparound.", float64(s.TraceDropped)),
	}
	if sv := s.Server; sv.Active() {
		fams = append(fams,
			scalar("libshalom_server_requests_accepted_total", "counter", "Requests admitted into a coalescing queue.", float64(sv.Accepted)),
			scalar("libshalom_server_requests_shed_total", "counter", "Requests refused by admission control (HTTP 429).", float64(sv.Shed)),
			scalar("libshalom_server_requests_expired_total", "counter", "Admitted requests dropped before flush on an already-passed deadline.", float64(sv.Expired)),
			scalar("libshalom_server_requests_rejected_total", "counter", "Requests refused at decode time (HTTP 400).", float64(sv.Rejected)),
			scalar("libshalom_server_coalesced_requests_total", "counter", "Requests that shared a flush with at least one other request.", float64(sv.Coalesced)),
			Family{Name: "libshalom_server_batch_size", Type: "histogram", Scale: 1, NoSum: true,
				Help:    "Coalescer flush sizes, log2-bucketed.",
				Samples: func(yield func(Sample)) { yield(Sample{Counts: sv.BatchSizeBuckets[:]}) }},
			Family{Name: "libshalom_server_queue_wait_seconds", Type: "histogram", Scale: 1e9,
				Help: "Request wait in the coalescing queue, log2-bucketed.",
				Samples: func(yield func(Sample)) {
					yield(Sample{Counts: sv.QueueWaitBuckets[:], Sum: float64(sv.QueueWaitNs) / 1e9})
				}},
		)
	}
	if rt := s.Router; rt.Active() {
		fams = append(fams,
			scalar("libshalom_router_requests_forwarded_total", "counter", "Requests answered 200 off a backend.", float64(rt.Forwarded)),
			scalar("libshalom_router_attempts_total", "counter", "Forward attempts to backends (first tries, retries and hedges).", float64(rt.Attempts)),
			scalar("libshalom_router_retries_total", "counter", "Failure-triggered re-attempts on the next-preferred backend.", float64(rt.Retries)),
			scalar("libshalom_router_hedges_total", "counter", "Latency-triggered concurrent attempts on the next-preferred backend.", float64(rt.Hedges)),
			scalar("libshalom_router_requests_shed_total", "counter", "Requests the router answered 429/503 (no backend admitted them).", float64(rt.Shed)),
			scalar("libshalom_router_requests_error_total", "counter", "Requests the router answered 502/504 after exhausting retries or deadline.", float64(rt.Errors)),
			scalar("libshalom_router_requests_rejected_total", "counter", "Requests refused at the router's decode step (HTTP 400).", float64(rt.Rejected)),
			scalar("libshalom_router_ejections_total", "counter", "Backends ejected by the outlier state machine.", float64(rt.Ejections)),
			scalar("libshalom_router_readmissions_total", "counter", "Ejected backends readmitted after a successful backoff probe.", float64(rt.Readmissions)),
			scalar("libshalom_router_probes_total", "counter", "Readiness probes issued to backends.", float64(rt.Probes)),
			scalar("libshalom_router_probe_failures_total", "counter", "Readiness probes that failed (connect error or non-ready status).", float64(rt.ProbeFails)),
			scalar("libshalom_router_backends_eligible", "gauge", "Backends currently eligible for routing (healthy and ready).", float64(rt.BackendsEligible)),
			scalar("libshalom_router_backends_ejected", "gauge", "Backends currently ejected by the outlier state machine.", float64(rt.BackendsEjected)),
		)
	}
	if at := s.Autotune; at.Active() {
		fams = append(fams,
			events("libshalom_autotune_events_total", "Autotuner lifecycle events: searches, proofs, rejections, canaries, promotions, reverts.", "event", at.Events),
			scalar("libshalom_autotune_overrides", "gauge", "Tuned dispatch overrides currently installed.", float64(at.Overrides)),
		)
	}
	if jn := s.Journal; jn.Active() {
		fams = append(fams,
			scalar("libshalom_journal_records_total", "counter", "Event records appended to the request journal.", float64(jn.Records)),
			scalar("libshalom_journal_bytes_total", "counter", "Bytes appended to the request journal, frames included.", float64(jn.Bytes)),
			scalar("libshalom_journal_anchors_total", "counter", "Merkle anchors committed to the journal chain.", float64(jn.Anchors)),
			scalar("libshalom_journal_segments_sealed_total", "counter", "Journal segments closed by a sealed anchor.", float64(jn.Sealed)),
			scalar("libshalom_journal_fsyncs_total", "counter", "Explicit fsyncs of the active journal segment.", float64(jn.Fsyncs)),
		)
	}
	return fams
}
