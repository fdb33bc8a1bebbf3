package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the library or the service sees,
// printed by every untraced run. Latencies are per API call on the library
// workloads and per request on serve, where lat_p50_us is taken in the
// `low` phase and lat_p90_us in the `high` phase; ops_per_s is GEMMs per
// second of call time on the library workloads and the closed-loop request
// capacity at two connections on serve.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "op/s"},
	{"gflops", "GFLOP/s"},
	{"lat_p50_us", "us"},
	{"lat_p90_us", "us"},
	{"heap_live_mb", "MB"},
}

// perLayer are the metrics of single layers, printed by every traced run. A
// layer the workload does not pass through reports 0.
var perLayer = []metricDef{
	{"libshalom.overhead_ns", "ns"},
	{"analytic.plan_ns", "ns"},
	{"analytic.plan_share", "ratio"},
	{"guard.dispatch_ns", "ns"},
	{"guard.degraded_ops", "count"},
	{"core.call_us.p50", "us"},
	{"core.vs_ikj", "ratio"},
	{"core.vs_ref", "ratio"},
	{"core.batch_entry_ns", "ns"},
	{"core.batch_gain", "ratio"},
	{"kernels.micro_gflops", "GFLOP/s"},
	{"kernels.micro_nt_gflops", "GFLOP/s"},
	{"kernels.edge_flop_share", "ratio"},
	{"kernels.flops_per_byte", "flop/B"},
	{"pack.gbps", "GB/s"},
	{"pack.share", "ratio"},
	{"pack.packed_op_share", "ratio"},
	{"parallel.run_overhead_us", "us"},
	{"parallel.scaling_eff", "ratio"},
	{"parallel.block_imbalance", "ratio"},
	{"server.decode_us", "us"},
	{"server.handler_us.p50", "us"},
	{"server.handler_us.p99", "us"},
	{"server.queue_wait_us.p50", "us"},
	{"server.queue_wait_us.p99", "us"},
	{"server.batch_size_mean", "count"},
	{"server.shed_share", "ratio"},
	{"server.timeout_share", "ratio"},
	{"router.hop_us.p50", "us"},
	{"router.hop_us.p99", "us"},
	{"router.attempts_mean", "count"},
	{"client.residual_us.p50", "us"},
	{"telemetry.overhead_ns", "ns"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.alloc_bytes_per_op", "B"},
	{"runtime.gc_pause_p99_us", "us"},
	{"loadgen.lag_p99_us", "us"},
	{"trace.overhead_share", "ratio"},
	{"fail_share", "ratio"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what one run measured.
type outcome struct {
	attempted, failed int
	values            map[string]float64 // by metric name
	// record holds the run's detail for the result file: sample counts,
	// percentiles the printed metrics leave out, phase figures.
	record map[string]any
}

func newOutcome() *outcome {
	return &outcome{values: map[string]float64{}, record: map[string]any{}}
}

// emit builds the printed metric set from defs, failing on a metric the run
// did not produce (a benchmark bug) or one that is not a finite number.
func (o *outcome) emit(defs []metricDef) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := o.values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	return out, nil
}

// rtSample is a runtime/metrics reading.
type rtSample struct {
	allocObjects, allocBytes uint64
	pauses                   *metrics.Float64Histogram
}

const (
	rtAllocObjects = "/gc/heap/allocs:objects"
	rtAllocBytes   = "/gc/heap/allocs:bytes"
	rtPauses       = "/sched/pauses/total/gc:seconds"
	rtHeapLive     = "/gc/heap/live:bytes"
)

func readRuntime() rtSample {
	s := []metrics.Sample{{Name: rtAllocObjects}, {Name: rtAllocBytes}, {Name: rtPauses}}
	metrics.Read(s)
	r := rtSample{allocObjects: s[0].Value.Uint64(), allocBytes: s[1].Value.Uint64()}
	if s[2].Value.Kind() == metrics.KindFloat64Histogram {
		r.pauses = s[2].Value.Float64Histogram()
	}
	return r
}

// gcPauseP99 is the p99 of the GC pauses between two readings, in µs, from
// the histogram bucket bounds (0 when no collection paused the world).
func gcPauseP99(before, after rtSample) float64 {
	if before.pauses == nil || after.pauses == nil {
		return 0
	}
	counts := make([]uint64, len(after.pauses.Counts))
	var total uint64
	for i, c := range after.pauses.Counts {
		counts[i] = c - before.pauses.Counts[i]
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	need := uint64(math.Ceil(0.99 * float64(total)))
	var seen uint64
	for i, c := range counts {
		seen += c
		if seen >= need {
			hi := after.pauses.Buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = after.pauses.Buckets[i]
			}
			return hi * 1e6
		}
	}
	return 0
}

// runtimeMetrics records the runtime/metrics deltas of a timed phase.
func (o *outcome) runtimeMetrics(before, after rtSample, ops int) {
	o.values["runtime.allocs_per_op"] = ratio(float64(after.allocObjects-before.allocObjects), float64(ops))
	o.values["runtime.alloc_bytes_per_op"] = ratio(float64(after.allocBytes-before.allocBytes), float64(ops))
	o.values["runtime.gc_pause_p99_us"] = gcPauseP99(before, after)
}

// heapLive samples the live Go heap — the bytes the latest collection found
// reachable — at most every heapSampleEvery, so sampling stays a small cost
// beside the timed work. Its figure is the median sample: the heap between
// collections, and so any peak, depends on when the collector happens to
// run, where the live heap does not. The figure holds the benchmark's inputs
// and the program's heap, and nothing whose size depends on how fast the
// program runs: every buffer the benchmark writes while sampling is made
// before the heapLive. The baseline, read after a collection when the
// heapLive is made, once the inputs exist and before the program is set
// up, splits the two.
type heapLive struct {
	last    time.Time
	base    float64
	samples []float64 // capacity fixed when made, so sampling does not grow the heap
	s       []metrics.Sample
}

const heapSampleEvery = 2 * time.Millisecond

// newHeapLive makes a sampler for a timed phase of up to seconds.
func newHeapLive(seconds float64) *heapLive {
	h := &heapLive{
		samples: make([]float64, 0, int(2*seconds*float64(time.Second/heapSampleEvery))+16),
		s:       []metrics.Sample{{Name: rtHeapLive}},
	}
	runtime.GC()
	metrics.Read(h.s)
	h.base = float64(h.s[0].Value.Uint64())
	return h
}

func (h *heapLive) observe(now time.Time) {
	if now.Sub(h.last) < heapSampleEvery || len(h.samples) == cap(h.samples) {
		return
	}
	h.last = now
	metrics.Read(h.s)
	h.samples = append(h.samples, float64(h.s[0].Value.Uint64()))
}

func (h *heapLive) mb() float64 { return quantile(h.samples, 0.5) / (1 << 20) }

// record puts the baseline (the benchmark's inputs) and the program's share
// of the figure in the result record.
func (h *heapLive) record(o *outcome) {
	o.record["heap_inputs_mb"] = h.base / (1 << 20)
	o.record["heap_program_mb"] = h.mb() - h.base/(1<<20)
}

// quantile is the nearest-rank q-quantile of vals (which it sorts).
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	i := int(math.Ceil(q*float64(len(vals)))) - 1
	return vals[min(max(i, 0), len(vals)-1)]
}

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var s float64
	for _, v := range vals {
		s += v
	}
	return s / float64(len(vals))
}

// ratio is a/b, or 0 when b is 0 (the layer did no work on the workload).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
