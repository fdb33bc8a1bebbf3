package telemetry

import (
	"encoding/json"
	"math"
)

// Every scalar counter and gauge the Recorder keeps is one row of one
// table: a Counter constant indexes both the Recorder's storage array and
// the row that names, types and documents it. The recording side bumps a
// row with Add or Set; the exposition side renders each section's rows in
// table order, and /snapshot keys them by the same family names. Adding a
// scalar metric is adding a constant and a row.

// Counter names one scalar counter or gauge.
type Counter uint8

// The counters, grouped by section in exposition order.
const (
	// Worker pool (fed through the parallel.Observer interface).
	PoolTasksQueued Counter = iota
	PoolTasksStarted
	PoolTasksDone
	PoolTasksInFlight
	PoolQueueWait  // nanoseconds
	PoolWorkerBusy // nanoseconds

	// §7.4 thread policy.
	ThreadsPolicyCalls
	ThreadsRequested
	ThreadsChosen
	ThreadsClampedCalls

	// Attribution windows (fed back by internal/attrib) and the breaker
	// state gauges as observed through this recorder's transitions.
	AttribWindows
	BreakersOpen
	BreakersProbing

	// Serving layer (internal/server).
	ServerAccepted
	ServerShed
	ServerExpired
	ServerRejected
	ServerFlushes
	ServerCoalesced

	// Router tier (internal/router).
	RouterForwarded
	RouterAttempts
	RouterRetries
	RouterHedges
	RouterShed
	RouterErrors
	RouterRejected
	RouterEjections
	RouterReadmissions
	RouterProbes
	RouterProbeFailures
	RouterBackendsEligible
	RouterBackendsEjected

	// Autotuner (internal/autotune).
	AutotuneOverrides

	// Request journal (internal/journal).
	JournalRecords
	JournalBytes
	JournalAnchors
	JournalSegmentsSealed
	JournalFsyncs

	NumCounters
)

// section groups the rows that render together. The pool and health
// sections are always exposed; the others only once a gating row moved.
type section uint8

const (
	secPool section = iota
	secHealth
	secServer
	secRouter
	secAutotune
	secJournal
)

// counterRow describes one Counter.
type counterRow struct {
	sec  section
	typ  string // "counter" or "gauge"
	name string // /metrics family and /snapshot key; "" records without exporting
	help string
	// scale converts the raw value to the exposed unit (value / scale); 0
	// exposes the raw value.
	scale float64
	// gates: a nonzero value makes the section's families appear.
	gates bool
}

var counters = [NumCounters]counterRow{
	PoolTasksQueued:     {sec: secPool, typ: "counter", name: "libshalom_pool_tasks_queued_total", help: "Tasks submitted to the worker pool."},
	PoolTasksStarted:    {sec: secPool, typ: "counter", name: "libshalom_pool_tasks_started_total", help: "Tasks begun by pool workers."},
	PoolTasksDone:       {sec: secPool, typ: "counter", name: "libshalom_pool_tasks_done_total", help: "Tasks completed by pool workers."},
	PoolTasksInFlight:   {sec: secPool, typ: "gauge", name: "libshalom_pool_tasks_in_flight", help: "Tasks started but not yet finished."},
	PoolQueueWait:       {sec: secPool, typ: "counter", name: "libshalom_pool_queue_wait_seconds_total", help: "Summed task queue wait.", scale: 1e9},
	PoolWorkerBusy:      {sec: secPool, typ: "counter", name: "libshalom_pool_worker_busy_seconds_total", help: "Summed task execution time.", scale: 1e9},
	ThreadsPolicyCalls:  {sec: secPool, typ: "counter", name: "libshalom_threads_policy_calls_total", help: "Calls routed through the thread policy."},
	ThreadsRequested:    {sec: secPool, typ: "counter", name: "libshalom_threads_requested_total", help: "Summed requested thread widths."},
	ThreadsChosen:       {sec: secPool, typ: "counter", name: "libshalom_threads_chosen_total", help: "Summed chosen thread widths."},
	ThreadsClampedCalls: {sec: secPool, typ: "counter", name: "libshalom_threads_clamped_calls_total", help: "Calls whose width the small-GEMM policy clamped."},

	AttribWindows:   {sec: secHealth, typ: "counter", name: "libshalom_attrib_windows_total", help: "Completed attribution windows."},
	BreakersOpen:    {sec: secHealth, typ: "gauge", name: "libshalom_breakers_open", help: "Circuit breakers currently open (reference path in use), as observed through this recorder."},
	BreakersProbing: {sec: secHealth, typ: "gauge", name: "libshalom_breakers_probing", help: "Circuit breakers currently probing (canary re-promotion in progress), as observed through this recorder."},

	ServerAccepted: {sec: secServer, typ: "counter", gates: true, name: "libshalom_server_requests_accepted_total", help: "Requests admitted into a coalescing queue."},
	ServerShed:     {sec: secServer, typ: "counter", gates: true, name: "libshalom_server_requests_shed_total", help: "Requests refused by admission control (HTTP 429)."},
	ServerExpired:  {sec: secServer, typ: "counter", gates: true, name: "libshalom_server_requests_expired_total", help: "Admitted requests dropped before flush on an already-passed deadline."},
	ServerRejected: {sec: secServer, typ: "counter", gates: true, name: "libshalom_server_requests_rejected_total", help: "Requests refused at decode time (HTTP 400)."},
	// Coalescer flushes gate the section but are not a family: the batch
	// size histogram's count already carries them.
	ServerFlushes:   {sec: secServer, typ: "counter", gates: true},
	ServerCoalesced: {sec: secServer, typ: "counter", name: "libshalom_server_coalesced_requests_total", help: "Requests that shared a flush with at least one other request."},

	RouterForwarded:        {sec: secRouter, typ: "counter", name: "libshalom_router_requests_forwarded_total", help: "Requests answered 200 off a backend."},
	RouterAttempts:         {sec: secRouter, typ: "counter", gates: true, name: "libshalom_router_attempts_total", help: "Forward attempts to backends (first tries, retries and hedges)."},
	RouterRetries:          {sec: secRouter, typ: "counter", name: "libshalom_router_retries_total", help: "Failure-triggered re-attempts on the next-preferred backend."},
	RouterHedges:           {sec: secRouter, typ: "counter", name: "libshalom_router_hedges_total", help: "Latency-triggered concurrent attempts on the next-preferred backend."},
	RouterShed:             {sec: secRouter, typ: "counter", gates: true, name: "libshalom_router_requests_shed_total", help: "Requests the router answered 429/503 (no backend admitted them)."},
	RouterErrors:           {sec: secRouter, typ: "counter", name: "libshalom_router_requests_error_total", help: "Requests the router answered 502/504 after exhausting retries or deadline."},
	RouterRejected:         {sec: secRouter, typ: "counter", gates: true, name: "libshalom_router_requests_rejected_total", help: "Requests refused at the router's decode step (HTTP 400)."},
	RouterEjections:        {sec: secRouter, typ: "counter", name: "libshalom_router_ejections_total", help: "Backends ejected by the outlier state machine."},
	RouterReadmissions:     {sec: secRouter, typ: "counter", name: "libshalom_router_readmissions_total", help: "Ejected backends readmitted after a successful backoff probe."},
	RouterProbes:           {sec: secRouter, typ: "counter", gates: true, name: "libshalom_router_probes_total", help: "Readiness probes issued to backends."},
	RouterProbeFailures:    {sec: secRouter, typ: "counter", name: "libshalom_router_probe_failures_total", help: "Readiness probes that failed (connect error or non-ready status)."},
	RouterBackendsEligible: {sec: secRouter, typ: "gauge", name: "libshalom_router_backends_eligible", help: "Backends currently eligible for routing (healthy and ready)."},
	RouterBackendsEjected:  {sec: secRouter, typ: "gauge", name: "libshalom_router_backends_ejected", help: "Backends currently ejected by the outlier state machine."},

	AutotuneOverrides: {sec: secAutotune, typ: "gauge", gates: true, name: "libshalom_autotune_overrides", help: "Tuned dispatch overrides currently installed."},

	JournalRecords:        {sec: secJournal, typ: "counter", gates: true, name: "libshalom_journal_records_total", help: "Event records appended to the request journal."},
	JournalBytes:          {sec: secJournal, typ: "counter", name: "libshalom_journal_bytes_total", help: "Bytes appended to the request journal, frames included."},
	JournalAnchors:        {sec: secJournal, typ: "counter", gates: true, name: "libshalom_journal_anchors_total", help: "Merkle anchors committed to the journal chain."},
	JournalSegmentsSealed: {sec: secJournal, typ: "counter", name: "libshalom_journal_segments_sealed_total", help: "Journal segments closed by a sealed anchor."},
	JournalFsyncs:         {sec: secJournal, typ: "counter", name: "libshalom_journal_fsyncs_total", help: "Explicit fsyncs of the active journal segment."},
}

// Add moves counter c by delta (a gauge moves either way).
//
//shalom:hotpath noalloc,nolock,noblock
func (r *Recorder) Add(c Counter, delta int64) {
	if r == nil || c >= NumCounters {
		return
	}
	probeAtomicWrite()
	r.counters[c].Add(delta)
}

// Set stores v into gauge c.
//
//shalom:hotpath noalloc,nolock,noblock
func (r *Recorder) Set(c Counter, v int64) {
	if r == nil || c >= NumCounters {
		return
	}
	probeAtomicWrite()
	r.counters[c].Store(v)
}

// Counters is one raw value per Counter in a Snapshot. Its JSON form is an
// object keyed by /metrics family name, in the exposed unit.
type Counters [NumCounters]int64

// value returns c's value in its exposed unit.
func (cs *Counters) value(c Counter) float64 {
	if s := counters[c].scale; s != 0 {
		return float64(cs[c]) / s
	}
	return float64(cs[c])
}

// active reports whether a gating row of sec has moved.
func (cs *Counters) active(sec section) bool {
	for c, row := range &counters {
		if row.sec == sec && row.gates && cs[c] != 0 {
			return true
		}
	}
	return false
}

// families renders the exported rows of sec, in table order.
func (cs *Counters) families(sec section) []Family {
	var fams []Family
	for c, row := range &counters {
		if row.sec == sec && row.name != "" {
			fams = append(fams, scalar(row.name, row.typ, row.help, cs.value(Counter(c))))
		}
	}
	return fams
}

// MarshalJSON writes the exported counters keyed by family name.
func (cs Counters) MarshalJSON() ([]byte, error) {
	m := make(map[string]float64, NumCounters)
	for c, row := range &counters {
		if row.name != "" {
			m[row.name] = cs.value(Counter(c))
		}
	}
	return json.Marshal(m)
}

// UnmarshalJSON reads what MarshalJSON wrote back into raw values.
func (cs *Counters) UnmarshalJSON(b []byte) error {
	var m map[string]float64
	if err := json.Unmarshal(b, &m); err != nil {
		return err
	}
	for c, row := range &counters {
		v := m[row.name]
		if row.scale != 0 {
			v *= row.scale
		}
		cs[c] = int64(math.Round(v))
	}
	return nil
}
