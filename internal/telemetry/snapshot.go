package telemetry

import "libshalom/internal/faults"

// CallStat is the aggregated record of one (precision, mode, shape class,
// kernel, outcome) key with at least one observed call.
type CallStat struct {
	Precision  string `json:"precision"`
	Mode       string `json:"mode"`
	ShapeClass string `json:"shape_class"`
	Kernel     string `json:"kernel"`
	Outcome    string `json:"outcome"`

	Count uint64 `json:"count"`
	// DurNs and Flops are sums over the counted calls; Count>0 calls that
	// never ran (cancelled entries) contribute zero to both.
	DurNs uint64 `json:"dur_ns"`
	Flops uint64 `json:"flops"`
	// LatencyBuckets[i] counts calls with duration in [2^(i-1), 2^i) ns;
	// GFLOPSBuckets[i] counts calls achieving [2^(i-1)/4, 2^i/4) GFLOPS.
	LatencyBuckets [NumLatencyBuckets]uint64 `json:"latency_buckets"`
	GFLOPSBuckets  [NumGFLOPSBuckets]uint64  `json:"gflops_buckets"`
}

// MeanGFLOPS returns the time-weighted mean achieved rate of the key.
func (s CallStat) MeanGFLOPS() float64 {
	if s.DurNs == 0 {
		return 0
	}
	return float64(s.Flops) / float64(s.DurNs)
}

// EventCount is one named event counter (fault point or degradation reason).
type EventCount struct {
	Name  string `json:"name"`
	Count uint64 `json:"count"`
}

// Snapshot is a consistent-enough copy of a Recorder's state: counters are
// read atomically, so concurrent calls may be torn across keys but never
// within one, and every completed call is visible to a later snapshot.
type Snapshot struct {
	Calls []CallStat `json:"calls"`
	// Counters holds every scalar counter and gauge of the counter table:
	// pool and thread policy, breaker gauges, attribution windows, and the
	// server, router, autotune and journal sections.
	Counters Counters     `json:"counters"`
	Faults   []EventCount `json:"faults,omitempty"`
	// Degradations counts demotion events the runtime observed (by reason);
	// the guard registry remains the source of truth for current state.
	Degradations []EventCount `json:"degradations,omitempty"`
	// Heal counts self-healing events: breaker opens/probes/closes, canary
	// runs and verdicts, watchdog conversions and transient retries.
	Heal []EventCount `json:"heal,omitempty"`
	// TraceSpans/TraceDropped report ring-buffer occupancy: spans ever
	// recorded and spans overwritten by newer ones.
	TraceSpans   uint64 `json:"trace_spans"`
	TraceDropped uint64 `json:"trace_dropped"`
	// Attrib summarises the fine attribution sketch per (precision, mode,
	// shape class, kernel); AttribDrift counts drift events per shape class
	// (fed back by internal/attrib, empty when no engine is attached).
	Attrib      []AttribStat `json:"attrib,omitempty"`
	AttribDrift []EventCount `json:"attrib_drift,omitempty"`
	// Server is the serving-layer histogram section (batch sizes, queue
	// wait); zero outside a serving process.
	Server ServerStats `json:"server"`
	// Autotune is the autotuner event section (searches, proofs,
	// promotions, reverts); empty when the tuning loop is off.
	Autotune AutotuneStats `json:"autotune"`
}

// Snapshot aggregates the recorder into an exposition-ready value. A nil
// recorder yields the zero Snapshot.
func (r *Recorder) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	for idx := 0; idx < numKeys; idx++ {
		var count uint64
		for sh := range r.shards {
			count += r.shards[sh].calls[idx].Load()
		}
		if count == 0 {
			continue
		}
		prec, mode, class, kernel, outcome := unpackKey(idx)
		st := CallStat{
			Precision:  precNames[prec],
			Mode:       modeNames[mode],
			ShapeClass: ShapeClass(class).String(),
			Kernel:     kernelNames[kernel],
			Outcome:    outcomeNames[outcome],
			Count:      count,
			DurNs:      r.durNs[idx].Load(),
			Flops:      r.flops[idx].Load(),
		}
		for b := range st.LatencyBuckets {
			st.LatencyBuckets[b] = r.latHist[idx][b].Load()
		}
		for b := range st.GFLOPSBuckets {
			st.GFLOPSBuckets[b] = r.gfHist[idx][b].Load()
		}
		s.Calls = append(s.Calls, st)
	}
	for c := range s.Counters {
		s.Counters[c] = r.counters[c].Load()
	}
	for p := 0; p < faults.NumPoints; p++ {
		if c := r.faultEvents[p].Load(); c > 0 {
			s.Faults = append(s.Faults, EventCount{Name: faults.Point(p).String(), Count: c})
		}
	}
	for d := uint8(0); d < numDegrReasons; d++ {
		if c := r.degrEvents[d].Load(); c > 0 {
			s.Degradations = append(s.Degradations, EventCount{Name: degrNames[d], Count: c})
		}
	}
	for h := uint8(0); h < numHealEvents; h++ {
		if c := r.healEvents[h].Load(); c > 0 {
			s.Heal = append(s.Heal, EventCount{Name: healNames[h], Count: c})
		}
	}
	s.Attrib, s.AttribDrift = r.attribSnapshot()
	s.Server = r.serverSnapshot()
	s.Autotune = r.autotuneSnapshot()
	if r.trace != nil {
		r.trace.mu.Lock()
		s.TraceSpans = r.trace.written
		if over := r.trace.written - uint64(len(r.trace.buf)); over > 0 {
			s.TraceDropped = over
		}
		r.trace.mu.Unlock()
	}
	return s
}

func unpackKey(idx int) (prec, mode, class, kernel, outcome uint8) {
	outcome = uint8(idx % int(numOutcome))
	idx /= int(numOutcome)
	kernel = uint8(idx % int(numKernel))
	idx /= int(numKernel)
	class = uint8(idx % int(numShapeClasses))
	idx /= int(numShapeClasses)
	mode = uint8(idx % numMode)
	idx /= numMode
	prec = uint8(idx)
	return
}

// HealCount returns the count of one named self-healing event (zero when
// the event never fired).
func (s Snapshot) HealCount(name string) uint64 {
	for _, e := range s.Heal {
		if e.Name == name {
			return e.Count
		}
	}
	return 0
}

// KernelCalls sums call counts for one kernel-path label ("fast" or "ref"),
// the counter pair the healing acceptance tests read to prove the fast path
// is measurably back in use after a breaker closes.
func (s Snapshot) KernelCalls(kernel string) uint64 {
	var total uint64
	for _, c := range s.Calls {
		if c.Kernel == kernel {
			total += c.Count
		}
	}
	return total
}

// CallsTotal sums call counts across every key, optionally filtered by
// shape class name ("" matches all).
func (s Snapshot) CallsTotal(shapeClass string) uint64 {
	var total uint64
	for _, c := range s.Calls {
		if shapeClass == "" || c.ShapeClass == shapeClass {
			total += c.Count
		}
	}
	return total
}
