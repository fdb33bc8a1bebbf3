package telemetry

// Autotuner metrics. The traffic-adaptive tuning loop (internal/autotune)
// reports its lifecycle here — searches launched, candidates proved and
// rejected, canary installations, promotions and reverts — so one /metrics
// scrape shows how the kernel catalogue is evolving next to the serving
// counters it optimizes. The installed-overrides gauge is the
// AutotuneOverrides row of the counter table.

// Autotune event kinds, in lifecycle order.
const (
	// TuneSearch: one class search launched (candidate enumeration + model
	// scoring).
	TuneSearch uint8 = iota
	// TuneProved: a candidate cleared the full proof gate (isacheck contract
	// + symbolic family proof + vexec-vs-reference validation).
	TuneProved
	// TuneRejected: a class search ended with no candidate worth promoting
	// (none beat the incumbent's modeled throughput by the margin, or none
	// survived the proof gate).
	TuneRejected
	// TuneCanary: a proved candidate was installed as a dispatch override
	// behind a probing breaker (serving canary-shadowed traffic).
	TuneCanary
	// TunePromoted: the candidate's breaker closed — the tuned tile now
	// serves its class unshadowed.
	TunePromoted
	// TuneReverted: the candidate's breaker tripped (or an operator cleared
	// the override) — the incumbent tile was restored.
	TuneReverted
	numTuneEvents
)

var tuneNames = [numTuneEvents]string{
	"search", "proved", "rejected", "canary", "promoted", "reverted",
}

// TuneEvent counts one autotuner lifecycle event.
//
//shalom:hotpath noalloc,nolock,noblock
func (r *Recorder) TuneEvent(kind uint8) {
	if r == nil || kind >= numTuneEvents {
		return
	}
	probeAtomicWrite()
	r.tuneEvents[kind].Add(1)
}

// AutotuneStats is the autotuner event section of a Snapshot; the
// installed-overrides gauge is the AutotuneOverrides counter.
type AutotuneStats struct {
	// Events counts autotuner lifecycle events by kind (search, proved,
	// rejected, canary, promoted, reverted); only fired kinds appear.
	Events []EventCount `json:"events,omitempty"`
}

// Count returns the count of one named autotune event (zero if it never
// fired).
func (s AutotuneStats) Count(name string) uint64 {
	for _, e := range s.Events {
		if e.Name == name {
			return e.Count
		}
	}
	return 0
}

// autotuneSnapshot reads the autotuner events.
func (r *Recorder) autotuneSnapshot() AutotuneStats {
	var s AutotuneStats
	for k := uint8(0); k < numTuneEvents; k++ {
		if c := r.tuneEvents[k].Load(); c > 0 {
			s.Events = append(s.Events, EventCount{Name: tuneNames[k], Count: c})
		}
	}
	return s
}
