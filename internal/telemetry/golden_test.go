package telemetry

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// checkGolden compares got with testdata/name; -update rewrites the file.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("exposition differs from %s (rerun with -update to accept):\n%s", path, got)
	}
}

// goldenSnapshot populates every section of a Snapshot, so every family the
// exposition can emit has samples: the top (clamped) bucket of each
// histogram is occupied, and the pool counters carry nanosecond sums.
func goldenSnapshot() Snapshot {
	var s Snapshot
	small := CallStat{Precision: "f32", Mode: "NN", ShapeClass: "small", Kernel: "fast", Outcome: "ok",
		Count: 7, DurNs: 52_000, Flops: 917_504}
	small.LatencyBuckets[12] = 4 // [2048, 4096) ns
	small.LatencyBuckets[14] = 2
	small.LatencyBuckets[NumLatencyBuckets-1] = 1
	small.GFLOPSBuckets[0] = 1
	small.GFLOPSBuckets[5] = 5
	small.GFLOPSBuckets[NumGFLOPSBuckets-1] = 1
	ref := CallStat{Precision: "f64", Mode: "TN", ShapeClass: "irregular", Kernel: "ref", Outcome: "degraded",
		Count: 2, DurNs: 3_000_000, Flops: 4_000_000}
	ref.LatencyBuckets[21] = 2
	ref.GFLOPSBuckets[3] = 2
	s.Calls = []CallStat{small, ref}
	s.Pool = PoolStats{TasksQueued: 40, TasksStarted: 39, TasksDone: 38, InFlight: 1,
		QueueWaitNs: 1_500_000, BusyNs: 2_250_000_000}
	s.Threads = ThreadStats{Calls: 9, RequestedSum: 36, ChosenSum: 12, ClampedCalls: 6}
	s.Faults = []EventCount{{Name: "panic-in-kernel", Count: 2}, {Name: "slow-worker", Count: 1}}
	s.Degradations = []EventCount{{Name: "runtime-panic", Count: 2}}
	s.Heal = []EventCount{{Name: "breaker-open", Count: 1}, {Name: "canary-pass", Count: 3}}
	s.BreakersOpen, s.BreakersProbing = 1, 0
	s.TraceSpans, s.TraceDropped = 9000, 808
	s.Attrib = []AttribStat{
		{Precision: "f32", Mode: "NN", ShapeClass: "small", Kernel: "fast", Count: 6,
			MeanGFLOPS: 17.6, P50GFLOPS: 16.5, P99GFLOPS: 21.25},
		{Precision: "f64", Mode: "NT", ShapeClass: "tiny", Kernel: "fast", Count: 3,
			MeanGFLOPS: 0.375, P50GFLOPS: 0.5, P99GFLOPS: 0.625},
	}
	s.AttribDrift = []EventCount{{Name: "small", Count: 2}}
	s.AttribWindows = 11
	s.Server = ServerStats{Accepted: 20, Shed: 3, Expired: 1, Rejected: 2, Flushes: 12, Coalesced: 10,
		QueueWaitNs: 20_000_180_000, WaitedReqs: 19}
	s.Server.BatchSizeBuckets[1] = 8 // size 1
	s.Server.BatchSizeBuckets[2] = 3 // size 2 or 3
	s.Server.BatchSizeBuckets[NumBatchSizeBuckets-1] = 1
	s.Server.QueueWaitBuckets[0] = 2   // 0 ns
	s.Server.QueueWaitBuckets[14] = 16 // [8192, 16384) ns
	s.Server.QueueWaitBuckets[NumLatencyBuckets-1] = 1
	s.Router = RouterStats{Forwarded: 30, Attempts: 34, Retries: 3, Hedges: 1, Shed: 2, Errors: 1, Rejected: 1,
		Ejections: 1, Readmissions: 1, Probes: 50, ProbeFails: 4, BackendsEligible: 2, BackendsEjected: 1}
	s.Autotune = AutotuneStats{Events: []EventCount{{Name: "search", Count: 2}, {Name: "promoted", Count: 1}}, Overrides: 1}
	s.Journal = JournalStats{Records: 120, Bytes: 98_304, Anchors: 4, Sealed: 1, Fsyncs: 5}
	return s
}

// runtimeValue masks the Go runtime gauges, whose values belong to the
// test process rather than to the fixed input.
var runtimeValue = regexp.MustCompile(`(?m)^(libshalom_go_[a-z0-9_]+) .*$`)

// The fully populated recorder exposition, with the runtime gauges masked,
// is pinned byte for byte.
func TestExpositionGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFamilies(&buf, append(goldenSnapshot().families(), runtimeFamilies()...)); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "exposition.golden", runtimeValue.ReplaceAll(buf.Bytes(), []byte("$1 <masked>")))
}
