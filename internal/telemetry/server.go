package telemetry

import "sync/atomic"

// Serving-layer histograms. The GEMM server (internal/server) coalesces
// concurrent small requests into batch flushes; next to its scalar
// counters (the Server* rows of the counter table) it records how large
// the flushed batches were (the coalescing win is batch sizes > 1) and how
// long requests waited in the coalescing queue.

// NumBatchSizeBuckets is the log2 batch-size histogram depth: bucket i
// counts flushes of size [2^(i-1), 2^i), so boundaries run 1 … 2048.
const NumBatchSizeBuckets = 12

// serverStats is the Recorder's serving-layer histogram section.
type serverStats struct {
	batchHist  [NumBatchSizeBuckets]atomic.Uint64
	waitNs     atomic.Uint64
	waitedReqs atomic.Uint64
	waitHist   [NumLatencyBuckets]atomic.Uint64
}

// ServerFlush records one coalescer flush of size requests: the flush
// count, the batch-size histogram, and — for flushes that actually
// coalesced (size > 1) — size requests counted as coalesced.
//
//shalom:hotpath noalloc,nolock,noblock
func (r *Recorder) ServerFlush(size int) {
	if r == nil || size <= 0 {
		return
	}
	r.Add(ServerFlushes, 1)
	probeAtomicWrite()
	r.server.batchHist[bucketLog2(uint64(size), NumBatchSizeBuckets)].Add(1)
	if size > 1 {
		r.Add(ServerCoalesced, int64(size))
	}
}

// ServerQueueWait records how long one request sat in its coalescing queue
// between admission and flush dispatch.
//
//shalom:hotpath noalloc,nolock,noblock
func (r *Recorder) ServerQueueWait(ns int64) {
	if r == nil {
		return
	}
	if ns < 1 {
		ns = 1
	}
	probeAtomicWrite()
	r.server.waitedReqs.Add(1)
	probeAtomicWrite()
	r.server.waitNs.Add(uint64(ns))
	probeAtomicWrite()
	r.server.waitHist[bucketLog2(uint64(ns), NumLatencyBuckets)].Add(1)
}

// ServerStats is the serving-layer histogram section of a Snapshot.
type ServerStats struct {
	// BatchSizeBuckets[i] counts flushes of size [2^(i-1), 2^i).
	BatchSizeBuckets [NumBatchSizeBuckets]uint64 `json:"batch_size_buckets"`
	// QueueWaitNs sums request time in the coalescing queue over WaitedReqs
	// requests; QueueWaitBuckets is the log2-on-nanoseconds histogram.
	QueueWaitNs      uint64                    `json:"queue_wait_ns"`
	WaitedReqs       uint64                    `json:"waited_reqs"`
	QueueWaitBuckets [NumLatencyBuckets]uint64 `json:"queue_wait_buckets"`
}

// serverSnapshot reads the serving-layer histograms.
func (r *Recorder) serverSnapshot() ServerStats {
	s := ServerStats{
		QueueWaitNs: r.server.waitNs.Load(),
		WaitedReqs:  r.server.waitedReqs.Load(),
	}
	for b := range s.BatchSizeBuckets {
		s.BatchSizeBuckets[b] = r.server.batchHist[b].Load()
	}
	for b := range s.QueueWaitBuckets {
		s.QueueWaitBuckets[b] = r.server.waitHist[b].Load()
	}
	return s
}
