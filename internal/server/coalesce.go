package server

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"libshalom"
	"libshalom/internal/journal"
	"libshalom/internal/telemetry"
)

// result is the coalescer's answer to one request.
type result struct {
	status int    // http.StatusOK, 500, 504
	msg    string // error text for non-200 statuses
	// batchSize is how many requests shared the flush (200 only);
	// queueWait how long the request sat in the coalescing queue.
	batchSize int
	queueWait time.Duration
}

// pending is one admitted request waiting in a coalescing queue.
type pending struct {
	req      *Request
	enq      time.Time
	deadline time.Time // zero: no deadline
	waited   bool      // queue-wait telemetry recorded (once, at first flush)
	wait     time.Duration
	done     chan result // buffered; the flusher never blocks on it
}

// classKey is the coalescing unit: requests of one precision, one
// transposition mode and one telemetry shape class share a queue, so one
// flush maps onto one batch call.
type classKey struct {
	f64   bool
	mode  libshalom.Mode
	class libshalom.ShapeClass
}

func (k classKey) String() string {
	prec := "f32"
	if k.f64 {
		prec = "f64"
	}
	return fmt.Sprintf("%s/%v/%s", prec, k.mode, k.class)
}

// classQueue is one per-class coalescing queue. gen increments on every
// flush so a window timer armed for an earlier batch never flushes a later
// one early.
type classQueue struct {
	key   classKey
	mu    sync.Mutex
	gen   uint64
	queue []*pending
	flops float64
}

// coalescer runs the micro-batching core: admitted requests queue per
// class, and a batch flushes when the coalescing window expires, the batch
// size limit fills, or the queued flops budget fills — whichever comes
// first. Each flush is one SGEMMBatchCtx/DGEMMBatchCtx call on the shared
// Context.
type coalescer struct {
	lib  *libshalom.Context
	cfg  Config
	tel  *telemetry.Recorder
	jw   *journal.Writer
	base context.Context // parent of every flush's batch context

	mu      sync.Mutex
	classes map[classKey]*classQueue

	// inFlight is the flops of every admitted-but-unanswered request — the
	// backpressure signal admission control sheds on.
	inFlight atomic.Int64

	// flushMu guards the count of running flushes and the channel the drain
	// waits on. Unlike a sync.WaitGroup the count may rise from zero while
	// the drain waits — a window timer can flush then — because the drain
	// takes a fresh channel under the lock instead of racing Add with Wait.
	flushMu  sync.Mutex
	flushing int
	idle     chan struct{} // closed when flushing returns to zero; nil while nobody waits
}

func newCoalescer(lib *libshalom.Context, cfg Config) *coalescer {
	base := cfg.BaseContext
	if base == nil {
		base = context.Background() //shalom:allow ctxflow — documented default when the caller sets no BaseContext
	}
	return &coalescer{
		lib:     lib,
		cfg:     cfg,
		tel:     lib.TelemetryRecorder(),
		jw:      cfg.Journal,
		base:    base,
		classes: make(map[classKey]*classQueue),
	}
}

func (co *coalescer) class(key classKey) *classQueue {
	co.mu.Lock()
	defer co.mu.Unlock()
	q := co.classes[key]
	if q == nil {
		q = &classQueue{key: key}
		co.classes[key] = q
	}
	return q
}

// submit admits p into its class queue, or refuses it (the caller sheds
// with 429) when the queue is full or the in-flight flops budget is
// exhausted. The first request of an empty queue arms the window timer; a
// request that fills the batch-size or flops budget flushes immediately.
func (co *coalescer) submit(p *pending) bool {
	key := classKey{
		f64:   p.req.F64,
		mode:  p.req.Mode,
		class: libshalom.ClassifyShape(p.req.M, p.req.N, p.req.K),
	}
	flops := p.req.Flops()
	q := co.class(key)
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.queue) >= co.cfg.MaxQueue {
		return false
	}
	if co.inFlight.Load()+int64(flops) > co.cfg.MaxInFlightFlops {
		return false
	}
	co.inFlight.Add(int64(flops))
	q.queue = append(q.queue, p)
	q.flops += flops
	if len(q.queue) == 1 {
		gen := q.gen
		time.AfterFunc(co.cfg.Window, func() { co.flushGen(q, gen) })
	}
	if len(q.queue) >= co.cfg.MaxBatch || q.flops >= co.cfg.MaxBatchFlops {
		co.flushLocked(q)
	}
	return true
}

// flushGen is the window-expiry flush: it only fires if the batch the timer
// was armed for is still resident.
func (co *coalescer) flushGen(q *classQueue, gen uint64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.gen != gen || len(q.queue) == 0 {
		return
	}
	co.flushLocked(q)
}

// flushLocked detaches the resident batch (caller holds q.mu) and runs it
// on a flush goroutine.
func (co *coalescer) flushLocked(q *classQueue) {
	batch := q.queue
	q.queue = nil
	q.flops = 0
	q.gen++
	co.flushMu.Lock()
	co.flushing++
	co.flushMu.Unlock()
	go co.runFlush(q.key, batch)
}

// flushDone counts a finished flush out and wakes a drain waiting for the
// last one.
func (co *coalescer) flushDone() {
	co.flushMu.Lock()
	defer co.flushMu.Unlock()
	co.flushing--
	if co.flushing == 0 && co.idle != nil {
		close(co.idle)
		co.idle = nil
	}
}

// flushesIdle returns a channel that is closed once no flush is running —
// already closed if none is.
func (co *coalescer) flushesIdle() <-chan struct{} {
	co.flushMu.Lock()
	defer co.flushMu.Unlock()
	if co.flushing == 0 {
		ch := make(chan struct{})
		close(ch)
		return ch
	}
	if co.idle == nil {
		co.idle = make(chan struct{})
	}
	return co.idle
}

// flushAll force-flushes every resident batch — the drain path.
func (co *coalescer) flushAll() {
	co.mu.Lock()
	queues := make([]*classQueue, 0, len(co.classes))
	for _, q := range co.classes {
		queues = append(queues, q)
	}
	co.mu.Unlock()
	for _, q := range queues {
		q.mu.Lock()
		if len(q.queue) > 0 {
			co.flushLocked(q)
		}
		q.mu.Unlock()
	}
}

// runFlush executes one detached batch: expired requests are answered 504
// before any compute, the rest run as one batch call. A deadline that fires
// mid-batch splits the outcome per entry — completed entries answer 200
// with their results, expired entries 504, and entries cancelled with time
// remaining re-flush until each completes or expires.
func (co *coalescer) runFlush(key classKey, batch []*pending) {
	defer co.flushDone()
	// Anchor after the flush's events land (LIFO: before flushDone), so
	// every flush closes a journal batch under one merkle root.
	defer co.jw.Anchor()
	now := time.Now()
	live := batch[:0:0]
	for _, p := range batch {
		co.recordWait(p, now)
		if !p.deadline.IsZero() && now.After(p.deadline) {
			co.tel.Add(telemetry.ServerExpired, 1)
			co.finish(p, result{status: http.StatusGatewayTimeout, msg: "deadline expired before flush"})
			continue
		}
		live = append(live, p)
	}
	if len(live) == 0 {
		return
	}
	size := len(live)
	co.tel.ServerFlush(size)
	if co.jw.Enabled() {
		var flops float64
		for _, p := range live {
			flops += p.req.Flops()
		}
		co.jw.Flush(key.String(), size, flops)
	}
	remaining := live
	for len(remaining) > 0 {
		err := co.dispatch(key, remaining)
		if err == nil {
			for _, p := range remaining {
				co.finish(p, result{status: http.StatusOK, batchSize: size, queueWait: p.wait})
			}
			return
		}
		done, ok := libshalom.BatchCompleted(err)
		if !ok {
			// A whole-batch failure — kernel panic with retries disabled, a
			// stuck worker, pool misuse. Only this batch's requests see it.
			for _, p := range remaining {
				co.finish(p, result{status: http.StatusInternalServerError, msg: err.Error()})
			}
			return
		}
		// The batch deadline (the earliest member's) fired: split per entry.
		now = time.Now()
		next := remaining[:0:0]
		for i, p := range remaining {
			switch {
			case i < len(done) && done[i]:
				co.finish(p, result{status: http.StatusOK, batchSize: size, queueWait: p.wait})
			case !p.deadline.IsZero() && now.After(p.deadline):
				co.tel.Add(telemetry.ServerExpired, 1)
				co.finish(p, result{status: http.StatusGatewayTimeout, msg: "deadline exceeded before completion"})
			default:
				next = append(next, p)
			}
		}
		if len(next) == len(remaining) {
			// No entry completed or expired — cancellation without progress
			// (a razor-thin deadline). Answer 504 rather than spinning.
			for _, p := range next {
				co.finish(p, result{status: http.StatusGatewayTimeout, msg: "deadline exceeded before completion"})
			}
			return
		}
		remaining = next
	}
}

// dispatch runs one batch call over the remaining requests, bounded by the
// earliest member deadline.
func (co *coalescer) dispatch(key classKey, remaining []*pending) error {
	ctx := co.base
	if min, ok := minDeadline(remaining); ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, min)
		defer cancel()
	}
	if key.f64 {
		entries := make([]libshalom.DBatchEntry, len(remaining))
		for i, p := range remaining {
			r := p.req
			_, aCols, _, bCols := storedDims(r.Mode, r.M, r.N, r.K)
			entries[i] = libshalom.DBatchEntry{
				M: r.M, N: r.N, K: r.K,
				Alpha: r.Alpha, A: r.A64, LDA: aCols,
				B: r.B64, LDB: bCols,
				Beta: r.Beta, C: r.C64, LDC: r.N,
			}
		}
		return co.lib.DGEMMBatchCtx(ctx, key.mode, entries)
	}
	entries := make([]libshalom.SBatchEntry, len(remaining))
	for i, p := range remaining {
		r := p.req
		_, aCols, _, bCols := storedDims(r.Mode, r.M, r.N, r.K)
		entries[i] = libshalom.SBatchEntry{
			M: r.M, N: r.N, K: r.K,
			Alpha: float32(r.Alpha), A: r.A32, LDA: aCols,
			B: r.B32, LDB: bCols,
			Beta: float32(r.Beta), C: r.C32, LDC: r.N,
		}
	}
	return co.lib.SGEMMBatchCtx(ctx, key.mode, entries)
}

func minDeadline(remaining []*pending) (time.Time, bool) {
	var min time.Time
	for _, p := range remaining {
		if p.deadline.IsZero() {
			continue
		}
		if min.IsZero() || p.deadline.Before(min) {
			min = p.deadline
		}
	}
	return min, !min.IsZero()
}

// recordWait records the request's queue wait once, at its first flush.
//
//shalom:hotpath noalloc
func (co *coalescer) recordWait(p *pending, now time.Time) {
	if p.waited {
		return
	}
	p.waited = true
	p.wait = now.Sub(p.enq)
	co.tel.ServerQueueWait(int64(p.wait))
}

// finish releases the request's in-flight flops reservation and delivers
// its result.
//
//shalom:hotpath noalloc
func (co *coalescer) finish(p *pending, res result) {
	co.inFlight.Add(-int64(p.req.Flops()))
	p.done <- res
}
