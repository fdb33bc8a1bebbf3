package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"libshalom"
	"libshalom/internal/attrib"
	"libshalom/internal/platform"
	"libshalom/internal/router"
	"libshalom/internal/server"
	"libshalom/internal/telemetry"
)

// Serve workload constants: the fixed rates, the coalescing window and the
// phase lengths. The same on every commit measured.
const (
	// With at most two requests in flight, coalesced batches hardly form in
	// any phase (mean batch size about 1.03 at both rates, 1.1 at capacity
	// on a 2-vCPU Xeon): the two rates differ in how often a request waits
	// behind another, not in batching.
	serveLowRate    = 70.0  // req/s: requests arrive alone
	serveHighRate   = 250.0 // req/s: a request more often finds one in flight
	serveWindow     = 200 * time.Microsecond
	serveGenerators = 2 // generator goroutines, hence connections in flight
	// Phase lengths as shares of the measuring time.
	serveLowShare  = 0.30
	serveHighShare = 0.35
	serveSatShare  = 0.35
	// Fixed-rate and capacity figures are medians over this many windows
	// of their phase: a host stall inflates a window or two, not the figure.
	serveWindows = 8
)

const reqIDHeader = "X-Bench-Request-Id"

type reqIDKey struct{}

// stack is the served system under test: a backend server with the
// shalom-serve defaults behind a router with the shalom-router defaults,
// both in-process on loopback.
type stack struct {
	lib       *libshalom.Context
	eng       *attrib.Engine
	rt        *router.Router
	servers   []*http.Server
	routerURL string
	client    *http.Client
	stop      context.CancelFunc

	tr      *tracer
	traceOn atomic.Bool
	reqIDs  atomic.Int64 // request ids handed out so far
}

func listen(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	hs := &http.Server{Handler: h}
	go func() { _ = hs.Serve(ln) }()
	return hs, "http://" + ln.Addr().String(), nil
}

// startStack builds the served system. With traced set, the router and
// backend handlers and the router's forward transport are wrapped to record
// spans joined by request id (while traceOn is set).
func startStack(traced bool) (*stack, error) {
	plat := platform.KP920()
	lib := libshalom.New(libshalom.WithPlatform(plat), libshalom.WithTelemetry())
	eng := attrib.New(attrib.Config{Recorder: lib.TelemetryRecorder(), Platform: plat})
	eng.Start()
	lifecycle, stop := context.WithCancel(context.Background())
	st := &stack{lib: lib, eng: eng, stop: stop}
	var backend http.Handler = server.New(lib, server.Config{Window: serveWindow, BaseContext: lifecycle, Attrib: eng})
	var transport http.RoundTripper
	if traced {
		st.tr = newTracer()
		backend = st.spanHandler(backend, "server.ServeHTTP", "router.ServeHTTP")
		transport = idTransport{base: http.DefaultTransport}
	}
	bs, backendURL, err := listen(backend)
	if err != nil {
		st.close()
		return nil, err
	}
	st.servers = append(st.servers, bs)
	rt, err := router.New(router.Config{
		Backends:    []string{backendURL},
		BaseContext: lifecycle,
		Telemetry:   telemetry.New(telemetry.Options{}),
		Transport:   transport,
	})
	if err != nil {
		st.close()
		return nil, err
	}
	rt.Start()
	st.rt = rt
	var front http.Handler = rt
	if traced {
		front = st.spanHandler(rt, "router.ServeHTTP", "client")
	}
	rs, routerURL, err := listen(front)
	if err != nil {
		st.close()
		return nil, err
	}
	st.servers = append(st.servers, rs)
	st.routerURL = routerURL + "/v1/gemm"
	st.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     serveGenerators,
		MaxIdleConnsPerHost: serveGenerators,
		DisableCompression:  true,
	}}
	return st, nil
}

func (st *stack) close() {
	for _, s := range st.servers {
		_ = s.Close()
	}
	if st.rt != nil {
		st.rt.Close()
	}
	st.stop()
	st.eng.Close()
	st.lib.Close()
	if st.client != nil {
		st.client.CloseIdleConnections()
	}
}

// spanHandler records a span named name around h for each request that
// carries an id header (set by the client, or by idTransport on the
// router's forward) while tracing is on, and puts the id in the request
// context, where idTransport finds it.
func (st *stack) spanHandler(h http.Handler, name, parent string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseInt(r.Header.Get(reqIDHeader), 10, 64)
		if err != nil || !st.traceOn.Load() {
			h.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), reqIDKey{}, id)))
		st.tr.record(name, id, parent, t0, time.Now(), false)
	})
}

// idTransport copies the request id from the context of the router's
// forward request into a header the backend handler reads back.
type idTransport struct{ base http.RoundTripper }

func (t idTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if id, ok := r.Context().Value(reqIDKey{}).(int64); ok {
		r = r.Clone(r.Context())
		r.Header.Set(reqIDHeader, strconv.FormatInt(id, 10))
	}
	return t.base.RoundTrip(r)
}

// servedReq is one request of the pool: its wire bytes and the reference
// its answer is checked against.
type servedReq struct {
	op   *gemmOp
	body []byte
	ref  refResult
}

func encode(o *gemmOp) ([]byte, error) {
	h := server.Header{Precision: "f32", Mode: o.mode.String(), M: o.m, N: o.n, K: o.k, Alpha: o.alpha, Beta: o.beta}
	var buf bytes.Buffer
	var err error
	if o.f64 {
		h.Precision = "f64"
		err = server.EncodeRequest(&buf, h, nil, nil, nil, o.d.a, o.d.b, o.d.c)
	} else {
		err = server.EncodeRequest(&buf, h, o.s.a, o.s.b, o.s.c, nil, nil, nil)
	}
	return buf.Bytes(), err
}

func newServedReq(o *gemmOp) (*servedReq, error) {
	o.restore()
	body, err := encode(o)
	if err != nil {
		return nil, err
	}
	return &servedReq{op: o, body: body, ref: o.referenceNow()}, nil
}

// checkResponse decodes a response and checks its C against the reference.
func (q *servedReq) checkResponse(status int, body []byte, s *sample) {
	if status != http.StatusOK {
		return
	}
	rh, c32, c64, err := server.DecodeResponse(bytes.NewReader(body), q.op.m, q.op.n, q.op.f64)
	if err != nil {
		s.err = err
		return
	}
	got := c64
	if !q.op.f64 {
		got = widen(c32)
	}
	if err := q.ref.check(got, q.op.n, q.op.m, q.op.n); err != nil {
		s.err = err
		return
	}
	s.ok, s.batchSize, s.queueWaitUS = true, rh.BatchSize, float64(rh.QueueWaitUS)
}

// serveSetupProbe is the set-up of the serve workload: start the served
// system and get a first correct answer through the router. It returns when
// that answer arrived and how long making the request and its reference
// took before that; the answer is checked after.
func serveSetupProbe(seed uint64) (answered time.Time, gen time.Duration, err error) {
	t0 := time.Now()
	q, err := newServedReq(setupOp("serve", seed))
	if err != nil {
		return answered, gen, err
	}
	gen = time.Since(t0)
	st, err := startStack(false)
	if err != nil {
		return answered, gen, err
	}
	defer st.close()
	answered, err = st.firstCorrectRequest(q)
	return answered, gen, err
}

// firstCorrectRequest sends one request through the router and checks the
// answer. It returns when the answer arrived.
func (st *stack) firstCorrectRequest(q *servedReq) (time.Time, error) {
	res := st.phase(context.Background(), []*servedReq{q}, []time.Duration{0})
	if len(res.samples) != 1 || !res.samples[0].ok {
		return time.Time{}, fmt.Errorf("first request through the router failed: %+v", res.samples)
	}
	return res.start.Add(res.samples[0].done), nil
}

// phaseResult is one open-loop phase.
type phaseResult struct {
	samples []sample
	start   time.Time     // sample times are offsets from here
	span    time.Duration // the schedule's length
	dur     time.Duration // wall time until the last answer
}

// phase sends the pool's requests on the schedule dues, cycling through
// the pool, and waits for every answer.
func (st *stack) phase(ctx context.Context, pool []*servedReq, dues []time.Duration) phaseResult {
	return st.run(ctx, pool, dues, 0)
}

// saturate runs the generators closed-loop for dur: each sends its next
// request as soon as its last one is answered. The completion rate is the
// capacity of the served system at the workload's connection count.
func (st *stack) saturate(ctx context.Context, pool []*servedReq, dur time.Duration) phaseResult {
	const maxRate = 20000 // req/s: far above what one host can serve
	return st.run(ctx, pool, make([]time.Duration, int(maxRate*dur.Seconds())), dur)
}

func (st *stack) run(ctx context.Context, pool []*servedReq, dues []time.Duration, stopAfter time.Duration) phaseResult {
	base := st.reqIDs.Add(int64(len(dues))) - int64(len(dues))
	g := &loadgen{
		client:    st.client,
		url:       st.routerURL,
		workers:   serveGenerators,
		stopAfter: stopAfter,
		body:      func(i int) []byte { return pool[i%len(pool)].body },
		check: func(i, status int, body []byte, s *sample) {
			pool[i%len(pool)].checkResponse(status, body, s)
		},
	}
	if st.tr != nil && st.traceOn.Load() {
		g.prepare = func(i int, req *http.Request) {
			req.Header.Set(reqIDHeader, strconv.FormatInt(base+int64(i), 10))
		}
		g.onDone = func(i int, sent, done time.Time) {
			st.tr.record("client", base+int64(i), "", sent, done, false)
		}
	}
	samples, start := g.run(ctx, dues)
	var span time.Duration
	if len(dues) > 0 {
		span = dues[len(dues)-1]
	}
	return phaseResult{samples: samples, start: start, span: span, dur: time.Since(start)}
}

// phaseStats summarises a phase.
type phaseStats struct {
	n, failed     int
	p50, p90, p99 float64
	lagP99        float64
}

func (p phaseResult) stats() phaseStats {
	st := phaseStats{n: len(p.samples)}
	lat := make([]float64, 0, len(p.samples))
	lag := make([]float64, 0, len(p.samples))
	for _, s := range p.samples {
		lat = append(lat, s.latencyUS())
		lag = append(lag, s.lagUS())
		if !s.ok {
			st.failed++
		}
	}
	st.p50, st.p90, st.p99 = quantile(lat, 0.5), quantile(lat, 0.9), quantile(lat, 0.99)
	st.lagP99 = quantile(lag, 0.99)
	return st
}

// failLatencyUS stands in for the latency of a failed request in a
// printed percentile: a failure misses every latency limit.
const failLatencyUS = 1e9

func finiteUS(v float64) float64 {
	if v > failLatencyUS {
		return failLatencyUS
	}
	return v
}

// runServe runs the serve workload. Untraced: the low and high fixed-rate
// phases, then the closed-loop capacity phase. Traced: the low phase
// untraced and traced (the tracing overhead), the high phase traced, and
// the library-layer replays on the pool's GEMMs.
func runServe(rc runConfig) (*outcome, error) {
	ops := genServePool(rc.seed)
	pool := make([]*servedReq, len(ops))
	var err error
	for i, o := range ops {
		if pool[i], err = newServedReq(o); err != nil {
			return nil, err
		}
	}
	first, err := newServedReq(setupOp("serve", rc.seed))
	if err != nil {
		return nil, err
	}
	// The heap baseline holds the benchmark's pool; the served system comes after.
	heap := newHeapLive(rc.seconds)
	st, err := startStack(rc.trace)
	if err != nil {
		return nil, err
	}
	defer st.close()
	if _, err := st.firstCorrectRequest(first); err != nil {
		return nil, err
	}
	degradedBefore := len(libshalom.DegradationHistory())
	out := newOutcome()
	ctx := context.Background()
	secs := func(share float64) time.Duration { return time.Duration(share * rc.seconds * float64(time.Second)) }
	schedule := func(salt uint64, rate float64, share float64) []time.Duration {
		return poissonSchedule(rc.seed, salt, rate, secs(share))
	}
	count := func(p phaseStats) {
		out.attempted += p.n
		out.failed += p.failed
	}

	if rc.trace {
		untraced := st.phase(ctx, pool, schedule(1, serveLowRate, serveLowShare)).stats()
		rtBefore := readRuntime()
		st.traceOn.Store(true)
		lowRes := st.phase(ctx, pool, schedule(1, serveLowRate, serveLowShare))
		highRes := st.phase(ctx, pool, schedule(2, serveHighRate, serveHighShare))
		st.traceOn.Store(false)
		rtAfter := readRuntime()
		low, high := lowRes.stats(), highRes.stats()
		count(untraced)
		count(low)
		count(high)
		out.values["trace.overhead_share"] = ratio(low.p50, untraced.p50) - 1
		out.runtimeMetrics(rtBefore, rtAfter, low.n+high.n)
		if err := serveLayers(st, pool, []phaseResult{lowRes, highRes}, out); err != nil {
			return nil, err
		}
		lib := libshalom.New()
		defer lib.Close()
		calls := make([]*call, len(ops))
		for i, o := range ops {
			calls[i] = &call{ops: []*gemmOp{o}}
		}
		replayLayers(rc, lib, calls, st.tr, out)
		out.values["guard.degraded_ops"] = float64(len(libshalom.DegradationHistory()) - degradedBefore)
		if err := rc.writeSpans(st.tr); err != nil {
			return nil, err
		}
		return out, nil
	}

	// The heap is sampled in the fixed-rate phases, whose sample buffers are
	// fixed by the schedule, and not in the capacity phase, whose buffer
	// sizes and garbage follow the rate it reaches.
	runtime.GC()
	sampler := startHeapSampler(heap)
	rtBefore := readRuntime()
	lowRes := st.phase(ctx, pool, schedule(1, serveLowRate, serveLowShare))
	highRes := st.phase(ctx, pool, schedule(2, serveHighRate, serveHighShare))
	sampler.stop()
	satRes := st.saturate(ctx, pool, secs(serveSatShare))
	rtAfter := readRuntime()
	low, high, sat := lowRes.stats(), highRes.stats(), satRes.stats()
	count(low)
	count(high)
	count(sat)
	capacity, satFlops := satRes.windowRates(pool, secs(serveSatShare))
	out.values["lat_p50_us"] = finiteUS(lowRes.windowQuantile(0.5))
	out.values["lat_p90_us"] = finiteUS(highRes.windowQuantile(0.9))
	out.values["ops_per_s"] = capacity
	out.values["gflops"] = satFlops / 1e9
	out.values["heap_live_mb"] = heap.mb()
	heap.record(out)
	out.record["lat_p50_us.low"] = finiteUS(low.p50)
	out.record["lat_p90_us.low"] = finiteUS(low.p90)
	out.record["lat_p99_us.low"] = finiteUS(low.p99)
	out.record["lat_p50_us.high"] = finiteUS(high.p50)
	out.record["lat_p99_us.high"] = finiteUS(high.p99)
	out.record["requests.low"] = low.n
	out.record["requests.high"] = high.n
	out.record["loadgen.lag_p99_us.low"] = low.lagP99
	out.record["loadgen.lag_p99_us.high"] = high.lagP99
	out.record["batch_size_mean.low"] = lowRes.meanBatch()
	out.record["batch_size_mean.high"] = highRes.meanBatch()
	out.record["batch_size_mean.capacity"] = satRes.meanBatch()
	out.record["capacity_rps_whole_phase"] = float64(sat.n-sat.failed) / satRes.dur.Seconds()
	out.record["runtime.allocs_per_req"] = ratio(float64(rtAfter.allocObjects-rtBefore.allocObjects), float64(out.attempted))
	return out, nil
}

// serveLayers derives the serving-path per-layer metrics from the traced
// phases' spans and response headers.
func serveLayers(st *stack, pool []*servedReq, phases []phaseResult, out *outcome) error {
	st.tr.mu.Lock()
	spans := append([]span(nil), st.tr.spans...)
	st.tr.mu.Unlock()
	computeSelf(spans)
	var handler, hop, residual []float64
	for _, s := range spans {
		switch s.Name {
		case "server.ServeHTTP":
			handler = append(handler, float64(s.dur())/1e3)
		case "router.ServeHTTP":
			hop = append(hop, float64(s.Self)/1e3)
		case "client":
			residual = append(residual, float64(s.Self)/1e3)
		}
	}
	if len(handler) == 0 || len(hop) == 0 {
		return errors.New("traced serve phases recorded no joined spans")
	}
	var wait, attempts, lag []float64
	var sent, shed, timedOut int
	for _, p := range phases {
		for _, s := range p.samples {
			sent++
			lag = append(lag, s.lagUS())
			switch s.status {
			case http.StatusTooManyRequests:
				shed++
			case http.StatusGatewayTimeout:
				timedOut++
			}
			if s.ok {
				wait = append(wait, s.queueWaitUS)
				attempts = append(attempts, float64(s.attempts))
			}
		}
	}
	out.values["server.handler_us.p50"] = quantile(handler, 0.5)
	out.values["server.handler_us.p99"] = quantile(handler, 0.99)
	out.values["router.hop_us.p50"] = quantile(hop, 0.5)
	out.values["router.hop_us.p99"] = quantile(hop, 0.99)
	out.values["client.residual_us.p50"] = quantile(residual, 0.5)
	out.values["server.queue_wait_us.p50"] = quantile(wait, 0.5)
	out.values["server.queue_wait_us.p99"] = quantile(wait, 0.99)
	out.values["server.batch_size_mean"] = phases[len(phases)-1].meanBatch()
	out.values["server.shed_share"] = ratio(float64(shed), float64(sent))
	out.values["server.timeout_share"] = ratio(float64(timedOut), float64(sent))
	out.values["router.attempts_mean"] = mean(attempts)
	out.values["loadgen.lag_p99_us"] = quantile(lag, 0.99)
	out.values["server.decode_us"] = decodeCost(pool)
	out.record["server.batch_size_mean.low"] = phases[0].meanBatch()
	out.record["spans_joined"] = len(handler)
	return nil
}

// windowQuantile is the median over serveWindows windows of the phase,
// split by due time, of each window's q-quantile latency.
func (p phaseResult) windowQuantile(q float64) float64 {
	windows := make([][]float64, serveWindows)
	for _, s := range p.samples {
		i := min(int(int64(serveWindows)*int64(s.due)/int64(p.span+1)), serveWindows-1)
		windows[i] = append(windows[i], s.latencyUS())
	}
	var per []float64
	for _, w := range windows {
		if len(w) > 0 {
			per = append(per, quantile(w, q))
		}
	}
	return quantile(per, 0.5)
}

// windowRates splits a closed-loop phase of length dur into serveWindows
// windows by completion time and returns the median over windows of the
// rate of correct answers and of their flops, each window's rate taken
// between its first and last answer.
func (p phaseResult) windowRates(pool []*servedReq, dur time.Duration) (ops, flops float64) {
	type window struct {
		n           int
		flops       float64
		first, last time.Duration
	}
	ws := make([]window, serveWindows)
	for _, s := range p.samples {
		i := int(int64(serveWindows) * int64(s.done) / int64(dur))
		if !s.ok || i >= serveWindows {
			continue
		}
		w := &ws[i]
		if w.n == 0 || s.done < w.first {
			w.first = s.done
		}
		w.last = max(w.last, s.done)
		w.n++
		w.flops += pool[s.idx%len(pool)].op.flops()
	}
	var n, f []float64
	for _, w := range ws {
		if span := (w.last - w.first).Seconds(); w.n > 1 && span > 0 {
			n = append(n, float64(w.n-1)/span)
			f = append(f, w.flops*float64(w.n-1)/float64(w.n)/span)
		}
	}
	return quantile(n, 0.5), quantile(f, 0.5)
}

// meanBatch is the mean coalesced batch size the phase's answers report.
func (p phaseResult) meanBatch() float64 {
	var batch []float64
	for _, s := range p.samples {
		if s.ok {
			batch = append(batch, float64(s.batchSize))
		}
	}
	return mean(batch)
}

// decodeCost is the median time of server.DecodeRequest over the pool's
// request bodies, in µs.
func decodeCost(pool []*servedReq) float64 {
	var samples []float64
	for r := 0; r < 3; r++ {
		for _, q := range pool {
			t0 := time.Now()
			_, err := server.DecodeRequest(bytes.NewReader(q.body), server.DefaultMaxDim, server.DefaultMaxPayloadBytes)
			d := time.Since(t0)
			if err == nil {
				samples = append(samples, float64(d.Nanoseconds())/1e3)
			}
		}
	}
	return quantile(samples, 0.5)
}

// heapSampler samples the live heap from its own goroutine while the
// served system runs.
type heapSampler struct {
	done, stopped chan struct{}
}

func startHeapSampler(h *heapLive) *heapSampler {
	s := &heapSampler{done: make(chan struct{}), stopped: make(chan struct{})}
	go func() {
		defer close(s.stopped)
		t := time.NewTicker(heapSampleEvery)
		defer t.Stop()
		for {
			select {
			case <-s.done:
				return
			case now := <-t.C:
				h.observe(now)
			}
		}
	}()
	return s
}

func (s *heapSampler) stop() {
	close(s.done)
	<-s.stopped
}
