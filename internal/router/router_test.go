package router

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"libshalom/internal/server"
	"libshalom/internal/telemetry"
)

// stubBackend is a scriptable shalom-serve stand-in: it counts /v1/gemm
// hits, records the header each forward carried, and answers with a
// programmable status. Its /readyz answers 200 or 503 off a flag.
type stubBackend struct {
	srv *httptest.Server

	mu      sync.Mutex
	hits    int
	headers []server.Header

	status atomic.Int32 // /v1/gemm answer; 200 default
	ready  atomic.Bool  // /readyz verdict
}

func newStub(t *testing.T) *stubBackend {
	t.Helper()
	s := &stubBackend{}
	s.status.Store(http.StatusOK)
	s.ready.Store(true)
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/gemm", func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		var h server.Header
		if line, _, ok := strings.Cut(string(body), "\n"); ok {
			json.Unmarshal([]byte(line), &h)
		}
		s.mu.Lock()
		s.hits++
		s.headers = append(s.headers, h)
		s.mu.Unlock()
		code := int(s.status.Load())
		if code == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", "1")
		}
		w.WriteHeader(code)
		fmt.Fprintf(w, "stub %d", code)
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if !s.ready.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		fmt.Fprint(w, "{}")
	})
	s.srv = httptest.NewServer(mux)
	t.Cleanup(s.srv.Close)
	return s
}

func (s *stubBackend) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hits
}

func (s *stubBackend) lastHeader() server.Header {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.headers) == 0 {
		return server.Header{}
	}
	return s.headers[len(s.headers)-1]
}

func newTestRouter(t *testing.T, cfg Config, stubs ...*stubBackend) *Router {
	t.Helper()
	for _, s := range stubs {
		cfg.Backends = append(cfg.Backends, s.srv.URL)
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(rt.Close)
	return rt
}

func gemmRequest(classHeader string) *http.Request {
	body := strings.NewReader(classHeader + "\npayload-bytes")
	return httptest.NewRequest(http.MethodPost, "/v1/gemm", body)
}

const tinyHeader = `{"precision":"f32","mode":"NN","m":4,"n":4,"k":4,"alpha":1}`

func do(rt *Router, req *http.Request) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, req)
	return rec
}

// Rendezvous preference must be a permutation, deterministic, and stable
// under node removal: dropping one backend leaves every other class's owner
// unchanged.
// Backend URLs come from outside the program and end up as /healthz
// identities and /metrics label values: New accepts host URLs (with or
// without a scheme) and refuses empty, hostless and control-character ones.
func TestNewValidatesBackendURLs(t *testing.T) {
	for _, tc := range []struct {
		url string
		ok  bool
	}{
		{"http://10.0.0.1:8080", true},
		{"10.0.0.1:8080", true},
		{"https://backend.example:8443/", true},
		{"", false},
		{"http://a\tb:1", false},
		{"http://a\nb:1", false},
		{"a\x7fb:1", false},
		{"http://", false},
		{"http:///v1", false},
		{"://a:1", false},
	} {
		rt, err := New(Config{Backends: []string{tc.url}})
		if (err == nil) != tc.ok {
			t.Errorf("New(%q): err = %v, want ok = %t", tc.url, err, tc.ok)
		}
		if rt != nil {
			rt.Close()
		}
	}
}

func TestRendezvousStableUnderRemoval(t *testing.T) {
	mk := func(ids ...string) []*backend {
		var out []*backend
		for i, id := range ids {
			out = append(out, &backend{index: i, id: id})
		}
		return out
	}
	full := mk("http://a", "http://b", "http://c")
	classes := []string{"f32/NN/tiny", "f32/NN/small", "f64/NT/skinny-k", "f32/TT/large", "f64/NN/tall"}
	owner := map[string]string{}
	for _, c := range classes {
		order := preference(c, full)
		if len(order) != 3 {
			t.Fatalf("%s: preference returned %d backends", c, len(order))
		}
		if preference(c, full)[0] != order[0] {
			t.Fatalf("%s: preference not deterministic", c)
		}
		owner[c] = order[0].id
	}
	// Remove backend b: classes b did not own must keep their owner.
	reduced := mk("http://a", "http://c")
	for _, c := range classes {
		if owner[c] == "http://b" {
			continue
		}
		if got := preference(c, reduced)[0].id; got != owner[c] {
			t.Fatalf("%s: owner changed %s -> %s after removing an unrelated node", c, owner[c], got)
		}
	}
}

// Every request of one class must land on the same backend — the class
// affinity that keeps that backend's coalescer stream dense.
func TestClassAffinity(t *testing.T) {
	s1, s2, s3 := newStub(t), newStub(t), newStub(t)
	rt := newTestRouter(t, Config{}, s1, s2, s3)
	for i := 0; i < 8; i++ {
		if rec := do(rt, gemmRequest(tinyHeader)); rec.Code != http.StatusOK {
			t.Fatalf("request %d: status %d", i, rec.Code)
		}
	}
	counts := []int{s1.count(), s2.count(), s3.count()}
	hot := 0
	for _, c := range counts {
		if c > 0 {
			hot++
		}
	}
	if hot != 1 {
		t.Fatalf("one class spread over %d backends (%v), want exactly 1", hot, counts)
	}
}

// A failing preferred backend retries onto the next in preference order and
// the client still gets its 200, annotated with the attempt count.
func TestHedgedRetryOnFailure(t *testing.T) {
	s1, s2, s3 := newStub(t), newStub(t), newStub(t)
	stubs := []*stubBackend{s1, s2, s3}
	rt := newTestRouter(t, Config{}, s1, s2, s3)
	// Find the class owner and make it fail.
	do(rt, gemmRequest(tinyHeader))
	var ownerIdx int
	for i, s := range stubs {
		if s.count() > 0 {
			ownerIdx = i
		}
	}
	stubs[ownerIdx].status.Store(http.StatusInternalServerError)
	rec := do(rt, gemmRequest(tinyHeader))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200 via failover", rec.Code)
	}
	if got := rec.Header().Get("X-Shalom-Attempts"); got != "2" {
		t.Fatalf("X-Shalom-Attempts = %q, want 2", got)
	}
	if be := rec.Header().Get("X-Shalom-Backend"); be == stubs[ownerIdx].srv.URL {
		t.Fatalf("winning backend is the failing owner %s", be)
	}
}

// A shedding (429) owner also fails over — and clears, not grows, the
// owner's failure streak: load is not an outlier.
func TestShedFailsOverWithoutPenalty(t *testing.T) {
	s1, s2 := newStub(t), newStub(t)
	stubs := []*stubBackend{s1, s2}
	rt := newTestRouter(t, Config{EjectThreshold: 2}, s1, s2)
	do(rt, gemmRequest(tinyHeader))
	var owner *stubBackend
	for _, s := range stubs {
		if s.count() > 0 {
			owner = s
		}
	}
	owner.status.Store(http.StatusTooManyRequests)
	for i := 0; i < 4; i++ {
		if rec := do(rt, gemmRequest(tinyHeader)); rec.Code != http.StatusOK {
			t.Fatalf("request %d: status %d, want 200 via failover", i, rec.Code)
		}
	}
	for _, b := range rt.backends {
		if b.isEjected() {
			t.Fatalf("backend %s ejected by 429s — shedding must not count toward ejection", b.id)
		}
	}
}

// EjectThreshold consecutive failures eject the backend; once ejected it
// receives no traffic, and a recovered /readyz probe readmits it.
func TestEjectionAndReadmission(t *testing.T) {
	s1, s2 := newStub(t), newStub(t)
	stubs := []*stubBackend{s1, s2}
	tel := telemetry.New(telemetry.Options{})
	rt := newTestRouter(t, Config{
		EjectThreshold: 2,
		ProbeInterval:  20 * time.Millisecond,
		ReadmitBase:    20 * time.Millisecond,
		Telemetry:      tel,
	}, s1, s2)
	do(rt, gemmRequest(tinyHeader))
	var owner *stubBackend
	for _, s := range stubs {
		if s.count() > 0 {
			owner = s
		}
	}
	owner.status.Store(http.StatusInternalServerError)
	owner.ready.Store(false)
	for i := 0; i < 2; i++ {
		if rec := do(rt, gemmRequest(tinyHeader)); rec.Code != http.StatusOK {
			t.Fatalf("request %d: status %d, want 200 via failover", i, rec.Code)
		}
	}
	var ownerBE *backend
	for _, b := range rt.backends {
		if b.id == owner.srv.URL {
			ownerBE = b
		}
	}
	if !ownerBE.isEjected() {
		t.Fatalf("owner not ejected after %d consecutive failures", 2)
	}
	// Ejected: traffic flows without touching the owner at all.
	before := owner.count()
	for i := 0; i < 3; i++ {
		if rec := do(rt, gemmRequest(tinyHeader)); rec.Code != http.StatusOK {
			t.Fatalf("post-ejection request %d: status %d", i, rec.Code)
		}
	}
	if owner.count() != before {
		t.Fatal("ejected backend still received traffic")
	}
	// Recover the owner and let the prober readmit it.
	owner.status.Store(http.StatusOK)
	owner.ready.Store(true)
	rt.Start()
	deadline := time.Now().Add(3 * time.Second)
	for ownerBE.isEjected() {
		if time.Now().After(deadline) {
			t.Fatal("owner never readmitted after recovery")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if rec := do(rt, gemmRequest(tinyHeader)); rec.Code != http.StatusOK {
		t.Fatalf("post-readmission request: status %d", rec.Code)
	}
	snap := tel.Snapshot()
	if snap.Counters[telemetry.RouterEjections] == 0 || snap.Counters[telemetry.RouterReadmissions] == 0 {
		t.Fatalf("telemetry ejections=%d readmissions=%d, want both > 0",
			snap.Counters[telemetry.RouterEjections], snap.Counters[telemetry.RouterReadmissions])
	}
}

// A draining backend (503) is routed around without ejection or penalty —
// deliberate drain is not an outlier.
func TestDrainingBackendRoutedAroundWithoutPenalty(t *testing.T) {
	s1, s2 := newStub(t), newStub(t)
	stubs := []*stubBackend{s1, s2}
	rt := newTestRouter(t, Config{EjectThreshold: 2}, s1, s2)
	do(rt, gemmRequest(tinyHeader))
	var owner *stubBackend
	for _, s := range stubs {
		if s.count() > 0 {
			owner = s
		}
	}
	owner.status.Store(http.StatusServiceUnavailable)
	for i := 0; i < 4; i++ {
		if rec := do(rt, gemmRequest(tinyHeader)); rec.Code != http.StatusOK {
			t.Fatalf("request %d during backend drain: status %d", i, rec.Code)
		}
	}
	for _, b := range rt.backends {
		if b.isEjected() {
			t.Fatal("draining backend was ejected")
		}
	}
	// The first 503 marked the owner not-ready: later requests skip it.
	if owner.count() > 2 {
		t.Fatalf("draining owner saw %d forwards, want at most 2 (probe + detection)", owner.count())
	}
}

// Attempts rewrite timeout_ms to the remaining overall deadline, so a
// retried request never grants more time than the client asked for.
func TestTimeoutRewrittenPerAttempt(t *testing.T) {
	s1 := newStub(t)
	rt := newTestRouter(t, Config{}, s1)
	hdr := `{"precision":"f32","mode":"NN","m":4,"n":4,"k":4,"alpha":1,"timeout_ms":5000}`
	if rec := do(rt, gemmRequest(hdr)); rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	got := s1.lastHeader().TimeoutMS
	if got <= 0 || got > 5000 {
		t.Fatalf("forwarded timeout_ms = %d, want in (0, 5000]", got)
	}
}

// With the whole fleet failing, the router answers 502 after exhausting the
// retry budget — and a fleet that sheds answers 503 with Retry-After.
func TestExhaustedBudgetVerdicts(t *testing.T) {
	s1, s2 := newStub(t), newStub(t)
	rt := newTestRouter(t, Config{}, s1, s2)
	s1.status.Store(http.StatusInternalServerError)
	s2.status.Store(http.StatusInternalServerError)
	if rec := do(rt, gemmRequest(tinyHeader)); rec.Code != http.StatusBadGateway {
		t.Fatalf("all-failing fleet: status %d, want 502", rec.Code)
	}
	s1.status.Store(http.StatusTooManyRequests)
	s2.status.Store(http.StatusTooManyRequests)
	rec := do(rt, gemmRequest(tinyHeader))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("all-shedding fleet: status %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("router shed response missing Retry-After")
	}
}

// Malformed requests are rejected at the router, 400, without consuming a
// backend attempt.
func TestMalformedRejectedAtRouter(t *testing.T) {
	s1 := newStub(t)
	rt := newTestRouter(t, Config{}, s1)
	for _, hdr := range []string{
		`{"precision":"f16","mode":"NN","m":4,"n":4,"k":4}`,
		`{"precision":"f32","mode":"XX","m":4,"n":4,"k":4}`,
		`{"precision":"f32","mode":"NN","m":0,"n":4,"k":4}`,
		`{"precision":"f32","mode":"NN","m":4,"n":4,"k":4,"timeout_ms":-1}`,
		`not json at all`,
	} {
		rec := do(rt, gemmRequest(hdr))
		if rec.Code != http.StatusBadRequest || !strings.HasPrefix(rec.Body.String(), "router: ") {
			t.Fatalf("header %q: status %d %q, want 400 with the router: prefix", hdr, rec.Code, rec.Body.String())
		}
	}
	if s1.count() != 0 {
		t.Fatalf("malformed requests reached the backend %d times", s1.count())
	}
	// The per-dimension limit is the backend's to apply (its -max-dim is
	// configurable): the router forwards a dimension above the default.
	if rec := do(rt, gemmRequest(`{"precision":"f32","mode":"NN","m":100000,"n":4,"k":4}`)); s1.count() != 1 {
		t.Fatalf("oversized dimension: status %d, backend calls %d, want it forwarded", rec.Code, s1.count())
	}
}

// The router's own rolling drain: readiness flips 503 the moment Drain
// starts, new requests are refused with Retry-After, and Drain returns only
// after in-flight requests are answered.
func TestRouterDrain(t *testing.T) {
	s1 := newStub(t)
	release := make(chan struct{})
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		<-release
		w.Write([]byte("slow ok"))
	}))
	defer slow.Close()
	rt, err := New(Config{Backends: []string{slow.URL, s1.srv.URL}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer rt.Close()

	// Park one request in flight against the slow backend — whichever class
	// it owns; probe classes until the slow stub gets the request.
	inflight := make(chan int, 1)
	started := false
	for m := 4; m <= 64 && !started; m *= 2 {
		hdr := fmt.Sprintf(`{"precision":"f32","mode":"NN","m":%d,"n":4,"k":4,"alpha":1}`, m)
		order := preference(fmt.Sprintf("f32/NN/%s", telemetry.ClassifyShape(m, 4, 4)), rt.backends)
		if order[0].id != slow.URL {
			continue
		}
		started = true
		go func() {
			rec := do(rt, gemmRequest(hdr))
			inflight <- rec.Code
		}()
	}
	if !started {
		t.Skip("no probed class owned by the slow backend (hash landed all on the fast stub)")
	}
	time.Sleep(50 * time.Millisecond) // let the request reach the backend

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		drained <- rt.Drain(ctx)
	}()
	time.Sleep(20 * time.Millisecond)

	// Readiness must be down and new work refused while the drain waits.
	if rec := do(rt, httptest.NewRequest(http.MethodGet, "/readyz", nil)); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz during drain: %d, want 503", rec.Code)
	}
	rec := do(rt, gemmRequest(tinyHeader))
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
		t.Fatalf("request during drain: %d (Retry-After %q), want 503 with Retry-After", rec.Code, rec.Header().Get("Retry-After"))
	}
	select {
	case err := <-drained:
		t.Fatalf("Drain returned %v with a request still in flight", err)
	default:
	}

	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if code := <-inflight; code != http.StatusOK {
		t.Fatalf("in-flight request during drain answered %d, want 200", code)
	}
}

// /healthz reports the fleet table and degrades its status with the fleet.
func TestHealthzFleetTable(t *testing.T) {
	s1, s2 := newStub(t), newStub(t)
	rt := newTestRouter(t, Config{EjectThreshold: 1}, s1, s2)
	rec := do(rt, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz: %d", rec.Code)
	}
	var body struct {
		Status     string          `json:"status"`
		ConfigHash string          `json:"config_hash"`
		Eligible   int             `json:"eligible"`
		Backends   []BackendHealth `json:"backends"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("healthz body: %v", err)
	}
	if body.Status != "ok" || body.Eligible != 2 || len(body.Backends) != 2 || body.ConfigHash == "" {
		t.Fatalf("healthz = %+v", body)
	}
	// Eject one: status degrades.
	s1.status.Store(http.StatusInternalServerError)
	s2.status.Store(http.StatusInternalServerError)
	do(rt, gemmRequest(tinyHeader))
	rec = do(rt, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	json.Unmarshal(rec.Body.Bytes(), &body)
	if body.Status == "ok" {
		t.Fatalf("healthz status %q after fleet-wide failures, want degraded/unavailable", body.Status)
	}
}

// /metrics exposes the router families plus per-backend series.
func TestMetricsExposition(t *testing.T) {
	s1 := newStub(t)
	tel := telemetry.New(telemetry.Options{})
	rt := newTestRouter(t, Config{Telemetry: tel}, s1)
	do(rt, gemmRequest(tinyHeader))
	rec := do(rt, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	out := rec.Body.String()
	for _, want := range []string{
		"libshalom_router_requests_forwarded_total 1",
		"libshalom_router_attempts_total 1",
		"libshalom_router_backend_up{",
		"libshalom_router_backend_requests_total{",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, out)
		}
	}
}

// The latency hedge: when the owner stalls past HedgeDelay, a concurrent
// attempt on the failover backend answers the request.
func TestLatencyHedge(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		select {
		case <-block:
		case <-r.Context().Done():
		}
	}))
	defer slow.Close()
	fast := newStub(t)
	// Order the backends so the slow one can own some class; find a class it
	// owns and hedge off it.
	rt, err := New(Config{Backends: []string{slow.URL, fast.srv.URL}, HedgeDelay: 30 * time.Millisecond})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer rt.Close()
	var hdr string
	for m := 4; m <= 512; m *= 2 {
		ck := fmt.Sprintf("f32/NN/%s", telemetry.ClassifyShape(m, 4, 4))
		if preference(ck, rt.backends)[0].id == slow.URL {
			hdr = fmt.Sprintf(`{"precision":"f32","mode":"NN","m":%d,"n":4,"k":4,"alpha":1}`, m)
			break
		}
	}
	if hdr == "" {
		t.Skip("no probed class owned by the slow backend")
	}
	start := time.Now()
	rec := do(rt, gemmRequest(hdr))
	if rec.Code != http.StatusOK {
		t.Fatalf("hedged request: status %d", rec.Code)
	}
	if be := rec.Header().Get("X-Shalom-Backend"); be != fast.srv.URL {
		t.Fatalf("winner = %s, want the fast hedge target", be)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("hedged answer took %v", elapsed)
	}
}
