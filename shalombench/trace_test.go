package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// Self times on two synthetic nested requests: each span loses exactly the
// time its own children cover, overlapping children count once, and spans
// of one request never subtract from another's.
func TestSelfTimesSynthetic(t *testing.T) {
	spans := []span{
		{Name: "client", ID: 1, Start: 0, End: 100},
		{Name: "router.ServeHTTP", ID: 1, Parent: "client", Start: 10, End: 90},
		{Name: "server.ServeHTTP", ID: 1, Parent: "router.ServeHTTP", Start: 20, End: 50},
		{Name: "server.ServeHTTP", ID: 1, Parent: "router.ServeHTTP", Start: 40, End: 70}, // a hedged attempt
		{Name: "client", ID: 2, Start: 200, End: 260},
		{Name: "router.ServeHTTP", ID: 2, Parent: "client", Start: 205, End: 255},
		{Name: "server.ServeHTTP", ID: 2, Parent: "router.ServeHTTP", Start: 210, End: 250},
	}
	computeSelf(spans)
	want := []int64{20, 30, 30, 30, 10, 10, 40}
	for i, s := range spans {
		if s.Self != want[i] {
			t.Errorf("span %d (%s #%d): self %d, want %d", i, s.Name, s.ID, s.Self, want[i])
		}
	}
}

// Two traced requests through the real router and server: the client,
// router and backend spans of each request join on its id and nest.
func TestServeSpansJoin(t *testing.T) {
	st, err := startStack(true)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	var pool []*servedReq
	for _, o := range genServePool(9)[:2] {
		q, err := newServedReq(o)
		if err != nil {
			t.Fatal(err)
		}
		pool = append(pool, q)
	}
	st.traceOn.Store(true)
	res := st.phase(context.Background(), pool, []time.Duration{0, 20 * time.Millisecond})
	st.traceOn.Store(false)
	for _, s := range res.samples {
		if !s.ok {
			t.Fatalf("request %d failed: %d %v", s.idx, s.status, s.err)
		}
	}
	spans := append([]span(nil), st.tr.spans...)
	computeSelf(spans)
	byID := map[int64]map[string]span{}
	for _, s := range spans {
		if byID[s.ID] == nil {
			byID[s.ID] = map[string]span{}
		}
		byID[s.ID][s.Name] = s
	}
	if len(byID) != 2 {
		t.Fatalf("spans of %d requests, want 2: %+v", len(byID), spans)
	}
	for id, m := range byID {
		c, r, b := m["client"], m["router.ServeHTTP"], m["server.ServeHTTP"]
		if len(m) != 3 || r.Parent != "client" || b.Parent != "router.ServeHTTP" {
			t.Fatalf("request %d: spans %+v", id, m)
		}
		if !(c.Start <= r.Start && r.Start <= b.Start && b.End <= r.End && r.End <= c.End) {
			t.Errorf("request %d: spans do not nest: %+v", id, m)
		}
		if r.Self != r.dur()-b.dur() || c.Self != c.dur()-r.dur() || b.Self != b.dur() {
			t.Errorf("request %d: self times %d/%d/%d for durations %d/%d/%d", id, c.Self, r.Self, b.Self, c.dur(), r.dur(), b.dur())
		}
	}
}

// A backend stalled once delays the requests queued behind the stalled one:
// timed from when they were due, their latency shows the stall; timed from
// when they were sent, it would not.
func TestOpenLoopChargesStallToQueuedRequests(t *testing.T) {
	const stall = 80 * time.Millisecond
	var n atomic.Int64
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 5 {
			time.Sleep(stall)
		}
	}))
	defer backend.Close()
	dues := make([]time.Duration, 60)
	for i := range dues {
		dues[i] = time.Duration(i) * 5 * time.Millisecond
	}
	g := &loadgen{client: backend.Client(), url: backend.URL, workers: 1, body: func(int) []byte { return nil }}
	samples, _ := g.run(context.Background(), dues)
	if len(samples) != len(dues) {
		t.Fatalf("%d samples", len(samples))
	}
	// Request 5 is due 5 ms after the stalled request 4 and is sent only
	// once the stall ends.
	q := samples[5]
	if lat := q.latencyUS(); lat < 0.6*float64(stall.Microseconds()) {
		t.Errorf("request queued behind the stall: latency %.0f µs, want ≥ %.0f", lat, 0.6*float64(stall.Microseconds()))
	}
	if q.lagUS() < 0.5*float64(stall.Microseconds()) {
		t.Errorf("generator lag %.0f µs does not show the stall", q.lagUS())
	}
	if service := (q.done - q.sent).Microseconds(); service > stall.Microseconds()/4 {
		t.Errorf("request 5 itself took %d µs; the stall belongs to request 4", service)
	}
	if last := samples[len(samples)-1].latencyUS(); last > float64(stall.Microseconds())/4 {
		t.Errorf("the backlog never drained: last latency %.0f µs", last)
	}
}
