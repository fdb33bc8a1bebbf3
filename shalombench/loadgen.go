package main

import (
	"bytes"
	"context"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// poissonSchedule returns n due offsets of a Poisson arrival process at
// rate (per second), drawn from the seed and salt.
func poissonSchedule(seed, salt uint64, rate float64, dur time.Duration) []time.Duration {
	r := rand.New(rand.NewPCG(seed, salt))
	var dues []time.Duration
	t := 0.0
	for {
		t += r.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= dur {
			return dues
		}
		dues = append(dues, d)
	}
}

// sample is one request of an open-loop phase. Times are offsets from the
// phase start; latency runs from when the request was due, so a stall
// delays every request queued behind it, not only the one it hit.
type sample struct {
	idx       int
	due, sent time.Duration
	done      time.Duration
	status    int
	err       error
	// Filled by the response check.
	ok          bool
	batchSize   int
	queueWaitUS float64
	attempts    int
}

func (s sample) latencyUS() float64 {
	if !s.ok {
		return math.Inf(1)
	}
	return float64((s.done - s.due).Nanoseconds()) / 1e3
}

func (s sample) lagUS() float64 { return float64((s.sent - s.due).Nanoseconds()) / 1e3 }

// loadgen is an open-loop generator: a fixed number of workers take the
// requests of a schedule in order, each sending as soon as its request is
// due (or at once, when it is already late) and waiting for the answer.
// The schedule never waits for the system; the workers bound only how many
// requests are in flight.
type loadgen struct {
	client  *http.Client
	url     string
	workers int
	// body returns request i's wire bytes.
	body func(i int) []byte
	// prepare may add headers to request i before it is sent.
	prepare func(i int, req *http.Request)
	// check reads request i's response into s; it runs after the latency
	// is taken.
	check func(i, status int, body []byte, s *sample)
	// stopAfter, when positive, ends the phase early: no request is sent
	// later than this after the start, and run returns only the requests
	// taken before then.
	stopAfter time.Duration
	// onDone, when set, observes request i's completion.
	onDone func(i int, sent, done time.Time)
}

// run executes one phase: request i is due at start+dues[i]. It returns the
// samples and start.
func (g *loadgen) run(ctx context.Context, dues []time.Duration) ([]sample, time.Time) {
	samples := make([]sample, len(dues))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < g.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if g.stopAfter > 0 && time.Since(start) >= g.stopAfter {
					return
				}
				i := int(next.Add(1) - 1)
				if i >= len(dues) || ctx.Err() != nil {
					return
				}
				s := &samples[i]
				s.idx, s.due = i, dues[i]
				if wait := time.Until(start.Add(dues[i])); wait > 0 {
					time.Sleep(wait)
				}
				sentAt := time.Now()
				s.sent = sentAt.Sub(start)
				g.send(ctx, i, s, start, sentAt)
			}
		}()
	}
	wg.Wait()
	return samples[:min(int(next.Load()), len(samples))], start
}

func (g *loadgen) send(ctx context.Context, i int, s *sample, start, sentAt time.Time) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, g.url, bytes.NewReader(g.body(i)))
	if err != nil {
		s.err = err
		return
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	if g.prepare != nil {
		g.prepare(i, req)
	}
	resp, err := g.client.Do(req)
	if err != nil {
		s.err = err
		s.done = time.Since(start)
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	doneAt := time.Now()
	s.done = doneAt.Sub(start)
	s.status = resp.StatusCode
	if g.onDone != nil {
		g.onDone(i, sentAt, doneAt)
	}
	if err != nil {
		s.err = err
		return
	}
	if n, err := strconv.Atoi(resp.Header.Get("X-Shalom-Attempts")); err == nil {
		s.attempts = n
	}
	if g.check != nil {
		g.check(i, resp.StatusCode, body, s)
	} else {
		s.ok = resp.StatusCode == http.StatusOK
	}
}
