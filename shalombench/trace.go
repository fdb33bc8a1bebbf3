package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval of a traced run. Spans of one op or request
// share an ID; a span's parent is the span of the same ID named Parent.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
	Replay bool   `json:"replay,omitempty"` // a layer call re-run on the op's inputs
	Self   int64  `json:"self_ns"`          // End-Start minus the time children cover
}

func (s span) dur() int64 { return s.End - s.Start }

// maxSpans bounds the spans a run keeps in memory; later ones are counted
// as dropped and still feed the per-layer aggregates.
const maxSpans = 200_000

// tracer collects spans in memory and writes them out when the run ends. A
// nil tracer records nothing.
type tracer struct {
	t0      time.Time
	mu      sync.Mutex
	spans   []span
	dropped int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) record(name string, id int64, parent string, start, end time.Time, replay bool) {
	if t == nil {
		return
	}
	s := span{Name: name, ID: id, Parent: parent, Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(), Replay: replay}
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// computeSelf fills in each span's self time: its duration minus the union
// of its children's intervals, clipped to its own.
func computeSelf(spans []span) {
	type key struct {
		id   int64
		name string
	}
	children := make(map[key][]int)
	for i, s := range spans {
		if s.Parent != "" {
			k := key{s.ID, s.Parent}
			children[k] = append(children[k], i)
		}
	}
	for i := range spans {
		s := &spans[i]
		kids := children[key{s.ID, s.Name}]
		iv := make([][2]int64, 0, len(kids))
		for _, c := range kids {
			lo, hi := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if hi > lo {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered, curLo, curHi int64
		for j, v := range iv {
			switch {
			case j == 0:
				curLo, curHi = v[0], v[1]
			case v[0] > curHi:
				covered += curHi - curLo
				curLo, curHi = v[0], v[1]
			case v[1] > curHi:
				curHi = v[1]
			}
		}
		if len(iv) > 0 {
			covered += curHi - curLo
		}
		s.Self = s.dur() - covered
	}
}

// finish computes self times and writes the span file.
func (t *tracer) finish(path string) ([]span, error) {
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()
	computeSelf(spans)
	f, err := os.Create(path)
	if err != nil {
		return spans, err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Dropped int    `json:"dropped"`
		Spans   []span `json:"spans"`
	}{t.dropped, spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return spans, err
}
