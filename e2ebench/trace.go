package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval of the traced run: an op, an HTTP request the
// op made, or a call into one layer's public entry point. Spans of one op
// share its op id; Parent is 0 for a root.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Op     int     `json:"op"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"` // since the run began
	End    float64 `json:"end_ms"`
	// Bytes is the response body size of a request span.
	Bytes int `json:"bytes,omitempty"`
}

func (s span) ms() float64 { return s.End - s.Start }

// tracer keeps spans and per-call samples in memory until the run ends. A
// nil *tracer records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	t0      time.Time
	mu      sync.Mutex
	spans   []span
	samples map[string][]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), samples: make(map[string][]float64)}
}

func (t *tracer) since(at time.Time) float64 {
	return float64(at.Sub(t.t0).Nanoseconds()) / 1e6
}

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return 0
	}
	now := t.since(time.Now())
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: now, End: now})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := t.since(time.Now())
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// endBytes closes a request span and records its response size.
func (t *tracer) endBytes(id, n int) {
	if t == nil || id == 0 {
		return
	}
	now := t.since(time.Now())
	t.mu.Lock()
	t.spans[id-1].End, t.spans[id-1].Bytes = now, n
	t.mu.Unlock()
}

// add records a span whose interval was measured elsewhere, such as a
// build phase reported by lattice.BuildStats.
func (t *tracer) add(name string, parent, op int, start, end float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: start, End: end})
	t.mu.Unlock()
}

// startOf returns the start offset of span id.
func (t *tracer) startOf(id int) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id-1].Start
}

// sample records one value of a per-call quantity (cluster counts, ratios).
func (t *tracer) sample(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.samples[name] = append(t.samples[name], v)
	t.mu.Unlock()
}

// write dumps every span and sample as JSON.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"spans": t.spans, "samples": t.samples}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns every span's duration minus the part of its interval
// that its children cover, keyed by span id.
func selfTimes(spans []span) map[int]float64 {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int]float64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.ms() - covered(s, kids[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's interval.
func covered(parent span, children []span) float64 {
	type iv struct{ lo, hi float64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := math.Max(c.Start, parent.Start), math.Min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	total, curLo, curHi := 0.0, 0.0, 0.0
	for i, v := range ivs {
		switch {
		case i == 0:
			curLo, curHi = v.lo, v.hi
		case v.lo > curHi:
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
		case v.hi > curHi:
			curHi = v.hi
		}
	}
	if len(ivs) > 0 {
		total += curHi - curLo
	}
	return total
}

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of xs: the
// smallest value with at least a q share of the samples at or below it.
// It is 0 for no samples.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// median is the middle value (mean of the two middle values for an even
// count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
