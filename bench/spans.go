package main

import (
	"sort"
	"time"
)

// span is one timed interval recorded by the benchmark around a call into
// a layer. Spans are kept in memory and written out when the traced run
// ends; nothing inside the simulator records them.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // id of the enclosing span, -1 at the top
	Name   string `json:"name"`
	// Op is the op the span belongs to (spans of one op share it); probe
	// spans carry their batch number.
	Op      int   `json:"op"`
	StartNs int64 `json:"start_ns"`
	EndNs   int64 `json:"end_ns"`
	// Count is the work the span covers (calls, lines, records ...), so
	// ratios are taken where the work happens.
	Count int64 `json:"count"`
}

// tracer records spans. A nil *tracer records nothing, which is how timed
// runs keep tracing off.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // stack of open span ids
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under the innermost open span and returns its id.
func (t *tracer) begin(name string, op int) int {
	if t == nil {
		return -1
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Op: op, StartNs: time.Since(t.t0).Nanoseconds()})
	t.open = append(t.open, id)
	return id
}

// end closes span id (the innermost open one) with its work count.
func (t *tracer) end(id int, count int64) {
	if t == nil {
		return
	}
	if len(t.open) == 0 || t.open[len(t.open)-1] != id {
		panic("bench: spans must nest")
	}
	t.open = t.open[:len(t.open)-1]
	t.spans[id].EndNs = time.Since(t.t0).Nanoseconds()
	t.spans[id].Count = count
}

// selfNs returns each span's self time: its duration minus the part its
// child spans cover. Children of one span never overlap (one goroutine
// records them), so the covered part is the sum of their durations.
func selfNs(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.EndNs - s.StartNs
		if s.Parent >= 0 {
			self[s.Parent] -= s.EndNs - s.StartNs
		}
	}
	return self
}

// durationsNs collects the durations of the spans called name, divided by
// per (1 for the span itself, or its Count when perCount is set).
func durationsNs(spans []span, name string, perCount bool) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name != name {
			continue
		}
		d := float64(s.EndNs - s.StartNs)
		if perCount {
			if s.Count == 0 {
				continue
			}
			d /= float64(s.Count)
		}
		out = append(out, d)
	}
	return out
}

// percentile returns the p-quantile (0..1) of xs by nearest rank on a
// sorted copy; 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(p*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
