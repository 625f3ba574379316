package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// own code around the public function it calls.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0 for a root
	Layer  string  `json:"layer"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"` // since the tracer's epoch
	End    float64 `json:"end_ms"`
}

func (s span) ms() float64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer is a
// valid no-op, so the untraced run pays nothing but a nil check.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) at(x time.Time) float64 {
	return float64(x.Sub(t.epoch)) / float64(time.Millisecond)
}

// begin opens a span under parent and returns its id.
func (t *tracer) begin(parent int, layer, name string) int {
	if t == nil {
		return 0
	}
	now := t.at(time.Now())
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Layer: layer, Name: name, Start: now, End: now})
	return len(t.spans)
}

// end closes span id and returns its duration in ms.
func (t *tracer) end(id int) float64 {
	if t == nil {
		return 0
	}
	now := t.at(time.Now())
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	return t.spans[id-1].ms()
}

// add records a span whose bounds were measured elsewhere (a runner
// JobReport, a job's timestamps, a server-reported duration).
func (t *tracer) add(parent int, layer, name string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Layer: layer, Name: name, Start: t.at(start), End: t.at(end)})
	return len(t.spans)
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// childrenOf maps each span id to the spans directly under it.
func childrenOf(spans []span) map[int][]span {
	kids := map[int][]span{}
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	return kids
}

// selfTimes returns, per layer, the summed self time of all its spans:
// a span's duration minus the part of its interval that its children
// cover. kids is childrenOf of the spans.
func selfTimes(kids map[int][]span) map[string]float64 {
	out := map[string]float64{}
	var walk func(s span)
	walk = func(s span) {
		out[s.Layer] += s.ms() - covered(s, kids[s.ID])
		for _, c := range kids[s.ID] {
			walk(c)
		}
	}
	for _, s := range kids[0] {
		walk(s)
	}
	return out
}

// covered returns how much of p's interval the union of kids covers.
func covered(p span, kids []span) float64 {
	type iv struct{ a, b float64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, p.Start), min(k.End, p.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	total, end := 0.0, p.Start
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		total += v.b - max(v.a, end)
		end = v.b
	}
	return total
}

// writeSpans writes every span as one JSON document.
func writeSpans(path string, spans []span) error {
	data, err := json.MarshalIndent(spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
