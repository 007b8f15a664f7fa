package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded from outside it.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0 for the root
	Layer  string  `json:"layer"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"` // since the recorder started
	End    float64 `json:"end_ms"`
}

func (s span) dur() float64 { return s.End - s.Start }

// spanRecorder keeps spans in memory until the run ends. Calls nest
// through a stack, so it belongs to one goroutine: the traced run makes
// every spanned call from its main goroutine.
type spanRecorder struct {
	t0    time.Time
	spans []span
	stack []int
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{t0: time.Now()} }

func (r *spanRecorder) now() float64 { return ms(time.Since(r.t0)) }

// do runs f inside a span and returns the span's duration in ms.
func (r *spanRecorder) do(layer, name string, f func()) float64 {
	parent := 0
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Layer: layer, Name: name, Start: r.now()})
	r.stack = append(r.stack, id)
	f()
	r.stack = r.stack[:len(r.stack)-1]
	r.spans[id-1].End = r.now()
	return r.spans[id-1].dur()
}

// selfTimes returns each span's duration minus the part of it its
// children cover, indexed like spans.
func selfTimes(spans []span) []float64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]float64, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, reach := 0.0, s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// layerSelfTimes sums self time by layer.
func layerSelfTimes(spans []span) map[string]float64 {
	out := map[string]float64{}
	for i, t := range selfTimes(spans) {
		out[spans[i].Layer] += t
	}
	return out
}

// write saves the spans as a JSON array.
func (r *spanRecorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(r.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// report prints each layer's self time and share of the run.
func (r *spanRecorder) report(w io.Writer) {
	by := layerSelfTimes(r.spans)
	total := 0.0
	for _, v := range by {
		total += v
	}
	fmt.Fprintf(w, "layer self time (%d spans, %.0f ms):\n", len(r.spans), total)
	for _, l := range sortedKeys(by) {
		fmt.Fprintf(w, "  %-16s %10.1f ms %6.1f%%\n", l, by[l], 100*by[l]/total)
	}
}
