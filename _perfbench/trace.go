package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call recorded by the benchmark around a public
// function of the program: name, start, end and parent, kept in memory
// and written out when the run ends.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // -1 for a root
	Item   int     `json:"item"`
	Name   string  `json:"name"`
	Start  int64   `json:"start_ns"` // since the recorder started
	End    int64   `json:"end_ns"`
	RefMs  float64 `json:"ref_ms,omitempty"` // kernel time that normalizes it
}

func (s span) durMs() float64 { return float64(s.End-s.Start) / 1e6 }

type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// add records a span that has already ended and returns its ID.
func (r *recorder) add(name string, parent, item int, start, end time.Time) int {
	id := len(r.spans)
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Item: item, Name: name,
		Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds(),
	})
	return id
}

// open starts a span whose end close records.
func (r *recorder) open(name string, parent, item int) int {
	now := time.Now()
	return r.add(name, parent, item, now, now)
}

func (r *recorder) close(id int) { r.spans[id].End = time.Since(r.t0).Nanoseconds() }

// call records fn as one span.
func (r *recorder) call(name string, parent, item int, fn func() error) error {
	id := r.open(name, parent, item)
	err := fn()
	r.close(id)
	return err
}

// setRef sets the normalizing kernel time of spans[from:].
func (r *recorder) setRef(from int, refMs float64) {
	for i := from; i < len(r.spans); i++ {
		r.spans[i].RefMs = refMs
	}
}

// selfMs is a span's normalized duration minus the part its children
// cover (children never overlap: the benchmark makes one call at a
// time).
func (r *recorder) selfMs(id int) float64 {
	d := r.spans[id].durMs()
	for _, s := range r.spans {
		if s.Parent == id {
			d -= s.durMs()
		}
	}
	return normalize(d, r.spans[id].RefMs)
}

// normMs is a span's normalized duration.
func (r *recorder) normMs(id int) float64 { return normalize(r.spans[id].durMs(), r.spans[id].RefMs) }

// byName returns the normalized durations of every span named name.
func (r *recorder) byName(name string) []float64 {
	var out []float64
	for id, s := range r.spans {
		if s.Name == name && s.RefMs > 0 {
			out = append(out, r.normMs(id))
		}
	}
	return out
}

// selfByName sums the normalized self time of every span named name.
func (r *recorder) selfByName(name string) float64 {
	var t float64
	for id, s := range r.spans {
		if s.Name == name && s.RefMs > 0 {
			t += r.selfMs(id)
		}
	}
	return t
}

func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write trace: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}

// rootSpanName names the span around one timed call of a workload.
func rootSpanName(workload string) string {
	if workload == "topo-race" {
		return "topo.estimate_replicated"
	}
	return "serve.roundtrip"
}
