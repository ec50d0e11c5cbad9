// Package obs is the repository's zero-dependency instrumentation layer:
// a metrics registry (counters, gauges, histograms with quantile
// summaries), named spans, and a structured JSONL trace sink behind any
// io.Writer. Every iterative process in the reproduction — best-response
// sweeps, price bargaining, GNEP multiplier search, mining races, bandit
// training — reports through an *Observer, so convergence behavior that
// the paper only states as theorems becomes measurable at runtime.
//
// The package is built for zero-cost disablement: a disabled (or nil)
// Observer turns every recording call into a single nil/atomic check, so
// instrumented hot paths run at full speed when nobody is watching (see
// bench_test.go for the numbers). Instrumented code can either accept an
// explicit *Observer or fall back to the process-wide Default, which
// starts disabled.
package obs

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Fields is the structured payload attached to trace events and spans.
type Fields map[string]any

// Observer is a metrics registry plus an optional trace sink. The zero
// value is not usable; construct with New. All methods are safe for
// concurrent use and safe on a nil receiver (they become no-ops), so
// instrumented code never needs nil guards.
type Observer struct {
	enabled atomic.Bool
	clock   func() time.Time
	// seq is the shared monotonic ID space for trace-record sequence
	// numbers and span IDs; it makes offline reconstruction of a trace
	// deterministic regardless of goroutine interleaving.
	seq atomic.Uint64
	// slowSpanBits holds the slow-span anomaly threshold in ms as raw
	// float bits (0 = disabled); see SetSlowSpanMS.
	slowSpanBits atomic.Uint64
	// sinks mirrors trace != nil || recorder != nil, so that Recording
	// and emit read it without taking mu.
	sinks atomic.Bool
	// handles caches what Handles built, by key.
	handles sync.Map

	mu            sync.Mutex
	counters      map[string]*Counter
	gauges        map[string]*Gauge
	hists         map[string]*Histogram
	trace         *traceWriter
	recorder      *flightRecorder
	postmortemDir string
	postmortems   int
}

// New returns an enabled observer with no trace sink. Attach one with
// SetTrace to additionally stream span/event lines as JSONL.
func New() *Observer {
	o := &Observer{
		clock:    time.Now,
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
	o.enabled.Store(true)
	return o
}

// defaultObserver is the process-wide fallback used by instrumented code
// that was not handed an explicit Observer. It starts disabled so library
// use pays only the enabled check.
var defaultObserver atomic.Pointer[Observer]

func init() {
	d := New()
	d.enabled.Store(false)
	defaultObserver.Store(d)
}

// Default returns the process-wide observer. It is never nil.
func Default() *Observer { return defaultObserver.Load() }

// SetDefault installs o as the process-wide observer and returns the
// previous one (so callers, e.g. tests, can restore it). A nil o resets
// the default to a fresh disabled observer.
func SetDefault(o *Observer) *Observer {
	if o == nil {
		o = New()
		o.enabled.Store(false)
	}
	return defaultObserver.Swap(o)
}

// Enabled reports whether recording calls will be honored.
func (o *Observer) Enabled() bool { return o != nil && o.enabled.Load() }

// SetEnabled flips the recording gate. Disabling does not clear
// already-recorded metrics.
func (o *Observer) SetEnabled(v bool) {
	if o != nil {
		o.enabled.Store(v)
	}
}

// SetClock replaces the observer's time source — span durations and
// trace timestamps come from it. For deterministic trace fixtures in
// tests; call before any recording starts (the field is read without
// synchronization on the hot path). Nil restores time.Now; no-op on a
// nil receiver.
func (o *Observer) SetClock(now func() time.Time) {
	if o == nil {
		return
	}
	if now == nil {
		now = time.Now
	}
	o.clock = now
}

// Counter returns the named monotonic counter, creating it on first use.
// It returns nil — whose methods are no-ops — when the observer is
// disabled, so hot loops can hoist the lookup and keep a single nil
// check per iteration.
func (o *Observer) Counter(name string) *Counter {
	if !o.Enabled() {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	c, ok := o.counters[name]
	if !ok {
		c = &Counter{}
		o.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Nil (no-op)
// when disabled.
func (o *Observer) Gauge(name string) *Gauge {
	if !o.Enabled() {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	g, ok := o.gauges[name]
	if !ok {
		g = &Gauge{}
		g.bits.Store(math.Float64bits(math.NaN()))
		o.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use. Nil
// (no-op) when disabled.
func (o *Observer) Histogram(name string) *Histogram {
	if !o.Enabled() {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	h, ok := o.hists[name]
	if !ok {
		h = newHistogram()
		o.hists[name] = h
	}
	return h
}

// Handles returns the handles build(o, key) made the first time Handles
// ran with key on o, calling build then. Instrumented hot paths resolve
// their metrics through it once per observer instead of by name (under
// the registry lock) on every call. Keys are compared as interface
// values: a package-level pointer is unique to its package and, with a
// pointer T, keeps a repeat lookup free of allocation. A disabled or
// nil observer gets T's zero value and caches nothing. Handles resolved
// while enabled stay live after SetEnabled(false), so callers check
// Enabled before recording through them.
func Handles[K comparable, T any](o *Observer, key K, build func(o *Observer, key K) T) T {
	if !o.Enabled() {
		var zero T
		return zero
	}
	if h, ok := o.handles.Load(key); ok {
		return h.(T)
	}
	h, _ := o.handles.LoadOrStore(key, build(o, key))
	return h.(T)
}

// Count adds n to the named counter (convenience for one-shot call sites;
// hot loops should hoist Counter).
func (o *Observer) Count(name string, n int64) { o.Counter(name).Add(n) }

// SetGauge sets the named gauge.
func (o *Observer) SetGauge(name string, v float64) { o.Gauge(name).Set(v) }

// MaxGauge raises the named gauge to v if v exceeds its current value —
// the high-water-mark idiom.
func (o *Observer) MaxGauge(name string, v float64) { o.Gauge(name).Max(v) }

// Observe records v into the named histogram.
func (o *Observer) Observe(name string, v float64) { o.Histogram(name).Observe(v) }

// Counter is a monotonic event counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. No-op on a nil receiver.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one. No-op on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (zero on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value (or high-water-mark) metric.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v. No-op on a nil receiver.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Max raises the gauge to v if v exceeds the current value (an unset
// gauge holds NaN, which any v replaces). No-op on a nil receiver.
func (g *Gauge) Max(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		cur := math.Float64frombits(old)
		if !math.IsNaN(cur) && cur >= v {
			return
		}
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the gauge (NaN when unset or on a nil receiver).
func (g *Gauge) Value() float64 {
	if g == nil {
		return math.NaN()
	}
	return math.Float64frombits(g.bits.Load())
}
