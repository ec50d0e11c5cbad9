package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestNilAndDisabledObserversAreNoOps(t *testing.T) {
	var nilObs *Observer
	nilObs.Count("x", 1)
	nilObs.SetGauge("g", 1)
	nilObs.Observe("h", 1)
	nilObs.Emit("e", Fields{"k": 1})
	nilObs.StartSpan("s", nil).End(nil)
	if nilObs.Enabled() {
		t.Error("nil observer reports enabled")
	}
	if snap := nilObs.Snapshot(); !snap.Empty() {
		t.Errorf("nil observer snapshot not empty: %+v", snap)
	}

	o := New()
	o.SetEnabled(false)
	o.Count("x", 5)
	o.Observe("h", 2)
	o.StartSpan("s", nil).End(nil)
	if c := o.Counter("x"); c != nil {
		t.Error("disabled observer should hand out nil counters")
	}
	if !o.Snapshot().Empty() {
		t.Error("disabled observer recorded metrics")
	}
}

func TestCountersGaugesHistograms(t *testing.T) {
	o := New()
	c := o.Counter("solver.sweeps")
	c.Add(3)
	c.Inc()
	if got := c.Value(); got != 4 {
		t.Errorf("counter = %d, want 4", got)
	}
	o.SetGauge("queue.depth", 7)
	o.MaxGauge("queue.high_water", 3)
	o.MaxGauge("queue.high_water", 9)
	o.MaxGauge("queue.high_water", 5)
	for i := 1; i <= 100; i++ {
		o.Observe("delta", float64(i))
	}
	snap := o.Snapshot()
	if snap.Counters["solver.sweeps"] != 4 {
		t.Errorf("snapshot counter = %d", snap.Counters["solver.sweeps"])
	}
	if snap.Gauges["queue.depth"] != 7 || snap.Gauges["queue.high_water"] != 9 {
		t.Errorf("snapshot gauges = %+v", snap.Gauges)
	}
	h := snap.Histograms["delta"]
	if h.Count != 100 || h.Min != 1 || h.Max != 100 {
		t.Errorf("histogram stat = %+v", h)
	}
	if h.Mean != 50.5 {
		t.Errorf("histogram mean = %g, want 50.5", h.Mean)
	}
	if math.Abs(h.P50-50.5) > 1 || math.Abs(h.P90-90) > 1.5 || math.Abs(h.P99-99) > 1.5 {
		t.Errorf("histogram quantiles = p50 %g p90 %g p99 %g", h.P50, h.P90, h.P99)
	}
}

func TestHistogramBufferCapKeepsExactAggregates(t *testing.T) {
	o := New()
	n := 3 * maxHistSamples
	for i := 0; i < n; i++ {
		o.Observe("v", float64(i))
	}
	h := o.Snapshot().Histograms["v"]
	if h.Count != int64(n) {
		t.Errorf("count = %d, want %d", h.Count, n)
	}
	if h.Min != 0 || h.Max != float64(n-1) {
		t.Errorf("min/max = %g/%g", h.Min, h.Max)
	}
	wantMean := float64(n-1) / 2
	if math.Abs(h.Mean-wantMean) > 1e-9 {
		t.Errorf("mean = %g, want %g", h.Mean, wantMean)
	}
}

func TestTraceEmitsValidJSONL(t *testing.T) {
	var buf bytes.Buffer
	o := New()
	o.SetTrace(&buf)
	if !o.Tracing() {
		t.Fatal("Tracing() = false with a sink attached")
	}
	o.Emit("game.sweep", Fields{"iter": 1, "max_delta": 0.25})
	sp := o.StartSpan("game.solve_ne", Fields{"players": 5})
	sp.End(Fields{"converged": true})
	if err := o.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d trace lines, want 2:\n%s", len(lines), buf.String())
	}
	var ev struct {
		Type   string         `json:"type"`
		Name   string         `json:"name"`
		TS     string         `json:"ts"`
		Fields map[string]any `json:"fields"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil {
		t.Fatalf("event line is not JSON: %v", err)
	}
	if ev.Type != "event" || ev.Name != "game.sweep" || ev.TS == "" || ev.Fields["iter"] != float64(1) {
		t.Errorf("event line = %+v", ev)
	}
	var span struct {
		Type   string         `json:"type"`
		Name   string         `json:"name"`
		DurMS  *float64       `json:"dur_ms"`
		Fields map[string]any `json:"fields"`
	}
	if err := json.Unmarshal([]byte(lines[1]), &span); err != nil {
		t.Fatalf("span line is not JSON: %v", err)
	}
	if span.Type != "span" || span.DurMS == nil || *span.DurMS < 0 {
		t.Errorf("span line = %+v", span)
	}
	if span.Fields["players"] != float64(5) || span.Fields["converged"] != true {
		t.Errorf("span fields not merged: %+v", span.Fields)
	}
	if _, ok := o.Snapshot().Histograms["game.solve_ne.ms"]; !ok {
		t.Error("span duration did not land in the <name>.ms histogram")
	}
}

func TestSnapshotTextAndJSON(t *testing.T) {
	o := New()
	o.Count("a.count", 2)
	o.SetGauge("b.gauge", 1.5)
	o.Observe("c.hist", 3)
	var text bytes.Buffer
	if err := o.Snapshot().WriteText(&text); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"== metrics ==", "a.count", "b.gauge", "c.hist", "n=1"} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("text dump missing %q:\n%s", want, text.String())
		}
	}
	var jsonBuf bytes.Buffer
	if err := o.Snapshot().WriteJSON(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(jsonBuf.Bytes(), &snap); err != nil {
		t.Fatalf("JSON dump does not round-trip: %v", err)
	}
	if snap.Counters["a.count"] != 2 || snap.Histograms["c.hist"].Count != 1 {
		t.Errorf("round-tripped snapshot = %+v", snap)
	}
}

// TestSnapshotJSONOmitsUnsetGauges pins the JSON dump of a registry
// holding gauges JSON cannot carry: one registered but never set (NaN)
// and one set to infinity. Both are left out, the dump still encodes,
// and the set gauges round-trip.
func TestSnapshotJSONOmitsUnsetGauges(t *testing.T) {
	o := New()
	o.Gauge("unset.gauge")
	o.SetGauge("inf.gauge", math.Inf(1))
	o.SetGauge("set.gauge", 0.25)
	var buf bytes.Buffer
	if err := o.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var snap Snapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("JSON dump does not parse: %v", err)
	}
	if len(snap.Gauges) != 1 || snap.Gauges["set.gauge"] != 0.25 {
		t.Errorf("gauges = %v, want only set.gauge = 0.25", snap.Gauges)
	}
}

func TestSetDefaultSwapsAndRestores(t *testing.T) {
	orig := Default()
	o := New()
	prev := SetDefault(o)
	if prev != orig {
		t.Error("SetDefault did not return the previous default")
	}
	if Default() != o {
		t.Error("Default() did not switch")
	}
	SetDefault(prev)
	if Default() != orig {
		t.Error("default not restored")
	}
	if Default().Enabled() {
		t.Error("the initial process default must start disabled")
	}
}

func TestConcurrentRecording(t *testing.T) {
	o := New()
	o.SetTrace(&safeBuffer{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := o.Counter("shared")
			for i := 0; i < 500; i++ {
				c.Inc()
				o.MaxGauge("hw", float64(i))
				o.Observe("h", float64(i))
				if i%50 == 0 {
					o.Emit("tick", Fields{"i": i})
					o.StartSpan("work", nil).End(nil)
				}
			}
		}()
	}
	wg.Wait()
	snap := o.Snapshot()
	if snap.Counters["shared"] != 8*500 {
		t.Errorf("counter = %d, want %d", snap.Counters["shared"], 8*500)
	}
	if snap.Gauges["hw"] != 499 {
		t.Errorf("high-water gauge = %g, want 499", snap.Gauges["hw"])
	}
	if snap.Histograms["h"].Count != 8*500 {
		t.Errorf("histogram count = %d", snap.Histograms["h"].Count)
	}
}

// safeBuffer is a goroutine-safe io.Writer for the concurrency test.
type safeBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *safeBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}
