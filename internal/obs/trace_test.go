package obs

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"
)

// failWriter fails every write after the first failAfter bytes.
type failWriter struct {
	written int
	limit   int
}

func (w *failWriter) Write(p []byte) (int, error) {
	if w.written+len(p) > w.limit {
		return 0, errors.New("disk full")
	}
	w.written += len(p)
	return len(p), nil
}

// TestTraceWriteErrorCountedNotFatal pins the error-flow contract of
// the trace sink: a failing underlying writer must never fail or panic
// the instrumented computation, and the dropped records must surface
// in the metrics snapshot as obs.trace_write_errors_total instead of
// vanishing silently. (Regression: emit used to discard the encoder's
// error outright.)
func TestTraceWriteErrorCountedNotFatal(t *testing.T) {
	o := New()
	o.SetTrace(&failWriter{}) // limit 0: every flush fails

	// A record larger than the bufio buffer forces a flush inside
	// Encode, so the write error is observed at emit time.
	big := strings.Repeat("x", 64<<10)
	o.Emit("solver.event", Fields{"payload": big})
	o.Emit("solver.event", Fields{"payload": big})

	snap := o.Snapshot()
	if got := snap.Counters["obs.trace_write_errors_total"]; got != 2 {
		t.Errorf("obs.trace_write_errors_total = %d, want 2", got)
	}
	// The computation-side surface stays usable after the failures.
	o.Count("solver.sweeps_total", 1)
	if got := o.Snapshot().Counters["solver.sweeps_total"]; got != 1 {
		t.Errorf("counter after trace failure = %d, want 1", got)
	}
}

// TestTraceHealthyWriterCountsNothing is the control: successful
// writes must not touch the error counter.
func TestTraceHealthyWriterCountsNothing(t *testing.T) {
	o := New()
	var sb strings.Builder
	o.SetTrace(&sb)
	o.Emit("solver.event", Fields{"k": 1})
	if err := o.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if got := o.Snapshot().Counters["obs.trace_write_errors_total"]; got != 0 {
		t.Errorf("obs.trace_write_errors_total = %d, want 0", got)
	}
	if !strings.Contains(sb.String(), `"solver.event"`) {
		t.Errorf("trace output missing event: %q", sb.String())
	}
}

// TestTimerSpansMatchStartSpan pins that a span opened from a Timer is
// the span StartSpan opens: the same record while a sink records, the
// same "<name>.ms" observation and sequence numbers without one, and
// the sink flag follows the trace writer and the flight recorder.
func TestTimerSpansMatchStartSpan(t *testing.T) {
	at := time.Date(2024, 1, 2, 3, 4, 5, 6, time.UTC)
	run := func(timer bool, sink bool) (Snapshot, []TraceRecord) {
		o := New()
		o.SetClock(func() time.Time { return at })
		if sink {
			o.EnableFlightRecorder(16)
		}
		if o.Recording() != sink {
			t.Fatalf("Recording() = %v with sink %v", o.Recording(), sink)
		}
		fields := Fields{"a": 1}
		if timer {
			s := o.Timer("solve").Start(fields)
			s.End(Fields{"b": 2})
		} else {
			o.StartSpan("solve", fields).End(Fields{"b": 2})
		}
		o.StartSpan("next", nil).End(nil)
		return o.Snapshot(), o.FlightRecords()
	}
	for _, sink := range []bool{false, true} {
		wantSnap, wantRecs := run(false, sink)
		gotSnap, gotRecs := run(true, sink)
		if !reflect.DeepEqual(gotSnap, wantSnap) || !reflect.DeepEqual(gotRecs, wantRecs) {
			t.Errorf("sink %v: Timer span gives\n%+v %+v\nStartSpan gives\n%+v %+v", sink, gotSnap, gotRecs, wantSnap, wantRecs)
		}
		if h := gotSnap.Histograms["solve.ms"]; h.Count != 1 {
			t.Errorf("sink %v: solve.ms = %+v, want one observation", sink, h)
		}
	}
	o := New()
	o.EnableFlightRecorder(4)
	o.DisableFlightRecorder()
	if o.Recording() {
		t.Error("Recording() after the flight recorder was detached")
	}
	var zero Timer
	s := zero.Start(nil)
	s.End(nil) // a disabled observer's Timer times nothing
}

// TestHandlesResolvedOncePerObserver pins obs.Handles: one build per
// observer and key, and nothing built or cached while disabled.
func TestHandlesResolvedOncePerObserver(t *testing.T) {
	type key struct{ name string }
	k1, k2 := &key{"a"}, &key{"a"}
	builds := 0
	build := func(o *Observer, k *key) *Counter {
		builds++
		return o.Counter(k.name)
	}
	o := New()
	o.SetEnabled(false)
	if c := Handles(o, k1, build); c != nil || builds != 0 {
		t.Fatalf("disabled observer built %d handles (%v)", builds, c)
	}
	o.SetEnabled(true)
	c1, c2, c3 := Handles(o, k1, build), Handles(o, k1, build), Handles(o, k2, build)
	if c1 == nil || c1 != c2 || c1 != c3 || builds != 2 {
		t.Errorf("handles %p %p %p after %d builds, want one counter from two builds", c1, c2, c3, builds)
	}
	if Handles(New(), k1, build) == c1 {
		t.Error("another observer shares the first one's handles")
	}
}
