package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
	"time"
)

// traceWriter serializes JSONL trace lines onto one io.Writer.
type traceWriter struct {
	mu  sync.Mutex
	buf *bufio.Writer
	enc *json.Encoder
}

// TraceRecord is the schema of one trace line: one JSON object per line.
// Type is "event" for point-in-time records, "span" for timed regions
// (which carry DurMS), and "anomaly" for ReportAnomaly markers.
//
// Seq is a monotonic per-observer sequence number shared with span IDs:
// it totally orders every record an observer produced, regardless of the
// goroutine interleaving that wrote them, so offline reconstruction
// (internal/obs/report) is deterministic — sort by Seq, never by file
// order or wall-clock timestamps. SpanID and ParentID link span records
// into a tree: a span started with (*Span).Child carries its parent's
// SpanID; root spans carry ParentID 0.
type TraceRecord struct {
	Seq      uint64   `json:"seq,omitempty"`
	Type     string   `json:"type"`
	Name     string   `json:"name"`
	TS       string   `json:"ts"`
	DurMS    *float64 `json:"dur_ms,omitempty"`
	SpanID   uint64   `json:"span_id,omitempty"`
	ParentID uint64   `json:"parent_id,omitempty"`
	Fields   Fields   `json:"fields,omitempty"`
}

// SetTrace attaches a JSONL sink; every subsequent Emit and Span.End
// appends one line to w. Pass nil to detach. The caller owns w's
// lifetime and should call Flush (or Close on a CLISession) before
// closing it. No-op on a nil receiver.
func (o *Observer) SetTrace(w io.Writer) {
	if o == nil {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if w == nil {
		o.trace = nil
	} else {
		buf := bufio.NewWriter(w)
		o.trace = &traceWriter{buf: buf, enc: json.NewEncoder(buf)}
	}
	o.syncSinksLocked()
}

// syncSinksLocked refreshes the sinks flag; callers hold mu.
func (o *Observer) syncSinksLocked() {
	o.sinks.Store(o.trace != nil || o.recorder != nil)
}

// Tracing reports whether a JSONL trace sink is attached and the
// observer is enabled. Instrumented code gating the construction of
// Fields maps should prefer Recording, which also covers the flight
// recorder.
func (o *Observer) Tracing() bool {
	if !o.Enabled() {
		return false
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.trace != nil
}

// Recording reports whether emitted events and spans reach any sink — a
// JSONL trace writer or the flight recorder. It is the gate for building
// Fields maps that only the record stream reads: with neither sink
// attached the maps would be allocated and immediately dropped. It reads
// two atomic flags and takes no lock.
func (o *Observer) Recording() bool {
	return o.Enabled() && o.sinks.Load()
}

// Flush drains buffered trace output to the underlying writer.
func (o *Observer) Flush() error {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	tw := o.trace
	o.mu.Unlock()
	if tw == nil {
		return nil
	}
	tw.mu.Lock()
	defer tw.mu.Unlock()
	return tw.buf.Flush()
}

// Emit appends one "event" line to the trace sink and flight recorder
// (whichever are attached). The fields map is marshaled as-is; values
// must be JSON-encodable.
func (o *Observer) Emit(name string, fields Fields) {
	if !o.Recording() {
		return
	}
	o.emit(TraceRecord{Type: "event", Name: name, TS: o.clock().Format(time.RFC3339Nano), Fields: fields})
}

// emit stamps the record with the next sequence number and delivers it
// to the attached sinks. With no sink at all the record is dropped
// without consuming a sequence number, so purely-metrics sessions keep
// their IDs dense for when a sink attaches.
func (o *Observer) emit(rec TraceRecord) {
	if !o.sinks.Load() {
		return
	}
	o.mu.Lock()
	tw, fr := o.trace, o.recorder
	o.mu.Unlock()
	if tw == nil && fr == nil {
		return
	}
	rec.Seq = o.seq.Add(1)
	if fr != nil {
		fr.add(rec)
	}
	if tw == nil {
		return
	}
	tw.mu.Lock()
	err := tw.enc.Encode(rec)
	tw.mu.Unlock()
	if err != nil {
		// A failed write (e.g. a closed file) must never fail the
		// computation being watched, but the dropped record should not
		// vanish silently either: surface it in the metrics snapshot.
		o.Count("obs.trace_write_errors_total", 1)
	}
}

// Span is a timed region. Obtain one with StartSpan (or Child for a
// nested region) and finish it with End; a nil Span (from a disabled
// observer) is safe to End and to Child.
type Span struct {
	o      *Observer
	name   string
	start  time.Time
	fields Fields
	id     uint64
	parent uint64
	// ms is the "<name>.ms" histogram when a Timer resolved it; nil
	// looks it up by name at End.
	ms *Histogram
}

// StartSpan opens a named timed region. The fields recorded at start are
// merged with those supplied to End. Returns nil — safe to End — when
// the observer is disabled.
func (o *Observer) StartSpan(name string, fields Fields) *Span {
	if !o.Enabled() {
		return nil
	}
	return &Span{o: o, name: name, start: o.clock(), fields: fields, id: o.seq.Add(1)}
}

// Child opens a nested span whose trace record carries this span's ID as
// its parent, so offline reconstruction recovers the call tree. A nil
// receiver (disabled observer at StartSpan time) yields nil.
func (s *Span) Child(name string, fields Fields) *Span {
	if s == nil || !s.o.Enabled() {
		return nil
	}
	return &Span{o: s.o, name: name, start: s.o.clock(), fields: fields, id: s.o.seq.Add(1), parent: s.id}
}

// End closes the span: the duration lands in the histogram "<name>.ms"
// and, when a sink is attached, a "span" line is appended carrying the
// start timestamp, duration, span/parent IDs, and the merged start/end
// fields. With no sink attached End builds no record: it merges no
// fields and formats no timestamp. A span that exceeds the observer's
// slow-span threshold additionally reports a "slow_span" anomaly (see
// SetSlowSpanMS). The zero Span is safe to End.
func (s *Span) End(fields Fields) {
	if s == nil || !s.o.Enabled() {
		return
	}
	durMS := float64(s.o.clock().Sub(s.start)) / float64(time.Millisecond)
	if s.ms != nil {
		s.ms.Observe(durMS)
	} else {
		s.o.Observe(s.name+".ms", durMS)
	}
	if s.o.Recording() {
		s.record(fields, durMS)
	}
	if limit := s.o.slowSpanMS(); limit > 0 && durMS > limit {
		s.o.ReportAnomaly("slow_span", Fields{"span": s.name, "dur_ms": durMS, "limit_ms": limit})
	}
}

// record emits the span's trace line with the start fields merged with
// fields.
func (s *Span) record(fields Fields, durMS float64) {
	merged := s.fields
	if len(fields) > 0 {
		if merged == nil {
			merged = fields
		} else {
			for k, v := range fields {
				merged[k] = v
			}
		}
	}
	s.o.emit(TraceRecord{
		Type:     "span",
		Name:     s.name,
		TS:       s.start.Format(time.RFC3339Nano),
		DurMS:    &durMS,
		SpanID:   s.id,
		ParentID: s.parent,
		Fields:   merged,
	})
}

// Timer opens spans of one name on a hot path: it resolves the
// "<name>.ms" histogram once, and Start returns the span by value, so a
// span that no sink records allocates nothing and builds no string. A
// Timer from a disabled or nil observer is the zero Timer, whose spans
// are no-ops.
type Timer struct {
	o    *Observer
	name string
	ms   *Histogram
}

// Timer returns the Timer of spans named name.
func (o *Observer) Timer(name string) Timer {
	if !o.Enabled() {
		return Timer{}
	}
	return Timer{o: o, name: name, ms: o.Histogram(name + ".ms")}
}

// Start opens a span as StartSpan does, with the same fields, ID and
// clock, held by value. Pass nil fields unless Recording: they only
// reach the trace line.
func (t Timer) Start(fields Fields) Span {
	if !t.o.Enabled() {
		return Span{}
	}
	return Span{o: t.o, name: t.name, start: t.o.clock(), fields: fields, id: t.o.seq.Add(1), ms: t.ms}
}
