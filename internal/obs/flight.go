package obs

// This file holds the flight recorder: a bounded in-memory ring of the
// most recent trace records, retained even when no JSONL sink is
// attached, plus the dump-on-anomaly machinery that turns the ring into
// a postmortem JSONL bundle when something goes wrong (a non-converged
// solve, a failed equilibrium certificate, a span past the slow
// threshold). The point is serving-grade debuggability: a long-running
// pricing service cannot stream every span to disk, but when a solve
// misbehaves the last few thousand records leading up to it are exactly
// the evidence needed.

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// DefaultFlightRecorderSize is the ring capacity EnableFlightRecorder
// uses when given a non-positive capacity. At roughly 200 bytes per
// record the default bounds the recorder near 1 MB.
const DefaultFlightRecorderSize = 4096

// maxPostmortemDumps caps the number of postmortem bundles one observer
// writes, so an anomaly storm in a long-running service cannot fill the
// disk. The cap counts attempts, successful or not.
const maxPostmortemDumps = 16

// flightRecorder is the bounded ring. Records overwrite cyclically once
// the ring fills, keeping the most recent window.
type flightRecorder struct {
	mu    sync.Mutex
	buf   []TraceRecord
	next  int
	total uint64
}

func (fr *flightRecorder) add(rec TraceRecord) {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	fr.total++
	if len(fr.buf) < cap(fr.buf) {
		fr.buf = append(fr.buf, rec)
		return
	}
	fr.buf[fr.next] = rec
	fr.next = (fr.next + 1) % cap(fr.buf)
}

// records returns the ring contents oldest-first.
func (fr *flightRecorder) records() []TraceRecord {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	out := make([]TraceRecord, 0, len(fr.buf))
	out = append(out, fr.buf[fr.next:]...)
	out = append(out, fr.buf[:fr.next]...)
	return out
}

// EnableFlightRecorder attaches a bounded ring that retains the most
// recent trace records (spans, events, anomalies) even when no JSONL
// sink is attached. A non-positive capacity picks
// DefaultFlightRecorderSize. Re-enabling replaces the ring (discarding
// its contents); it does not detach an attached trace writer. No-op on a
// nil receiver.
func (o *Observer) EnableFlightRecorder(capacity int) {
	if o == nil {
		return
	}
	if capacity <= 0 {
		capacity = DefaultFlightRecorderSize
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.recorder = &flightRecorder{buf: make([]TraceRecord, 0, capacity)}
	o.syncSinksLocked()
}

// DisableFlightRecorder detaches the ring, discarding its contents.
func (o *Observer) DisableFlightRecorder() {
	if o == nil {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.recorder = nil
	o.syncSinksLocked()
}

// FlightRecords returns a copy of the flight recorder's current
// contents, oldest record first. Nil when no recorder is attached.
func (o *Observer) FlightRecords() []TraceRecord {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	fr := o.recorder
	o.mu.Unlock()
	if fr == nil {
		return nil
	}
	return fr.records()
}

// SetPostmortemDir arms dump-on-anomaly: every ReportAnomaly (up to a
// hard cap of 16 bundles per observer) writes the flight recorder's
// contents as one JSONL file under dir, named
// "postmortem-<n>-<reason>.jsonl". The directory is created on first
// dump. An empty dir disarms. Dumps require an enabled flight recorder.
func (o *Observer) SetPostmortemDir(dir string) {
	if o == nil {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.postmortemDir = dir
}

// SetSlowSpanMS sets the slow-span anomaly threshold: any span whose
// duration exceeds ms reports a "slow_span" anomaly at End. Zero (the
// default) or negative disables the trigger.
func (o *Observer) SetSlowSpanMS(ms float64) {
	if o == nil {
		return
	}
	if ms < 0 {
		ms = 0
	}
	o.slowSpanBits.Store(math.Float64bits(ms))
}

// slowSpanMS returns the slow-span threshold (0 = disabled).
func (o *Observer) slowSpanMS() float64 {
	v := math.Float64frombits(o.slowSpanBits.Load())
	if math.IsNaN(v) {
		return 0
	}
	return v
}

// ReportAnomaly marks an abnormal condition — a non-converged solve, a
// failed certificate, a span past the slow threshold. It increments the
// "obs.anomalies_total" counter, appends an "anomaly" record to the
// attached sinks, and, when a postmortem directory is armed and a flight
// recorder is attached, dumps the recorder's contents as a JSONL bundle
// (at most 16 per observer). Disabled or nil observers no-op, so
// instrumented code calls it unconditionally.
func (o *Observer) ReportAnomaly(reason string, fields Fields) {
	if !o.Enabled() {
		return
	}
	o.Count("obs.anomalies_total", 1)
	merged := Fields{"reason": reason}
	for k, v := range fields {
		merged[k] = v
	}
	o.emit(TraceRecord{Type: "anomaly", Name: "obs.anomaly", TS: o.clock().Format(time.RFC3339Nano), Fields: merged})

	o.mu.Lock()
	fr, dir := o.recorder, o.postmortemDir
	armed := fr != nil && dir != "" && o.postmortems < maxPostmortemDumps
	if armed {
		o.postmortems++
	}
	n := o.postmortems
	o.mu.Unlock()
	if !armed {
		return
	}
	if err := writePostmortem(filepath.Join(dir, fmt.Sprintf("postmortem-%03d-%s.jsonl", n, sanitizeReason(reason))), fr.records()); err == nil {
		o.Count("obs.postmortems_total", 1)
	}
}

// writePostmortem writes the records as one JSONL bundle. Errors are
// returned for accounting but never propagate to instrumented code:
// observability must not fail the computation it watches.
func writePostmortem(path string, recs []TraceRecord) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	buf := bufio.NewWriter(f)
	enc := json.NewEncoder(buf)
	for _, rec := range recs {
		if err := enc.Encode(rec); err != nil {
			return errors.Join(err, f.Close())
		}
	}
	if err := buf.Flush(); err != nil {
		return errors.Join(err, f.Close())
	}
	return f.Close()
}

// sanitizeReason maps an anomaly reason onto the filename-safe alphabet
// [a-z0-9_-], so reasons built from dynamic context cannot escape the
// postmortem directory or produce unportable names.
func sanitizeReason(reason string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(reason) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '_', r == '-':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "anomaly"
	}
	return b.String()
}
