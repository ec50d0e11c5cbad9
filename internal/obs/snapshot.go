package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Snapshot is a point-in-time copy of the registry, suitable for JSON
// marshaling or text rendering.
type Snapshot struct {
	Counters   map[string]int64    `json:"counters"`
	Gauges     map[string]float64  `json:"gauges"`
	Histograms map[string]HistStat `json:"histograms"`
}

// Snapshot copies out every metric currently in the registry. It works
// on a disabled observer too (metrics recorded while enabled remain
// readable); a nil observer yields an empty snapshot.
func (o *Observer) Snapshot() Snapshot {
	snap := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistStat{},
	}
	if o == nil {
		return snap
	}
	o.mu.Lock()
	counters := make(map[string]*Counter, len(o.counters))
	for k, v := range o.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(o.gauges))
	for k, v := range o.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(o.hists))
	for k, v := range o.hists {
		hists[k] = v
	}
	o.mu.Unlock()
	for k, c := range counters {
		snap.Counters[k] = c.Value()
	}
	for k, g := range gauges {
		snap.Gauges[k] = g.Value()
	}
	for k, h := range hists {
		snap.Histograms[k] = h.Stat()
	}
	return snap
}

// Empty reports whether the snapshot holds no metrics at all.
func (s Snapshot) Empty() bool {
	return len(s.Counters) == 0 && len(s.Gauges) == 0 && len(s.Histograms) == 0
}

// WriteJSON emits the snapshot as one indented JSON object. JSON has
// no NaN or infinity, so a gauge holding one — an unset gauge holds
// NaN — is left out.
func (s Snapshot) WriteJSON(w io.Writer) error {
	gauges := make(map[string]float64, len(s.Gauges))
	for k, v := range s.Gauges {
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			gauges[k] = v
		}
	}
	s.Gauges = gauges
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteText renders the snapshot as aligned, sorted text — the CLI
// `-metrics` dump format.
func (s Snapshot) WriteText(w io.Writer) error {
	var b strings.Builder
	b.WriteString("== metrics ==\n")
	if len(s.Counters) > 0 {
		b.WriteString("counters:\n")
		for _, k := range sortedKeys(s.Counters) {
			fmt.Fprintf(&b, "  %-40s %d\n", k, s.Counters[k])
		}
	}
	if len(s.Gauges) > 0 {
		b.WriteString("gauges:\n")
		for _, k := range sortedKeys(s.Gauges) {
			fmt.Fprintf(&b, "  %-40s %g\n", k, s.Gauges[k])
		}
	}
	if len(s.Histograms) > 0 {
		b.WriteString("histograms:\n")
		for _, k := range sortedKeys(s.Histograms) {
			h := s.Histograms[k]
			fmt.Fprintf(&b, "  %-40s n=%d mean=%.4g p50=%.4g p90=%.4g p99=%.4g min=%.4g max=%.4g\n",
				k, h.Count, h.Mean, h.P50, h.P90, h.P99, h.Min, h.Max)
		}
	}
	if s.Empty() {
		b.WriteString("(no metrics recorded)\n")
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// sortedKeys returns the map's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
