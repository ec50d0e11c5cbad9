// Command perfbench is the repository benchmark: one closed-loop
// client, one workload per run, every timing normalized by an
// interleaved reference kernel (refkernel.go). NOTES.md records why each
// workload exists, which end-to-end metric each layer metric should
// move, and the measured run-to-run spread.
//
// Usage (from the repository root):
//
//	bash _perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. --trace 0 reports the
// end-to-end metrics; --trace 1 runs the same workload with spans and
// counters on and reports the per-layer metrics instead, writing the
// spans to .bench_build/trace/. A failed output check prints
// correct=false and exits 1.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
)

// workload is one benchmark workload: its set-up builds a fresh session
// (server, inputs and an untimed warm-up prefix).
type workload struct {
	name  string
	setup func(seed int64) (session, error)
	// cycle is the period, in timed calls, of the workload's input mix.
	cycle int
	// heapAt is the timed call after which heap_live_mb is read. Resident
	// caches grow with the items served, so the heap is read after the
	// same amount of work in every run (or at the end of a shorter one).
	heapAt int
}

var workloads = []workload{
	{"serve-hit", func(seed int64) (session, error) { return newServeSession(kindHit, seed) }, 1, 2000},
	{"price-miss", func(seed int64) (session, error) { return newServeSession(kindPriceMiss, seed) }, len(priceMissCycle), 2 * len(priceMissCycle)},
	{"solve-wide", func(seed int64) (session, error) { return newServeSession(kindSolveWide, seed) }, 1, 250},
	{"topo-race", newTopoSession, 1, 250},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.name
		}
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", strings.Join(names, ", "))
		return 2
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, traceDir: ".bench_build/trace"}
	var res result
	var err error
	if *trace == 1 {
		res, err = runTraced(w, cfg, stderr)
	} else {
		res, err = runPlain(w, cfg, stderr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench %s: %v\n", w.name, err)
		return 1
	}
	line, err := res.marshal()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench %s: %v\n", w.name, err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// checks holds the first failed output checks, for standard error.
	checks []string
}

func (r result) marshal() ([]byte, error) {
	for name, m := range r.Metrics {
		if !validName(name) || m.Unit == "" {
			return nil, fmt.Errorf("metric %q has an invalid name or no unit", name)
		}
	}
	return json.Marshal(r)
}

// validName reports whether s is a legal metric name: a leading letter
// or digit, then at most 63 of [A-Za-z0-9_.-].
func validName(s string) bool {
	if s == "" || len(s) > 64 {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case i > 0 && (c == '_' || c == '.' || c == '-'):
		default:
			return false
		}
	}
	return true
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// heapLiveMB forces a collection and returns the live heap in MB.
func heapLiveMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

var errNoItems = errors.New("no item completed in the measured window")
