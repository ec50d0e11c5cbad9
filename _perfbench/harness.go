package main

import (
	"fmt"
	"io"
	"path/filepath"
	"runtime/metrics"
	"syscall"
	"time"

	"minegame/internal/obs"
)

// session is one set-up workload. The harness times only do; prepare
// and check run between timed calls.
type session interface {
	// prepare builds item i's input.
	prepare(i int) error
	// do runs item i's timed call: one request, or one library call.
	do(i int) error
	// check verifies item i's output and returns how many items the
	// call completed, how many of them failed, and any failed checks.
	check(i int) (items, failed int, bad []string)
	// observers lists the observers whose counters the traced run
	// reads besides obs.Default().
	observers() []*obs.Observer
	// replay re-runs item i through direct library calls, recording a
	// span around each call (traced run only); it returns failed checks.
	replay(i int, rec *recorder) ([]string, error)
	// layers adds the workload's per-layer metrics.
	layers(t *tracedRun, m map[string]metric)
	// finish runs the checks that need the whole timed window.
	finish() []string
	close() error
}

type runConfig struct {
	seed     int64
	seconds  float64
	traceDir string
}

const (
	// setupRepeats set-ups run per process; setup_s is their median.
	setupRepeats = 3
	// setupRefs kernel measurements after each set-up normalize it.
	setupRefs = 9
	// sliceMs of timed work runs between two kernel measurements.
	sliceMs = 25
	// aloneRefs kernel measurements back to back give machine.ref_alone_ms.
	aloneRefs = 15
	// Traced-run phases, as shares of --seconds: untraced, traced, and
	// the direct-call replay of the traced items.
	tracedPlainShare = 0.2
	tracedSpanShare  = 0.3
)

// phase is one closed-loop window of timed calls.
type phase struct {
	first, next int       // item indices [first, next)
	rawMs       []float64 // per call, as measured
	normMs      []float64 // per call, at nominal machine speed
	cpuMs       []float64 // per call, normalized process CPU
	callItems   []int     // per call, items completed
	refMs       []float64 // kernel medians measured in the window
	items       int
	failed      int
	allocB      float64 // bytes allocated over the timed calls
	gcCPUs      float64 // GC CPU seconds over the window
	procCPUs    float64 // process CPU seconds over the window
	heapMB      float64 // live heap after call heapAt, 0 if not reached
	bad         []string
}

// window returns the calls the timing metrics cover: the longest prefix
// made of whole cycles of the workload's input mix (all calls when not
// even one cycle completed), so every run times the same mix.
func (p phase) window(cycle int) phase {
	n := len(p.rawMs) / cycle * cycle
	if n == 0 {
		return p
	}
	w := p
	w.rawMs, w.normMs, w.cpuMs, w.callItems = p.rawMs[:n], p.normMs[:n], p.cpuMs[:n], p.callItems[:n]
	w.items = 0
	for _, k := range w.callItems {
		w.items += k
	}
	return w
}

// blockMs is the least normalized timed work in one throughput block.
const blockMs = 1000

// blockRates returns items per second (over the call times callMs) and
// CPU ms per item as medians over consecutive blocks of at least
// blockMs of timed work, each made of whole cycles: a stall of a shared
// host moves one block, not the run. A window shorter than two blocks
// reports its totals.
func (p phase) blockRates(cycle int, callMs []float64) (itemsPerS, cpuMsPerItem float64) {
	var rates, cpus []float64
	var items int
	var ms, cpu float64
	for c := range callMs {
		items += p.callItems[c]
		ms += callMs[c]
		cpu += p.cpuMs[c]
		if (c+1)%cycle == 0 && ms >= blockMs {
			rates = append(rates, ratio(float64(items), ms/1e3))
			cpus = append(cpus, ratio(cpu, float64(items)))
			items, ms, cpu = 0, 0, 0
		}
	}
	if len(rates) < 2 {
		return ratio(float64(p.items), sum(callMs)/1e3), p.cpuMsPerItem()
	}
	return median(rates), median(cpus)
}

func (p phase) itemsPerS() float64 { return ratio(float64(p.items), sum(p.normMs)/1e3) }
func (p phase) wallItemsPerS() float64 {
	return ratio(float64(p.items), sum(p.rawMs)/1e3)
}
func (p phase) cpuMsPerItem() float64 { return ratio(sum(p.cpuMs), float64(p.items)) }

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

type harness struct {
	k *refKernel
	// heapAt, when positive, makes loop read the live heap after that
	// many calls.
	heapAt int
	// rawSetupS is the median set-up time before normalization.
	rawSetupS float64
}

func newHarness() *harness {
	k := newRefKernel()
	k.measure() // fault the walk table in before anything is timed
	return &harness{k: k}
}

// setup builds the workload setupRepeats times, each a complete set-up
// from nothing, and keeps the last session. It returns the median
// normalized set-up time in seconds.
func (h *harness) setup(w workload, seed int64) (session, float64, error) {
	var times, rawTimes []float64
	var s session
	for r := 0; r < setupRepeats; r++ {
		if s != nil {
			if err := s.close(); err != nil {
				return nil, 0, err
			}
		}
		start := time.Now()
		var err error
		s, err = w.setup(seed)
		raw := time.Since(start).Seconds()
		if err != nil {
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
		refs := make([]float64, setupRefs)
		for i := range refs {
			refs[i] = h.k.measure()
		}
		times = append(times, normalize(raw, median(refs)))
		rawTimes = append(rawTimes, raw)
	}
	h.rawSetupS = median(rawTimes)
	return s, median(times), nil
}

// aloneRef is the kernel's median time with no workload in between.
func (h *harness) aloneRef() float64 {
	xs := make([]float64, aloneRefs)
	for i := range xs {
		xs[i] = h.k.measure()
	}
	return median(xs)
}

// loop runs items first, first+1, ... until d has elapsed, measuring
// the kernel between slices of about sliceMs of timed work. Each call's
// time is normalized by refAround its slice. onCall, when non-nil, sees
// each timed call's interval.
func (h *harness) loop(s session, first int, d time.Duration, onCall func(i int, start, end time.Time)) (phase, error) {
	p := phase{first: first, next: first}
	gc0, cpu0 := gcCPUSeconds(), processCPUNs()
	t0 := time.Now()
	deadline := t0.Add(d)
	var refAt []float64 // seconds since t0 at which each refMs was taken
	var slices []slice
	measure := func() {
		refAt = append(refAt, time.Since(t0).Seconds())
		p.refMs = append(p.refMs, h.k.measure())
	}
	measure()
	var cpuRaw []float64
	for time.Now().Before(deadline) {
		sl := slice{from: len(p.rawMs), ref: len(p.refMs) - 1, start: time.Since(t0).Seconds()}
		var sliceNs float64
		for sliceNs < sliceMs*1e6 && time.Now().Before(deadline) {
			i := p.next
			if err := s.prepare(i); err != nil {
				return p, err
			}
			c0, a0 := processCPUNs(), allocBytes()
			start := time.Now()
			err := s.do(i)
			end := time.Now()
			cpuRaw = append(cpuRaw, (processCPUNs()-c0)/1e6)
			p.allocB += allocBytes() - a0
			if err != nil {
				return p, fmt.Errorf("item %d: %w", i, err)
			}
			if onCall != nil {
				onCall(i, start, end)
			}
			items, failed, bad := s.check(i)
			p.items += items
			p.callItems = append(p.callItems, items)
			p.failed += failed
			p.bad = append(p.bad, bad...)
			raw := float64(end.Sub(start).Nanoseconds())
			p.rawMs = append(p.rawMs, raw/1e6)
			sliceNs += raw
			p.next++
			if len(p.rawMs) == h.heapAt {
				p.heapMB = heapLiveMB()
			}
		}
		sl.end = time.Since(t0).Seconds()
		slices = append(slices, sl)
		// A long slice gets more kernel measurements (about 7% of its
		// length), so a call lasting seconds is normalized by a median of
		// many samples rather than by the two that bracket it.
		for k := 0; k < refSamples(sliceNs); k++ {
			measure()
		}
	}
	p.gcCPUs = gcCPUSeconds() - gc0
	p.procCPUs = (processCPUNs() - cpu0) / 1e9
	for j, sl := range slices {
		ref := refAround(p.refMs, refAt, sl.ref, sl.start, sl.end)
		to := len(p.rawMs)
		if j+1 < len(slices) {
			to = slices[j+1].from
		}
		for c := sl.from; c < to; c++ {
			p.normMs = append(p.normMs, normalize(p.rawMs[c], ref))
			p.cpuMs = append(p.cpuMs, normalize(cpuRaw[c], ref))
		}
	}
	if p.items == 0 {
		return p, errNoItems
	}
	return p, nil
}

// slice is a run of timed calls between two kernel measurements.
type slice struct {
	from       int     // index of its first call
	ref        int     // index of the kernel measurement just before it
	start, end float64 // seconds since the loop started
}

// refSamples is the number of kernel measurements after a slice of
// sliceNs of timed work: one per 50 ms, at least 1 and at most 20.
func refSamples(sliceNs float64) int {
	n := int(sliceNs / 50e6)
	if n < 1 {
		return 1
	}
	if n > 20 {
		return 20
	}
	return n
}

// refWindowS is how far around a slice kernel measurements count.
const refWindowS = 1.0

// refAround is the kernel time next to a slice: the median of the two
// measurements bracketing it (refMs[j], refMs[j+1]) and every other
// measurement within refWindowS of it. One kernel measurement lasts
// about 3 ms and is at the mercy of a momentary stall; the window makes
// the reference follow the host's speed over the slice's own time scale
// instead.
func refAround(refMs, refAt []float64, j int, start, end float64) float64 {
	lo, hi := j, j+1
	for lo > 0 && refAt[lo-1] >= start-refWindowS {
		lo--
	}
	for hi+1 < len(refMs) && refAt[hi+1] <= end+refWindowS {
		hi++
	}
	return median(refMs[lo : hi+1])
}

// runPlain is the untraced run: the end-to-end metrics.
func runPlain(w workload, cfg runConfig, stderr io.Writer) (result, error) {
	h := newHarness()
	s, setupS, err := h.setup(w, cfg.seed)
	if err != nil {
		return result{}, err
	}
	defer s.close()
	alone := h.aloneRef()
	h.heapAt = w.heapAt
	p, err := h.loop(s, 0, seconds(cfg.seconds), nil)
	if err != nil {
		return result{}, err
	}
	p.bad = append(p.bad, s.finish()...)
	heap := p.heapMB
	if heap == 0 {
		heap = heapLiveMB()
	}
	if err := s.close(); err != nil {
		return result{}, err
	}
	tw := p.window(w.cycle)
	ips, cpu := tw.blockRates(w.cycle, tw.normMs)
	wallIPS, _ := tw.blockRates(w.cycle, tw.rawMs)
	res := result{
		Correct:   len(p.bad) == 0,
		Attempted: p.items,
		Failed:    p.failed,
		Metrics: map[string]metric{
			"setup_s":         {setupS, "s"},
			"items_per_s":     {ips, "1/s"},
			"latency_p50_ms":  {median(tw.normMs), "ms"},
			"latency_p90_ms":  {quantile(tw.normMs, 0.9), "ms"},
			"cpu_ms_per_item": {cpu, "ms"},
			"heap_live_mb":    {heap, "MB"},
		},
		checks: p.bad,
	}
	reportChecks(stderr, w.name, res)
	// The raw figures behind NOTES.md's raw-vs-normalized spread table.
	fmt.Fprintf(stderr, "perfbench %s: requests=%d items=%d failed=%d wall.items_per_s=%.6g wall.latency_p50_ms=%.6g wall.latency_p90_ms=%.6g wall.setup_s=%.6g latency_p99_ms=%.6g machine.ref_ms=%.6g machine.ref_alone_ms=%.6g\n",
		w.name, len(tw.rawMs), tw.items, p.failed, wallIPS, median(tw.rawMs), quantile(tw.rawMs, 0.9),
		h.rawSetupS, quantile(tw.normMs, 0.99), median(p.refMs), alone)
	return res, nil
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func reportChecks(stderr io.Writer, name string, res result) {
	for i, c := range res.checks {
		if i == 5 {
			fmt.Fprintf(stderr, "perfbench %s: ... %d more failed checks\n", name, len(res.checks)-i)
			break
		}
		fmt.Fprintf(stderr, "perfbench %s: check failed: %s\n", name, c)
	}
}

// tracedRun carries everything the per-layer metrics are computed from.
type tracedRun struct {
	plain, traced phase
	// counters is the change of every counter, summed over the session's
	// observers and obs.Default(), across the traced window.
	counters map[string]int64
	// hists are the histograms of obs.Default() after the traced window.
	hists map[string]obs.HistStat
	rec   *recorder
	k     *refKernel
	// replayed lists the items replayed through direct calls.
	replayed []int
}

// reqMs is the normalized time of item i's timed call in the traced
// window.
func (t *tracedRun) reqMs(i int) float64 { return t.traced.normMs[i-t.traced.first] }

func counterTotals(obsv []*obs.Observer) map[string]int64 {
	out := map[string]int64{}
	for _, o := range append(obsv, obs.Default()) {
		for k, v := range o.Snapshot().Counters {
			out[k] += v
		}
	}
	return out
}

// runTraced is the traced run: an untraced window, a traced window with
// obs.Default() enabled and a span around each timed call, then a
// replay of the traced items through direct library calls.
func runTraced(w workload, cfg runConfig, stderr io.Writer) (result, error) {
	h := newHarness()
	s, _, err := h.setup(w, cfg.seed)
	if err != nil {
		return result{}, err
	}
	defer s.close()
	alone := h.aloneRef()
	t := &tracedRun{rec: newRecorder(), k: h.k}
	t.plain, err = h.loop(s, 0, seconds(cfg.seconds*tracedPlainShare), nil)
	if err != nil {
		return result{}, err
	}

	// Like the daemon, the untraced window leaves obs.Default() disabled;
	// miner.* and the fixed-price follower counters report only there.
	prev := obs.SetDefault(obs.New())
	defer obs.SetDefault(prev)
	c0 := counterTotals(s.observers())
	root := rootSpanName(w.name)
	t.traced, err = h.loop(s, t.plain.next, seconds(cfg.seconds*tracedSpanShare), func(i int, start, end time.Time) {
		t.rec.add(root, -1, i, start, end)
	})
	if err != nil {
		return result{}, err
	}
	for j := range t.rec.spans {
		t.rec.spans[j].RefMs = refNominalMs * t.traced.rawMs[j] / t.traced.normMs[j]
	}
	c1 := counterTotals(s.observers())
	t.counters = map[string]int64{}
	for k, v := range c1 {
		t.counters[k] = v - c0[k]
	}
	t.hists = obs.Default().Snapshot().Histograms

	bad := append(append(append([]string(nil), t.plain.bad...), t.traced.bad...), s.finish()...)
	replayEnd := time.Now().Add(seconds(cfg.seconds * (1 - tracedPlainShare - tracedSpanShare)))
	for i := t.traced.first; i < t.traced.next; i++ {
		if i > t.traced.first && !time.Now().Before(replayEnd) {
			break
		}
		mark := len(t.rec.spans)
		k0 := h.k.measure()
		b, err := s.replay(i, t.rec)
		if err != nil {
			return result{}, fmt.Errorf("replay item %d: %w", i, err)
		}
		t.rec.setRef(mark, (k0+h.k.measure())/2)
		bad = append(bad, b...)
		t.replayed = append(t.replayed, i)
	}
	path := filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, cfg.seed))
	if err := t.rec.write(path); err != nil {
		return result{}, err
	}

	refs := append(append([]float64(nil), t.plain.refMs...), t.traced.refMs...)
	m := map[string]metric{
		"machine.ref_ms":             {median(refs), "ms"},
		"machine.ref_alone_ms":       {alone, "ms"},
		"wall.items_per_s":           {t.plain.wallItemsPerS(), "1/s"},
		"wall.latency_p50_ms":        {median(t.plain.rawMs), "ms"},
		"process.alloc_kb_per_item":  {ratio(t.plain.allocB/1e3, float64(t.plain.items)), "kB"},
		"process.gc_cpu_pct":         {100 * ratio(t.plain.gcCPUs, t.plain.procCPUs), "%"},
		"obs.trace_overhead_pct":     {100 * (1 - ratio(t.traced.itemsPerS(), t.plain.itemsPerS())), "%"},
		"ledger.replayed_items":      {float64(len(t.replayed)), "count"},
		"parallel.queue_wait_ms_p50": {t.hists["parallel.queue_wait_ms"].P50, "ms"},
	}
	for _, name := range zeroLayerMetrics {
		m[name.name] = metric{0, name.unit}
	}
	s.layers(t, m)
	if err := s.close(); err != nil {
		return result{}, err
	}
	res := result{
		Correct:   len(bad) == 0,
		Attempted: t.plain.items + t.traced.items,
		Failed:    t.plain.failed + t.traced.failed,
		Metrics:   m,
		checks:    bad,
	}
	reportChecks(stderr, w.name, res)
	return res, nil
}

// zeroLayerMetrics are the per-layer metrics a workload whose layers do
// not run reports as 0, so every traced run prints the same names.
var zeroLayerMetrics = []struct{ name, unit string }{
	{"serve.roundtrip_ms_p50", "ms"},
	{"serve.roundtrip_ms_p99", "ms"},
	{"serve.handler_ms_p50", "ms"},
	{"serve.alloc_kb_per_request", "kB"},
	{"serve.request_kb_per_item", "kB"},
	{"serve.result_cache_hit_ratio", "ratio"},
	{"core.stackelberg_ms_p50", "ms"},
	{"core.follower_ms_p50", "ms"},
	{"core.demand_probes_per_item", "count"},
	{"core.demand_memo_hit_ratio", "ratio"},
	{"core.clearing_solves_per_item", "count"},
	{"core.demand_cache_evictions_per_item", "count"},
	{"game.sweeps_per_probe", "count"},
	{"game.leader_rounds_per_item", "count"},
	{"game.gne_probes_per_item", "count"},
	{"game.sweeps_per_solve", "count"},
	{"miner.best_response_calls_per_item", "count"},
	{"miner.kkt_fast_path_ratio", "ratio"},
	{"miner.best_response_ns", "ns"},
	{"verify.certify_ms_p50", "ms"},
	{"verify.eps_rel_p50", "ratio"},
	{"topo.events_per_item", "count"},
	{"topo.events_per_s", "1/s"},
	{"topo.replica_ms_p50", "ms"},
	{"topo.alloc_kb_per_event", "kB"},
	{"parallel.speedup", "x"},
	{"ledger.unexplained_pct", "%"},
	{"ledger.roundtrip_ms", "ms"},
	{"ledger.decode_self_ms", "ms"},
	{"ledger.solve_self_ms", "ms"},
	{"ledger.certify_self_ms", "ms"},
	{"ledger.encode_self_ms", "ms"},
}

// minerLayers adds the best-response counters, which report only
// through obs.Default().
func minerLayers(t *tracedRun, m map[string]metric) {
	calls := float64(t.counters["miner.best_response_calls_total"])
	fast := float64(t.counters["miner.kkt_warm_hits_total"] + t.counters["miner.kkt_analytic_hits_total"])
	m["miner.best_response_calls_per_item"] = metric{ratio(calls, float64(t.traced.items)), "count"}
	m["miner.kkt_fast_path_ratio"] = metric{ratio(fast, calls), "ratio"}
}

// processCPUNs is the process's user+system CPU time so far.
func processCPUNs() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano() + ru.Stime.Nano())
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
}

func readRuntime() {
	metrics.Read(runtimeSamples)
}

// allocBytes is the cumulative heap allocation so far.
func allocBytes() float64 {
	readRuntime()
	return float64(runtimeSamples[0].Value.Uint64())
}

// gcCPUSeconds is the runtime's estimate of CPU spent in GC so far.
func gcCPUSeconds() float64 {
	readRuntime()
	return runtimeSamples[1].Value.Float64()
}
