package core

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"minegame/internal/game"
	"minegame/internal/miner"
	"minegame/internal/netmodel"
	"minegame/internal/numeric"
	"minegame/internal/obs"
)

// TestSolveTelemetryCounters pins the hot-path instrumentation contract:
// an observed solve reports its demand-oracle traffic, memo efficiency,
// warm-start quality, and share passes, and the miner layer's
// KKT fast-path hit rates reach the process-default observer. The
// share-function follower calls no best response, so the KKT counters
// are checked on best-response iteration (game.SolveNEAggregate) of the
// same market.
func TestSolveTelemetryCounters(t *testing.T) {
	ob := obs.New()
	// The miner best responses report through obs.Default (they have no
	// options struct to carry an observer); route it to this test's
	// observer and restore afterwards.
	prev := obs.SetDefault(ob)
	defer obs.SetDefault(prev)

	cfg := Config{
		Mode:    netmodel.Connected,
		N:       4,
		Budgets: []float64{200, 210, 190, 205}, // heterogeneous → numeric demand oracle
		Reward:  1000, Beta: 0.2, SatisfyProb: 0.7,
		CostE: 2, CostC: 1,
	}
	res, err := SolveStackelberg(cfg, StackelbergOptions{Workers: 1, Observer: ob})
	if err != nil {
		t.Fatalf("SolveStackelberg: %v", err)
	}
	if !res.Converged {
		t.Fatalf("solve did not converge; telemetry assertions below assume a clean run")
	}

	snap := ob.Snapshot()
	probes := snap.Counters["core.demand_probes_total"]
	if probes == 0 {
		t.Error("core.demand_probes_total = 0, want > 0")
	}
	if snap.Counters["core.demand_memo_hits_total"] == 0 {
		t.Error("core.demand_memo_hits_total = 0: the leader grids revisit prices, some probes must hit the memo")
	}
	if snap.Counters["game.sweeps_total"] == 0 {
		t.Error("game.sweeps_total = 0, want > 0")
	}

	// Every numeric probe measures its distance from its start (the seed
	// at its prices); samples land in core.warm_start_distance.
	wd, ok := snap.Histograms["core.warm_start_distance"]
	if !ok || wd.Count == 0 {
		t.Errorf("core.warm_start_distance missing or empty: %+v", snap.Histograms)
	} else if wd.Min < 0 {
		t.Errorf("warm-start distance must be non-negative, min = %g", wd.Min)
	}

	// Every share pass reaches game.sweeps_total: the passes summed
	// over the solves equal the counter.
	it, ok := snap.Histograms["game.solve_ne.iterations"]
	if !ok || int64(it.Sum) != snap.Counters["game.sweeps_total"] {
		t.Errorf("Σ game.solve_ne.iterations = %g, want game.sweeps_total = %d",
			it.Sum, snap.Counters["game.sweeps_total"])
	}

	// KKT paths: calls always tick, warm hits dominate once the
	// best-response iteration settles, and every other call is answered
	// by the KKT kernel — there is no fallback tier.
	params := cfg.Params(res.Prices)
	iter := game.SolveNEAggregate(cfg.ColdStart(res.Prices), func(i int, own, others numeric.Point2) numeric.Point2 {
		return miner.BestResponseConnected(params, cfg.Budget(i), envFromOthers(others), own)
	}, game.NEOptions{Tol: 1e-9})
	if !iter.Converged {
		t.Fatalf("best-response iteration did not converge in %d sweeps", iter.Iterations)
	}
	snap = ob.Snapshot()
	calls := snap.Counters["miner.best_response_calls_total"]
	warm := snap.Counters["miner.kkt_warm_hits_total"]
	if calls == 0 {
		t.Error("miner.best_response_calls_total = 0, want > 0")
	}
	if warm == 0 {
		t.Error("miner.kkt_warm_hits_total = 0: warm-started sweeps must settle some responses via KKT")
	}
	if warm+snap.Counters["miner.kkt_analytic_hits_total"] != calls {
		t.Errorf("KKT hits (%d warm + %d kernel) != calls (%d)",
			warm, snap.Counters["miner.kkt_analytic_hits_total"], calls)
	}
}

// TestStandaloneBargainCountsProbes pins the standalone bargain's
// follower solves: each clearing-price solve is exactly one demand
// probe on core.demand_probes_total, one share solve of the
// capacity-bound market that finds the price and the totals together,
// so the only other share solve is the final follower solve at the
// winning prices, and no capacity-free market is probed.
func TestStandaloneBargainCountsProbes(t *testing.T) {
	ob := obs.New()
	cfg := Config{
		Mode:    netmodel.Standalone,
		N:       4,
		Budgets: []float64{200, 210, 190, 205}, // heterogeneous → numeric clearing price
		Reward:  1000, Beta: 0.2, SatisfyProb: 0.7, EdgeCapacity: 20,
		CostE: 2, CostC: 1,
	}
	res, err := SolveStackelberg(cfg, StackelbergOptions{Workers: 1, Observer: ob})
	if err != nil {
		t.Fatalf("SolveStackelberg: %v", err)
	}
	snap := ob.Snapshot()
	probes, clearing := snap.Counters["core.demand_probes_total"], snap.Counters["core.clearing_price_solves_total"]
	if clearing == 0 {
		t.Fatalf("core.clearing_price_solves_total = 0: the numeric bargain did not run (prices %+v)", res.Prices)
	}
	if probes != clearing {
		t.Errorf("core.demand_probes_total = %d, want one per clearing-price solve (%d)", probes, clearing)
	}
	if solves := snap.Histograms["game.solve_ne.iterations"].Count; solves != clearing+1 {
		t.Errorf("%d share solves, want %d: one per clearing-price solve and the final follower solve", solves, clearing+1)
	}
}

// TestSolveTelemetryDisabledIsSilent pins the zero-cost-when-disabled
// contract: a solve against a disabled observer records nothing.
func TestSolveTelemetryDisabledIsSilent(t *testing.T) {
	ob := obs.New()
	ob.SetEnabled(false)
	prev := obs.SetDefault(ob)
	defer obs.SetDefault(prev)

	cfg := Config{
		Mode: netmodel.Connected,
		N:    3, Budgets: []float64{200}, Reward: 1000, Beta: 0.2,
		SatisfyProb: 0.7, CostE: 2, CostC: 1,
	}
	if _, err := SolveStackelberg(cfg, StackelbergOptions{Workers: 1, Observer: ob}); err != nil {
		t.Fatalf("SolveStackelberg: %v", err)
	}
	snap := ob.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Histograms) != 0 {
		t.Errorf("disabled observer recorded metrics: counters=%v histograms=%v",
			snap.Counters, snap.Histograms)
	}
}

// priceMissConnected is a connected market shaped like the serving
// benchmark's price-miss items: n miners with budgets stratified over
// [8, 12] (one draw per equal-width stratum), R = 100, β = 0.5,
// h = 0.9 and costs (1, 0.5).
func priceMissConnected(n int, budgets ...float64) Config {
	if budgets == nil {
		for i := 0; i < n; i++ {
			budgets = append(budgets, 8+4*(float64(i)+0.37+0.05*float64(i%3))/float64(n))
		}
	}
	return Config{
		Mode: netmodel.Connected, N: n, Budgets: budgets,
		Reward: 100, Beta: 0.5, SatisfyProb: 0.9, CostE: 1, CostC: 0.5,
	}
}

// TestConnectedProbesTakeFewPasses pins the cost of a leader-stage
// demand probe: seeded from the market's closed form at its own prices,
// a probe of a budget-bound connected market clears in a few share
// passes, wherever the leader grid puts it.
func TestConnectedProbesTakeFewPasses(t *testing.T) {
	for _, cfg := range []Config{
		priceMissConnected(5),
		priceMissConnected(6),
		priceMissConnected(5, 8.1, 9.7, 10.2, 10.9, 11.8),
	} {
		ob := obs.New()
		if _, err := SolveStackelberg(cfg, StackelbergOptions{Workers: 1, Observer: ob}); err != nil {
			t.Fatalf("N = %d: %v", cfg.N, err)
		}
		snap := ob.Snapshot()
		probes, passes := snap.Counters["core.demand_probes_total"], snap.Counters["game.sweeps_total"]
		if probes < 100 {
			t.Fatalf("N = %d: %d probes; the leader grids did not run", cfg.N, probes)
		}
		// The passes include the final solve's, so the mean is an upper
		// bound on the probes' own.
		if mean := float64(passes) / float64(probes); mean > 4 {
			t.Errorf("N = %d budgets %v: %.1f passes per probe (%d over %d probes), want ≤ 4", cfg.N, cfg.Budgets, mean, passes, probes)
		}
	}
}

// TestSinklessProbeAllocatesAsDisabled pins the cost of telemetry that
// no sink records: a connected probe solved against an enabled observer
// with no trace writer and no flight recorder allocates exactly as
// often as one solved against a disabled observer. The observer's
// histograms are filled to their sample cap first, so that the
// amortized growth of their buffers does not count.
func TestSinklessProbeAllocatesAsDisabled(t *testing.T) {
	cfg := priceMissConnected(5)
	m := exactMarket(cfg)
	p := Prices{Edge: 3.1, Cloud: 1.7}
	allocs := func(ob *obs.Observer) float64 {
		opts := game.NEOptions{Observer: ob}
		probe := func() {
			if _, err := m.probe(p, opts, warmStart{}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 2100; i++ {
			probe()
		}
		return testing.AllocsPerRun(200, probe)
	}
	off := obs.New()
	off.SetEnabled(false)
	on := obs.New()
	if got, want := allocs(on), allocs(off); got != want {
		t.Errorf("probe allocates %v times with an enabled, sink-less observer, %v with a disabled one", got, want)
	}
	if on.Snapshot().Counters["game.sweeps_total"] == 0 {
		t.Error("the enabled observer recorded no passes")
	}
}

// TestSolveTraceRecords pins what a recorded follower solve writes: one
// game.sweep event per share pass, then the game.solve_ne span, with
// their sequence numbers, timestamps and fields.
func TestSolveTraceRecords(t *testing.T) {
	ob := obs.New()
	at := time.Date(2024, 1, 2, 3, 4, 5, 6, time.UTC)
	ob.SetClock(func() time.Time { return at })
	var buf bytes.Buffer
	ob.SetTrace(&buf)
	eq, err := SolveMinerEquilibrium(priceMissConnected(5), Prices{Edge: 3.1, Cloud: 1.7}, game.NEOptions{Observer: ob})
	if err != nil {
		t.Fatal(err)
	}
	if err := ob.Flush(); err != nil {
		t.Fatal(err)
	}
	var recs []obs.TraceRecord
	dec := json.NewDecoder(&buf)
	for dec.More() {
		var r obs.TraceRecord
		if err := dec.Decode(&r); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, r)
	}
	passes := eq.Iterations
	if passes < 1 || len(recs) != passes+1 {
		t.Fatalf("%d records for %d passes, want one event per pass and a span", len(recs), passes)
	}
	ts := at.Format(time.RFC3339Nano)
	var last any
	for i, r := range recs[:passes] {
		// The span took sequence number 1 when it started.
		if r.Type != "event" || r.Name != "game.sweep" || r.Seq != uint64(i+2) || r.TS != ts || r.DurMS != nil || r.SpanID != 0 {
			t.Errorf("record %d = %+v, want game.sweep event %d at %s", i, r, i+2, ts)
		}
		if len(r.Fields) != 3 || r.Fields["solver"] != "share_function" || r.Fields["iter"] != float64(i+1) {
			t.Errorf("game.sweep %d fields = %v", i, r.Fields)
		}
		last = r.Fields["max_delta"]
		if d, ok := last.(float64); !ok || d < 0 {
			t.Errorf("game.sweep %d max_delta = %v", i, last)
		}
	}
	span := recs[passes]
	if span.Type != "span" || span.Name != "game.solve_ne" || span.Seq != uint64(passes+2) || span.SpanID != 1 ||
		span.ParentID != 0 || span.TS != ts || span.DurMS == nil || *span.DurMS != 0 {
		t.Errorf("span record = %+v", span)
	}
	want := obs.Fields{
		"players": float64(5), "solver": "share_function", "tol": float64(0), "damping": float64(0),
		"iterations": float64(passes), "converged": true, "max_delta": last,
	}
	if !reflect.DeepEqual(span.Fields, want) {
		t.Errorf("game.solve_ne fields = %v, want %v", span.Fields, want)
	}
}
