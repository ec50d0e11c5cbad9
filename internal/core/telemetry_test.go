package core

import (
	"testing"

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

	// The numeric oracle measures every probe's distance from the anchor
	// warm start; samples land in core.warm_start_distance.
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

// TestStandaloneBargainCountsProbes pins that the standalone bargain's
// follower solves (the clearing-price root's capacity-free probes, the
// CSP's profit probes and the final one at the winning prices) count on
// core.demand_probes_total like the leader grids' probes.
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
	// Each clearing solve probes the capacity-free twin at least once,
	// and each profit evaluation probes the market once more.
	if probes < 2*clearing {
		t.Errorf("core.demand_probes_total = %d, want ≥ %d for %d clearing-price solves", probes, 2*clearing, clearing)
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
