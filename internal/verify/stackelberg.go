package verify

// Stackelberg certificates: the follower-level ε-Nash/feasibility
// certificate plus the price stage's own conditions — profit accounting,
// price floors above provider costs, and first-order residuals of the
// leaders' pricing problems. The leader checks re-solve the miner
// subgame at perturbed prices through the public solver entry point, so
// they certify the anticipated-demand structure without sharing any
// leader-search internals.

import (
	"fmt"
	"math"

	"minegame/internal/core"
	"minegame/internal/game"
	"minegame/internal/miner"
	"minegame/internal/netmodel"
	"minegame/internal/numeric"
)

// CertifyStackelberg checks a solved two-stage game. On top of the
// follower certificate (every check of Certify) it verifies:
//
//   - profits: V_e = (P_e−C_e)·E and V_c = (P_c−C_c)·C as reported;
//   - price_floor: both prices at or above the providers' unit costs;
//   - leader first-order residuals (unless opts.SkipLeader): in
//     connected mode, small relative own-price perturbations of either
//     leader must not raise its profit beyond leaderGainTol
//     (follower demand re-solved at every probe); in standalone mode
//     with binding capacity, the paper's Problem 2c structure instead —
//     P_e is market-clearing (unconstrained edge demand covers E_max at
//     P_e but not at P_e(1+probe)) and the CSP cannot gain by moving
//     P_c along the clearing curve.
//
// The returned error reports malformed inputs only; the verification
// verdict is Certificate.OK.
func CertifyStackelberg(cfg core.Config, res core.StackelbergResult, opts Options) (Certificate, error) {
	cert, err := certifyStackelberg(cfg, res, opts)
	if err == nil {
		opts.recordCert(cert)
	}
	return cert, err
}

// certifyStackelberg is CertifyStackelberg without the telemetry record.
func certifyStackelberg(cfg core.Config, res core.StackelbergResult, opts Options) (Certificate, error) {
	cert, err := certify(cfg, res.Prices, res.Follower, opts)
	if err != nil {
		return Certificate{}, err
	}
	cert.Kind = "stackelberg"
	opts = opts.withDefaults()

	profitScale := 1 + math.Max(math.Abs(res.ProfitE), math.Abs(res.ProfitC))
	wantE := (res.Prices.Edge - cfg.CostE) * res.Follower.EdgeDemand
	wantC := (res.Prices.Cloud - cfg.CostC) * res.Follower.CloudDemand
	profitRes := math.Max(math.Abs(wantE-res.ProfitE), math.Abs(wantC-res.ProfitC))
	cert.add("profits", profitRes/profitScale, opts.ConsistTol,
		"reported leader profits vs margin × demand")

	floor := math.Max(cfg.CostE-res.Prices.Edge, cfg.CostC-res.Prices.Cloud)
	cert.add("price_floor", math.Max(0, floor), feasibilityTol*(1+cfg.CostE+cfg.CostC),
		"equilibrium prices must not undercut provider costs")

	if opts.SkipLeader {
		return cert, nil
	}

	warm := res.Follower.Requests.Clone()
	profitAt := func(p core.Prices) (pe, pc float64, ok bool) {
		eq, err := core.SolveMinerEquilibriumFrom(cfg, p, game.NEOptions{}, warm)
		if err != nil {
			return 0, 0, false
		}
		return (p.Edge - cfg.CostE) * eq.EdgeDemand, (p.Cloud - cfg.CostC) * eq.CloudDemand, true
	}

	capacityBinds := cfg.Mode == netmodel.Standalone && !math.IsInf(cfg.EdgeCapacity, 1) &&
		res.Follower.EdgeDemand >= cfg.EdgeCapacity*(1-slackTol)
	if capacityBinds {
		certifyClearingLeaders(&cert, cfg, res, opts, profitAt)
		return cert, nil
	}

	// Price-stage stationarity: neither leader may improve its profit by
	// a small unilateral own-price move, the other's price held fixed.
	// The probe ladder spans probe/4 … 4·probe: at a true optimum every
	// rung sees at most second-order gain, while at an off-equilibrium
	// price the gain grows linearly with the rung.
	var gainE, gainC float64
	for _, d := range [...]float64{
		-4 * leaderMove, -leaderMove, -leaderMove / 4,
		leaderMove / 4, leaderMove, 4 * leaderMove,
	} {
		if ve, _, ok := profitAt(core.Prices{Edge: res.Prices.Edge * (1 + d), Cloud: res.Prices.Cloud}); ok {
			gainE = math.Max(gainE, ve-res.ProfitE)
		}
		if _, vc, ok := profitAt(core.Prices{Edge: res.Prices.Edge, Cloud: res.Prices.Cloud * (1 + d)}); ok {
			gainC = math.Max(gainC, vc-res.ProfitC)
		}
	}
	cert.add("leader_foc_esp", gainE/profitScale, leaderGainTol,
		fmt.Sprintf("ESP profit gain from ±%.2g%% own-price probes", 100*leaderMove))
	cert.add("leader_foc_csp", gainC/profitScale, leaderGainTol,
		fmt.Sprintf("CSP profit gain from ±%.2g%% own-price probes", 100*leaderMove))
	return cert, nil
}

// certifyClearingLeaders adds the standalone Problem 2c checks: the ESP
// price clears the market for its capacity, and the CSP cannot profit
// from moving its price along the clearing curve.
func certifyClearingLeaders(
	cert *Certificate,
	cfg core.Config,
	res core.StackelbergResult,
	opts Options,
	profitAt func(core.Prices) (float64, float64, bool),
) {
	unc := cfg
	unc.EdgeCapacity = math.Inf(1)
	warm := res.Follower.Requests.Clone()
	demandUnconstrained := func(p core.Prices) (float64, bool) {
		eq, err := core.SolveMinerEquilibriumFrom(unc, p, game.NEOptions{}, warm)
		if err != nil {
			return 0, false
		}
		return eq.EdgeDemand, true
	}

	// Market clearing: at P_e the unrationed miners would buy the whole
	// capacity; at P_e(1+probe) they would not — P_e is (within the probe
	// resolution) the highest price that still sells out.
	if e, ok := demandUnconstrained(res.Prices); ok {
		cert.add("esp_clearing_lo", math.Max(0, (cfg.EdgeCapacity-e)/cfg.EdgeCapacity), slackTol,
			fmt.Sprintf("unconstrained edge demand %g must cover capacity %g at P_e", e, cfg.EdgeCapacity))
	}
	if e, ok := demandUnconstrained(core.Prices{Edge: res.Prices.Edge * (1 + leaderMove), Cloud: res.Prices.Cloud}); ok {
		cert.add("esp_clearing_hi", math.Max(0, (e-cfg.EdgeCapacity)/cfg.EdgeCapacity), slackTol,
			fmt.Sprintf("unconstrained edge demand %g must fall below capacity %g just above P_e", e, cfg.EdgeCapacity))
	}

	// CSP stationarity along the clearing curve: perturb P_c, recompute
	// the clearing P_e, and re-solve. A probe that fails to produce a
	// clearing price (capacity stops binding there) is skipped — the CSP
	// cannot be credited with a gain from leaving the Problem 2c regime.
	var gainC float64
	probed := false
	for _, d := range [...]float64{-4 * leaderMove, -leaderMove, leaderMove, 4 * leaderMove} {
		pc := res.Prices.Cloud * (1 + d)
		pe, ok := clearingPriceAt(cfg, pc, res, opts, demandUnconstrained)
		if !ok {
			continue
		}
		if _, vc, ok := profitAt(core.Prices{Edge: pe, Cloud: pc}); ok {
			gainC = math.Max(gainC, vc-res.ProfitC)
			probed = true
		}
	}
	if probed {
		scale := 1 + math.Abs(res.ProfitC)
		cert.add("leader_foc_csp", gainC/scale, leaderGainTol,
			fmt.Sprintf("CSP profit gain from ±%.2g%% probes along the market-clearing curve", 100*leaderMove))
	}
}

// clearingPriceAt returns the market-clearing edge price at the given
// CSP price: the closed form for homogeneous sufficient-budget miners
// (Table II regime), otherwise a Brent root of the decreasing
// unconstrained edge demand less the capacity, re-solved through the
// public follower entry point and independent of the solver's
// one-solve clearing root.
func clearingPriceAt(
	cfg core.Config,
	pc float64,
	res core.StackelbergResult,
	opts Options,
	demandUnconstrained func(core.Prices) (float64, bool),
) (float64, bool) {
	if cfg.Homogeneous() {
		pe := miner.ClearingPriceEdge(cfg.Reward, cfg.Beta, pc, cfg.N, cfg.EdgeCapacity)
		params := cfg.Params(core.Prices{Edge: pe, Cloud: pc})
		if params.Validate() == nil && pe > pc {
			if sol, err := miner.HomogeneousStandalone(params, cfg.N, cfg.EdgeCapacity); err == nil &&
				params.Spend(sol.Request) <= cfg.Budget(0) {
				return pe, true
			}
		}
	}
	lo := math.Max(pc*(1+1e-6), cfg.CostE+1e-9)
	hi := math.Max(res.Prices.Edge*4, lo*2)
	dLo, ok := demandUnconstrained(core.Prices{Edge: lo, Cloud: pc})
	if !ok || dLo < cfg.EdgeCapacity {
		return 0, false
	}
	dHi, ok := demandUnconstrained(core.Prices{Edge: hi, Cloud: pc})
	if !ok {
		return 0, false
	}
	if dHi >= cfg.EdgeCapacity {
		return hi, true
	}
	pe, err := numeric.BrentRoot(func(pe float64) float64 {
		d, ok := demandUnconstrained(core.Prices{Edge: pe, Cloud: pc})
		if !ok {
			return -cfg.EdgeCapacity
		}
		return d - cfg.EdgeCapacity
	}, lo, hi, 1e-6*(1+hi))
	if err != nil {
		return 0, false
	}
	return pe, true
}
