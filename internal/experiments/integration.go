package experiments

// Integration-grade experiments beyond the paper's figures:
//
//	conv     — convergence diagnostics of the best-response iterations
//	           (Theorem 2 promises convergence; we measure the geometric
//	           rate).
//	e2e      — full-stack validation: the game's equilibrium is fed
//	           through the service network and the proof-of-work race
//	           simulator, and realized utilities/profits are compared
//	           with the model's predictions.
//	adaptive — the paper's §VI-C outer loop: SPs re-price by hill
//	           climbing against learning miners until a fixed point.
//	hetero   — the heterogeneous-miner Stackelberg game solved with the
//	           fully numeric follower oracle (no closed forms).

import (
	"fmt"

	"minegame/internal/chain"
	"minegame/internal/core"
	"minegame/internal/game"
	"minegame/internal/miner"
	"minegame/internal/netmodel"
	"minegame/internal/numeric"
	"minegame/internal/obs"
	"minegame/internal/population"
	"minegame/internal/rl"
	"minegame/internal/sim"
)

// sweepDeltas returns a private observer whose flight recorder keeps a
// solve's trace, and a reader of the "max_delta" field of every
// "game.sweep" event recorded so far, in sweep order. The default ring
// (4096 records) holds every sweep of the traced solves, whose budgets
// are at most two 500-sweep solves.
func sweepDeltas() (*obs.Observer, func() []float64) {
	ob := obs.New()
	ob.EnableFlightRecorder(0)
	return ob, func() []float64 {
		var deltas []float64
		for _, rec := range ob.FlightRecords() {
			if rec.Type == "event" && rec.Name == "game.sweep" {
				deltas = append(deltas, rec.Fields["max_delta"].(float64))
			}
		}
		return deltas
	}
}

// runConvergence traces the miner-subgame best-response iterations in
// both modes and reports their geometric contraction rates. The solvers
// behind core.SolveMinerEquilibrium find the equilibrium as a root
// instead of iterating, so the connected traces drive
// game.SolveNEAggregate directly: the paper's Algorithm 1 is the object
// of study here.
func runConvergence(Config) (Result, error) {
	prices := defaultPrices()
	base := baseConfig()
	params := base.Params(prices)
	br := func(i int, own, others numeric.Point2) numeric.Point2 {
		if others.E < 0 {
			others.E = 0
		}
		if others.C < 0 {
			others.C = 0
		}
		return miner.BestResponseConnected(params, base.Budget(i),
			miner.Env{EdgeOthers: others.E, CloudOthers: others.C}, own)
	}
	trace := func(cfg core.Config, gne bool, opts game.NEOptions) ([]float64, error) {
		ob, deltas := sweepDeltas()
		opts.Observer = ob
		if opts.Tol == 0 {
			opts.Tol = 1e-9
		}
		var err error
		if gne {
			_, err = core.SolveMinerGNE(cfg, prices, opts)
		} else {
			// A cold start keeps the traces meaningful: the iteration itself
			// is measured, not a closed-form seed.
			game.SolveNEAggregate(cfg.ColdStart(prices), br, opts)
		}
		return deltas(), err
	}
	conn, err := trace(base, false, game.NEOptions{})
	if err != nil {
		return Result{}, fmt.Errorf("conv connected: %w", err)
	}
	// Undamped parallel updates OVERSHOOT for n = 5 miners (every player
	// responds to the same stale profile, so the aggregate response slope
	// exceeds one) — capture a bounded slice of the oscillation.
	jacRaw, err := trace(base, false, game.NEOptions{Jacobi: true, MaxIter: 40})
	if err != nil {
		return Result{}, fmt.Errorf("conv jacobi undamped: %w", err)
	}
	jacDamped, err := trace(base, false, game.NEOptions{Jacobi: true, Damping: 0.3})
	if err != nil {
		return Result{}, fmt.Errorf("conv jacobi damped: %w", err)
	}
	aloneCfg := standaloneConfig()
	aloneCfg.EdgeCapacity = 20
	alone, err := trace(aloneCfg, true, game.NEOptions{})
	if err != nil {
		return Result{}, fmt.Errorf("conv standalone: %w", err)
	}
	// Fictitious play on the same connected subgame: stable but with a
	// slow averaging tail (MaxDelta here is the equilibrium residual).
	ob, fpDeltas := sweepDeltas()
	{
		start := make([]numeric.Point2, base.N)
		for i := range start {
			start[i] = numeric.Point2{E: 2, C: 10}
		}
		game.SolveNEFictitiousAggregate(start, br, game.NEOptions{
			MaxIter:  60,
			Tol:      1e-9,
			Observer: ob,
		})
	}
	fp := fpDeltas()
	t := Table{
		ID:    "conv",
		Title: "best-response sweep deltas: Gauss–Seidel, Jacobi (undamped/damped), GNE, fictitious play",
		Columns: []string{
			"sweep", "delta_connected", "delta_jacobi_undamped", "delta_jacobi_damped", "delta_gne", "residual_fictitious",
		},
	}
	n := len(conn)
	for _, xs := range [][]float64{jacRaw, jacDamped, alone, fp} {
		if len(xs) > n {
			n = len(xs)
		}
	}
	at := func(xs []float64, i int) float64 {
		if i < len(xs) {
			return xs[i]
		}
		return 0
	}
	for i := 0; i < n; i++ {
		t.AddRow(float64(i+1), at(conn, i), at(jacRaw, i), at(jacDamped, i), at(alone, i), at(fp, i))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("geometric contraction rates: Gauss–Seidel %.3f, damped Jacobi %.3f, GNE %.3f",
			game.ContractionRate(conn), game.ContractionRate(jacDamped), game.ContractionRate(alone)),
		"sequential (Gauss–Seidel) sweeps converge geometrically (Theorems 2/5); fully parallel undamped updates oscillate for n = 5 and need damping — relevant for truly distributed miner implementations",
		"fictitious play is unconditionally stable but pays an O(1/t) averaging tail: its residual decays polynomially, not geometrically")
	return Result{Tables: []Table{t}}, nil
}

// runEndToEnd feeds the solved equilibrium through every substrate: the
// service network disposes of the requests (transfer coins), the
// proof-of-work race decides the winners, billing follows the paper's
// rules — and the realized per-miner utilities and provider profits are
// compared with the game model's predictions.
func runEndToEnd(cfg Config) (Result, error) {
	gameCfg := baseConfig()
	prices := defaultPrices()
	eq, err := core.SolveMinerEquilibrium(gameCfg, prices, game.NEOptions{})
	if err != nil {
		return Result{}, fmt.Errorf("e2e equilibrium: %w", err)
	}
	net := gameCfg.Network(prices, blockInterval)
	rng := sim.NewRNG(cfg.Seed, "e2e")
	rounds := cfg.rounds(40000)

	reqs := make([]netmodel.Request, gameCfg.N)
	for i, r := range eq.Requests {
		reqs[i] = netmodel.Request{MinerID: i, Edge: r.E, Cloud: r.C}
	}
	wins := make([]int, gameCfg.N)
	var billedPerRound float64
	for _, r := range reqs {
		billedPerRound += net.Spend(r)
	}
	for round := 0; round < rounds; round++ {
		outcomes, _, err := net.Serve(reqs, rng)
		if err != nil {
			return Result{}, fmt.Errorf("e2e serve: %w", err)
		}
		race := net.RaceConfig(outcomes)
		result, err := chain.SimulateRound(race, rng)
		if err != nil {
			return Result{}, fmt.Errorf("e2e race: %w", err)
		}
		wins[result.WinnerID]++
	}

	t := Table{
		ID:      "e2e",
		Title:   "end-to-end: realized utilities from serviced, simulated mining vs the model",
		Columns: []string{"miner", "model_winprob", "realized_winprob", "model_utility", "realized_utility"},
	}
	for i := range reqs {
		realizedW := float64(wins[i]) / float64(rounds)
		realizedU := gameCfg.Reward*realizedW - net.Spend(reqs[i])
		t.AddRow(float64(i+1), eq.WinProbs[i], realizedW, eq.Utilities[i], realizedU)
	}
	t.Notes = append(t.Notes,
		"realized winning probabilities sum to 1 (a physical race always has one winner); the model's connected-mode probabilities sum to 1−β+βh by construction",
		"the realized-vs-model gap is the combined effect of the conditional-degradation approximation (Eq. 9) and the exogenous β (see ablbeta/ablenv)")
	sp := Table{
		ID:      "e2esp",
		Title:   "end-to-end provider accounting per round",
		Columns: []string{"quantity", "value"},
		Notes: []string{
			"quantity codes: 1 = ESP revenue, 2 = CSP revenue, 3 = ESP profit, 4 = CSP profit, 5 = total billed (= Σ miner spend)",
		},
	}
	_, sum, err := net.Serve(reqs, rng)
	if err != nil {
		return Result{}, err
	}
	sp.AddRow(1, net.ESP.Price*sum.EdgeDemand)
	sp.AddRow(2, net.CSP.Price*sum.CloudDemand)
	sp.AddRow(3, net.ESPProfit(sum))
	sp.AddRow(4, net.CSPProfit(sum))
	sp.AddRow(5, billedPerRound)
	return Result{Tables: []Table{t, sp}}, nil
}

// runAdaptivePricing runs the paper's outer loop — miners learn at fixed
// prices, then the SPs hill-climb their prices — and compares the fixed
// point with the analytic Stackelberg equilibrium.
func runAdaptivePricing(cfg Config) (Result, error) {
	gameCfg := baseConfig()
	analytic, err := core.SolveStackelberg(gameCfg, core.StackelbergOptions{})
	if err != nil {
		return Result{}, fmt.Errorf("adaptive analytic: %w", err)
	}
	rng := sim.NewRNG(cfg.Seed, "adaptive-pricing")
	rebuild := func(pe, pc float64) (*rl.Trainer, error) {
		grid, err := rl.NewActionGrid(pe, pc, defaultBudget, 9, 9)
		if err != nil {
			return nil, err
		}
		net := gameCfg.Network(core.Prices{Edge: pe, Cloud: pc}, blockInterval)
		pool := make([]rl.Learner, gameCfg.N)
		for i := range pool {
			l, err := rl.NewEpsilonGreedy(len(grid.Actions), rl.EpsilonGreedyConfig{SampleAverage: true, MinEpsilon: 0.03})
			if err != nil {
				return nil, err
			}
			pool[i] = l
		}
		return rl.NewTrainer(grid, rl.ModelEnv{Net: net, Reward: gameCfg.Reward}, population.Degenerate(gameCfg.N), pool, rng)
	}
	profits := func(tr *rl.Trainer, pe, pc float64) (float64, float64) {
		mean := tr.MeanGreedy()
		n := float64(gameCfg.N)
		return (pe - gameCfg.CostE) * mean.E * n, (pc - gameCfg.CostC) * mean.C * n
	}
	res, err := rl.AdaptivePricing([2]float64{analytic.Prices.Edge, analytic.Prices.Cloud}, rebuild, profits, rl.AdaptiveConfig{
		Periods:      8,
		EpisodesEach: cfg.rounds(20000),
		MinPriceE:    gameCfg.CostE,
		MinPriceC:    gameCfg.CostC,
	})
	if err != nil {
		return Result{}, fmt.Errorf("adaptive loop: %w", err)
	}
	t := Table{
		ID:      "adaptive",
		Title:   "adaptive SP pricing against learning miners vs the analytic Stackelberg equilibrium",
		Columns: []string{"quantity", "analytic", "learned_fixed_point"},
		Notes: []string{
			"quantity codes: 1 = P_e, 2 = P_c, 3 = ESP profit, 4 = CSP profit, 5 = edge demand E",
			"the loop is seeded at the analytic prices, and the learned prices stay within 50% of them; that bounds the drift but does not certify a fixed point of the learning dynamics, since small moves of the seed prices move the learned ones",
		},
	}
	t.AddRow(1, analytic.Prices.Edge, res.PriceE)
	t.AddRow(2, analytic.Prices.Cloud, res.PriceC)
	t.AddRow(3, analytic.ProfitE, res.ProfitE)
	t.AddRow(4, analytic.ProfitC, res.ProfitC)
	t.AddRow(5, analytic.Follower.EdgeDemand, res.EdgeDemand)
	return Result{Tables: []Table{t}}, nil
}

// runHeterogeneous solves the full two-stage game for a heterogeneous
// population with the purely numeric follower oracle — the paper's
// general case (Theorem 2 + Algorithm 1); distinct budgets admit no
// closed-form shortcut.
func runHeterogeneous(cfg Config) (Result, error) {
	gameCfg := baseConfig()
	gameCfg.Budgets = []float64{80, 120, 160, 200, 240}
	res, err := core.SolveStackelberg(gameCfg, cfg.stackOpts(core.StackelbergOptions{
		Leader: game.LeaderOptions{GridN: 24},
	}))
	if err != nil {
		return Result{}, fmt.Errorf("hetero stackelberg: %w", err)
	}
	t := Table{
		ID:      "hetero",
		Title:   "heterogeneous-budget Stackelberg equilibrium (numeric follower oracle)",
		Columns: []string{"miner", "budget", "e_star", "c_star", "spend", "utility", "winprob"},
	}
	params := gameCfg.Params(res.Prices)
	for i, r := range res.Follower.Requests {
		t.AddRow(float64(i+1), gameCfg.Budget(i), r.E, r.C, params.Spend(r),
			res.Follower.Utilities[i], res.Follower.WinProbs[i])
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("equilibrium prices P_e=%.4f P_c=%.4f, profits V_e=%.2f V_c=%.2f (leader converged: %v)",
			res.Prices.Edge, res.Prices.Cloud, res.ProfitE, res.ProfitC, res.Converged),
		"richer miners buy weakly more of both resources and win more often")
	return Result{Tables: []Table{t}}, nil
}
