package verify

// Certificates for the extension solvers: the multi-ESP subgame
// (K edge providers plus the cloud) and the dynamic-population
// symmetric equilibrium. Both search deviations with nested
// golden-section search over the budget polygon (maxOverBudget), code
// neither solver runs, and bound each gain by the miner's stake as
// certifyMarket does.

import (
	"fmt"
	"math"

	"minegame/internal/multiesp"
	"minegame/internal/population"

	"minegame/internal/miner"
	"minegame/internal/numeric"
)

// CertifyMultiESP checks a solved multi-ESP miner equilibrium:
// non-negativity and per-miner budget feasibility of every request
// vector, the per-miner best-response deviation gains (ε-Nash), and
// consistency of the reported demands, utilities, and win
// probabilities with the request profile.
func CertifyMultiESP(cfg multiesp.Config, eq multiesp.Equilibrium, opts Options) (Certificate, error) {
	if err := cfg.Validate(); err != nil {
		return Certificate{}, fmt.Errorf("certify multiesp: %w", err)
	}
	opts = opts.withDefaults()
	K := len(cfg.ESPs)
	dims := K + 1
	if len(eq.Requests) != cfg.N {
		return Certificate{}, fmt.Errorf("certify multiesp: %d request vectors for %d miners", len(eq.Requests), cfg.N)
	}
	cert := Certificate{Kind: "multiesp", Mode: "multiesp", N: cfg.N, OK: true}

	prices := make(numeric.Vec, dims)
	for d, e := range cfg.ESPs {
		prices[d] = e.Price
	}
	prices[K] = cfg.PriceC

	var negRes, budRes float64
	totals := make(numeric.Vec, dims)
	for _, x := range eq.Requests {
		if len(x) != dims {
			return Certificate{}, fmt.Errorf("certify multiesp: request has %d coordinates, want %d", len(x), dims)
		}
		for d, v := range x {
			negRes = math.Max(negRes, -v)
			totals[d] += v
		}
		budRes = math.Max(budRes, (prices.Dot(x)-cfg.Budget)/(1+cfg.Budget))
	}
	cert.add("nonneg", math.Max(0, negRes), feasibilityTol, "request coordinates must be non-negative")
	cert.add("budget", math.Max(0, budRes), feasibilityTol, "relative budget overspend across miners")

	// ε-Nash: at fixed totals a miner's utility is linear in how its edge
	// request splits across ESPs, so a best response buys edge from one
	// ESP k, where it is the single-ESP connected program at (h_k, P_k)
	// against the others' total edge and cloud demand.
	utilWant := make([]float64, cfg.N)
	probWant := make([]float64, cfg.N)
	gains := make([]float64, cfg.N)
	var eps, worst float64
	others := make(numeric.Vec, dims)
	for i, x := range eq.Requests {
		var env miner.Env
		for d := range others {
			others[d] = totals[d] - x[d]
			if d < K {
				env.EdgeOthers += others[d]
			}
		}
		env.CloudOthers = others[K]
		utilWant[i] = cfg.Utility(x, others)
		probWant[i] = cfg.WinProb(x, others)
		best := math.Inf(-1)
		for _, e := range cfg.ESPs {
			pk := miner.Params{Reward: cfg.Reward, Beta: cfg.Beta, H: e.H, PriceE: e.Price, PriceC: cfg.PriceC}
			best = math.Max(best, maxOverBudget(func(r numeric.Point2) float64 {
				return miner.UtilityConnected(pk, r, env)
			}, e.Price, cfg.PriceC, cfg.Budget))
		}
		if gain := best - utilWant[i]; gain > 0 {
			gains[i] = gain
			eps = math.Max(eps, gain)
			worst = math.Max(worst, gain/stake(cfg.Reward, cfg.N, probWant[i], prices.Dot(x)))
		}
	}
	cert.Gains = gains
	cert.Epsilon = eps
	cert.EpsilonRel = eps / cfg.Reward
	cert.add("deviation", worst, opts.GainTol,
		"max unilateral best-response gain relative to the miner's stake max(R·W_i, spend_i, R/N)")

	demandRes := 0.0
	for d, want := range totals {
		if d < len(eq.Demands) {
			demandRes = math.Max(demandRes, math.Abs(want-eq.Demands[d])/(1+math.Abs(want)))
		} else {
			demandRes = math.Inf(1)
		}
	}
	cert.add("aggregates", demandRes, opts.ConsistTol, "reported demands vs summed requests")

	uRes, uScale := sliceResidual(utilWant, eq.Utilities)
	cert.add("utilities", uRes/uScale, opts.ConsistTol, "reported utilities vs recomputed utilities")
	wRes, _ := sliceResidual(probWant, eq.WinProbs)
	cert.add("winprobs_reported", wRes, probTol, "reported win probabilities vs recomputed values")
	opts.recordCert(cert)
	return cert, nil
}

// CertifyPopulation checks a symmetric equilibrium of the
// dynamic-population game: feasibility of the common strategy, the
// symmetric best-response deviation gain under the random opponent
// count, and consistency of the reported expected demands and utility
// with the strategy and the miner-count distribution.
func CertifyPopulation(
	p miner.Params,
	pmf numeric.DiscretePMF,
	budget float64,
	form population.Degraded,
	eq population.Equilibrium,
	opts Options,
) (Certificate, error) {
	if err := p.Validate(); err != nil {
		return Certificate{}, fmt.Errorf("certify population: %w", err)
	}
	if !(budget > 0) || math.IsInf(budget, 0) {
		return Certificate{}, fmt.Errorf("certify population: budget %g must be positive and finite", budget)
	}
	if len(pmf.P) == 0 || pmf.Lo < 1 {
		return Certificate{}, fmt.Errorf("certify population: miner-count distribution must be non-empty and start at 1 or above")
	}
	opts = opts.withDefaults()
	if form == 0 {
		form = population.DegradedTransfer
	}
	maxN := pmf.Lo + len(pmf.P) - 1
	cert := Certificate{Kind: "population", Mode: "population", N: 1, OK: true}

	x := eq.Request
	spend := p.Spend(x)
	cert.add("nonneg", math.Max(0, math.Max(-x.E, -x.C)), feasibilityTol,
		"strategy coordinates must be non-negative")
	cert.add("budget", math.Max(0, (spend-budget)/(1+budget)), feasibilityTol,
		"relative budget overspend of the common strategy")

	// Symmetric ε: the gain one miner gets by deviating from the common
	// strategy while everyone else keeps playing it. The expected utility
	// is a PMF-weighted sum of terms concave in the own request.
	current := population.ExpectedUtilityForm(p, pmf, x, x, form)
	best := maxOverBudget(func(r numeric.Point2) float64 {
		return population.ExpectedUtilityForm(p, pmf, r, x, form)
	}, p.PriceE, p.PriceC, budget)
	gain := math.Max(0, best-current)
	cert.Gains = []float64{gain}
	cert.Epsilon = gain
	cert.EpsilonRel = gain / p.Reward
	w := (current + spend) / p.Reward // the expected win probability
	cert.add("deviation", gain/stake(p.Reward, maxN, w, spend), opts.GainTol,
		"symmetric best-response gain relative to the miner's stake max(R·E[W], spend, R/max N)")

	mean := pmf.Mean()
	demandRes := math.Max(
		math.Abs(mean*x.E-eq.ExpectedEdgeDemand),
		math.Abs(mean*x.C-eq.ExpectedCloudDemand),
	) / (1 + mean*(x.E+x.C))
	cert.add("aggregates", demandRes, opts.ConsistTol,
		"reported expected demands vs E[N] × strategy")
	cert.add("utilities", math.Abs(current-eq.Utility)/(1+p.Reward), opts.ConsistTol,
		"reported symmetric utility vs recomputed expected utility")
	opts.recordCert(cert)
	return cert, nil
}

// maxOverBudget is the largest value of f over the budget polygon
// {e, c ≥ 0, P_e·e + P_c·c ≤ B}: golden-section search over e of the
// golden-section maximum over c, and the three vertices. f must be
// concave in (e, c); the inner maximum is then concave in e.
func maxOverBudget(f func(numeric.Point2) float64, pe, pc, budget float64) float64 {
	eMax, cMax := budget/pe, budget/pc
	inner := func(e float64) float64 {
		_, v := numeric.MaximizeGolden(func(c float64) float64 {
			return f(numeric.Point2{E: e, C: c})
		}, 0, math.Max((budget-pe*e)/pc, 0), 0)
		return v
	}
	_, best := numeric.MaximizeGolden(inner, 0, eMax, 0)
	for _, r := range [...]numeric.Point2{{}, {E: eMax}, {C: cMax}} {
		best = math.Max(best, f(r))
	}
	return best
}
