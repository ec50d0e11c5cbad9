package miner

// Closed-form symmetric equilibria for homogeneous miners: Theorem 3,
// Corollary 1 (kept general in the transfer factor h; the paper's printed
// corollary is the h = 1 specialization) and the standalone-mode
// sufficient-budget analogues summarized in the paper's Table II.

import (
	"fmt"
	"math"

	"minegame/internal/numeric"
)

// HomogeneousSolution is a symmetric miner equilibrium.
type HomogeneousSolution struct {
	Request       numeric.Point2 // each miner's (e*, c*)
	Mixed         bool           // true when both e* > 0 and c* > 0
	BudgetBinding bool           // true when the budget constraint is active
	// CapacityBinding is set by the standalone solver when the shared
	// E ≤ E_max constraint is active; its shadow price is Multiplier.
	CapacityBinding bool
	Multiplier      float64
}

// MixedStrategyCondition reports whether the price pair admits a mixed
// connected-mode equilibrium: P_c < (1−β)·P_e / (1−β+hβ) (Theorem 3).
func MixedStrategyCondition(p Params) bool {
	return p.PriceC*(1-p.Beta+p.H*p.Beta) < (1-p.Beta)*p.PriceE
}

// HomogeneousConnected returns the symmetric Nash equilibrium of the
// connected-mode miner subgame with n ≥ 2 identical miners of the given
// budget.
//
// When the interior stationary point (Corollary 1 with h kept general),
//
//	e* = hβR(n−1)/(n²(P_e−P_c)),  s* = (1−β)R(n−1)/(n²·P_c),
//
// fits the budget, it is returned with BudgetBinding = false. Otherwise
// the budget binds and Theorem 3 applies:
//
//	e* = B·hβ/[(1−β+hβ)(P_e−P_c)]
//	c* = B·[(1−β)(P_e−P_c) − hβ·P_c]/[P_c(1−β+hβ)(P_e−P_c)].
//
// If the mixed-strategy condition fails the cheaper-and-better provider
// captures the whole demand and the pure-strategy symmetric equilibrium is
// returned instead.
func HomogeneousConnected(p Params, n int, budget float64) (HomogeneousSolution, error) {
	if err := p.Validate(); err != nil {
		return HomogeneousSolution{}, err
	}
	if n < 2 {
		return HomogeneousSolution{}, fmt.Errorf("homogeneous connected: need n ≥ 2 miners, got %d", n)
	}
	if budget <= 0 {
		return HomogeneousSolution{}, fmt.Errorf("homogeneous connected: budget %g must be positive", budget)
	}
	nf := float64(n)
	var sol HomogeneousSolution
	homogeneousConnected(&p, nf-1, nf*nf, budget, &sol)
	return sol, nil
}

// HomogeneousConnectedExpected is HomogeneousConnected for a random
// miner count N: every (n−1)/n² above becomes the expected rivalry
// m = E[(N−1)/N²]. At own = peer the expected connected utility has the
// gradient (hβR·m/e − (P_e − P_c), (1−β)R·m/s − P_c) in (e, s), which is
// the fixed-n gradient with (n−1)/n² replaced by m, so the same three
// faces (interior, budget, all-edge) solve it. m = 0 leaves no rival in
// any round and returns the zero request.
func HomogeneousConnectedExpected(p Params, m, budget float64) (HomogeneousSolution, error) {
	if err := p.Validate(); err != nil {
		return HomogeneousSolution{}, err
	}
	if !(m >= 0) || math.IsInf(m, 0) {
		return HomogeneousSolution{}, fmt.Errorf("homogeneous connected: rivalry %g must be finite and non-negative", m)
	}
	if !(budget > 0) {
		return HomogeneousSolution{}, fmt.Errorf("homogeneous connected: budget %g must be positive", budget)
	}
	var sol HomogeneousSolution
	homogeneousConnected(&p, m, 1, budget, &sol)
	return sol, nil
}

// HomogeneousConnectedLine is HomogeneousConnected as a function of
// the budget, for summing it over many budgets at once: a budget of at
// least spend plays free, and a smaller budget B plays B·perBudget, the
// binding face of the same branch. It validates p once.
func HomogeneousConnectedLine(p Params, n int) (free numeric.Point2, spend float64, perBudget numeric.Point2, err error) {
	if err := p.Validate(); err != nil {
		return numeric.Point2{}, 0, numeric.Point2{}, err
	}
	if n < 2 {
		return numeric.Point2{}, 0, numeric.Point2{}, fmt.Errorf("homogeneous connected: need n ≥ 2 miners, got %d", n)
	}
	nf := float64(n)
	var sol HomogeneousSolution
	homogeneousConnected(&p, nf-1, nf*nf, math.Inf(1), &sol)
	perBudget = numeric.Point2{E: 1 / p.PriceE}
	if p.PriceE > p.PriceC && MixedStrategyCondition(p) {
		denom := (1 - p.Beta + p.H*p.Beta) * (p.PriceE - p.PriceC)
		perBudget = numeric.Point2{
			E: p.H * p.Beta / denom,
			C: ((1-p.Beta)*(p.PriceE-p.PriceC) - p.H*p.Beta*p.PriceC) / (p.PriceC * denom),
		}
	}
	return sol.Request, p.Spend(sol.Request), perBudget, nil
}

// homogeneousConnected is the body of the closed forms, with the
// rivalry factor passed as num/den so the fixed-n form keeps its
// rounding.
func homogeneousConnected(p *Params, num, den, budget float64, sol *HomogeneousSolution) {
	if p.PriceE > p.PriceC && MixedStrategyCondition(*p) {
		eInt := p.H * p.Beta * p.Reward * num / (den * (p.PriceE - p.PriceC))
		sInt := (1 - p.Beta) * p.Reward * num / (den * p.PriceC)
		cInt := sInt - eInt
		*sol = HomogeneousSolution{
			Request: numeric.Point2{E: eInt, C: cInt},
			Mixed:   eInt > 0 && cInt > 0,
		}
		if p.Spend(sol.Request) <= budget {
			return
		}
		denom := (1 - p.Beta + p.H*p.Beta) * (p.PriceE - p.PriceC)
		e := budget * p.H * p.Beta / denom
		c := budget * ((1-p.Beta)*(p.PriceE-p.PriceC) - p.H*p.Beta*p.PriceC) / (p.PriceC * denom)
		*sol = HomogeneousSolution{
			Request:       numeric.Point2{E: e, C: c},
			Mixed:         e > 0 && c > 0,
			BudgetBinding: true,
		}
		return
	}
	// The mixed condition fails, which (given hβ ≥ 0) can only happen when
	// the cloud is too expensive relative to the edge: the equilibrium is
	// the pure all-edge contest with W_i = (1−β+βh)·e_i/E, whose symmetric
	// interior is E = (1−β+βh)R(n−1)/(n·P_e).
	e := (1 - p.Beta + p.H*p.Beta) * p.Reward * num / (den * p.PriceE)
	*sol = HomogeneousSolution{Request: numeric.Point2{E: e}}
	if p.PriceE*e > budget {
		sol.Request.E = budget / p.PriceE
		sol.BudgetBinding = true
	}
}

// HomogeneousStandalone returns the symmetric variational equilibrium of
// the standalone-mode miner subgame with n ≥ 2 identical miners holding
// sufficiently large budgets (the paper's Table II regime).
//
// At a symmetric profile the fork term e_i·C − c_i·E vanishes, so the
// first-order conditions give a total demand set by the CSP price alone,
//
//	S* = (1−β)R(n−1)/(n·P_c),
//
// identical to the connected mode — the paper's "total requested units
// remain unchanged" observation. The unconstrained edge demand is the
// h = 1 form E* = βR(n−1)/(n(P_e−P_c)); if it exceeds E_max the shared
// constraint binds, E = E_max, and the reported Multiplier is the
// constraint's common shadow price.
func HomogeneousStandalone(p Params, n int, edgeCapacity float64) (HomogeneousSolution, error) {
	if err := p.Validate(); err != nil {
		return HomogeneousSolution{}, err
	}
	if n < 2 {
		return HomogeneousSolution{}, fmt.Errorf("homogeneous standalone: need n ≥ 2 miners, got %d", n)
	}
	if edgeCapacity <= 0 {
		return HomogeneousSolution{}, fmt.Errorf("homogeneous standalone: capacity %g must be positive", edgeCapacity)
	}
	if p.PriceE <= p.PriceC {
		return HomogeneousSolution{}, fmt.Errorf("homogeneous standalone: needs P_e=%g > P_c=%g", p.PriceE, p.PriceC)
	}
	if p.PriceC >= (1-p.Beta)*p.PriceE {
		return HomogeneousSolution{}, fmt.Errorf("homogeneous standalone: mixed condition P_c < (1−β)P_e fails (P_c=%g, bound=%g)", p.PriceC, (1-p.Beta)*p.PriceE)
	}
	nf := float64(n)
	s := (1 - p.Beta) * p.Reward * (nf - 1) / (nf * p.PriceC)
	e := p.Beta * p.Reward * (nf - 1) / (nf * (p.PriceE - p.PriceC))
	if e <= edgeCapacity {
		return HomogeneousSolution{
			Request: numeric.Point2{E: e / nf, C: (s - e) / nf},
			Mixed:   true,
		}, nil
	}
	e = edgeCapacity
	if s <= e {
		return HomogeneousSolution{}, fmt.Errorf("homogeneous standalone: total demand S*=%g does not exceed capacity %g; no mixed equilibrium", s, e)
	}
	mu := p.Reward*(nf-1)/(nf*s)*(1+p.Beta*(s-e)/e) - p.PriceE
	return HomogeneousSolution{
		Request:         numeric.Point2{E: e / nf, C: (s - e) / nf},
		Mixed:           true,
		CapacityBinding: true,
		Multiplier:      math.Max(mu, 0),
	}, nil
}

// ClearingPriceEdge is the standalone ESP's market-clearing price: the
// highest P_e at which the miners' unconstrained edge demand still equals
// E_max (Problem 2c forces E = E_max at the SP equilibrium):
//
//	P_e = P_c + βR(n−1)/(n·E_max).
func ClearingPriceEdge(reward, beta, priceC float64, n int, edgeCapacity float64) float64 {
	nf := float64(n)
	return priceC + beta*reward*(nf-1)/(nf*edgeCapacity)
}

// OptimalPriceCloudStandalone is the CSP's closed-form best response in
// the standalone sufficient-budget regime. With E pinned at E_max, cloud
// demand is C(P_c) = (1−β)R(n−1)/(n·P_c) − E_max and maximizing
// (P_c − C_c)·C gives
//
//	P_c* = sqrt((1−β)R(n−1)·C_c / (n·E_max)).
//
// Valid while the resulting C stays positive.
func OptimalPriceCloudStandalone(reward, beta, costC float64, n int, edgeCapacity float64) float64 {
	a := (1 - beta) * reward * float64(n-1) / float64(n)
	return math.Sqrt(a * costC / edgeCapacity)
}
