package miner

// The multi-start projected-gradient best responses that bestResponseKKT
// replaced, kept verbatim (minus the obs counters) as the test oracle of
// FuzzBestResponse: the kernel must match or beat them in utility.
// gradStandalone, which only they used, moved here with them.

import (
	"math"

	"minegame/internal/numeric"
)

func pgaBestResponseConnected(p Params, budget float64, env Env, hints ...numeric.Point2) numeric.Point2 {
	k := numeric.RequestPolytope{
		PriceE:  p.PriceE,
		PriceC:  p.PriceC,
		Budget:  budget,
		EdgeCap: math.Inf(1),
	}
	f := func(x numeric.Point2) float64 { return UtilityConnected(p, x, env) }
	grad := func(x numeric.Point2) numeric.Point2 { return GradConnected(p, x, env) }

	if env.SumOthers() > tiny {
		for _, h := range hints {
			h = k.Project(h)
			if kktSatisfied(k, h, grad(h), 1e-7) {
				return h
			}
		}
	}

	if cand, ok := pgaAnalyticConnected(p, budget, env); ok {
		cand = k.Project(cand)
		if kktSatisfied(k, cand, grad(cand), 1e-7) {
			return cand
		}
	}

	best := numeric.Point2{}
	bestV := f(best)
	consider := func(x numeric.Point2) {
		x = k.Project(x)
		if v := f(x); v > bestV {
			best, bestV = x, v
		}
	}
	if cand, ok := pgaAnalyticConnected(p, budget, env); ok {
		consider(cand)
	}
	if env.EdgeOthers <= tiny && p.Beta > 0 && p.H > 0 {
		const edgeQuantum = 1e-9
		cOpt := 0.0
		if sOth := env.SumOthers(); sOth > tiny {
			cOpt = math.Sqrt((1-p.Beta)*p.Reward*sOth/p.PriceC) - sOth
			cOpt = numeric.Clamp(cOpt, 0, (budget-p.PriceE*edgeQuantum)/p.PriceC)
		}
		consider(numeric.Point2{E: edgeQuantum, C: cOpt})
	}
	starts := make([]numeric.Point2, 0, 8)
	starts = append(starts, hints...)
	starts = append(starts,
		best,
		numeric.Point2{E: budget / (4 * p.PriceE), C: budget / (4 * p.PriceC)},
		numeric.Point2{E: budget / p.PriceE, C: 0},
		numeric.Point2{E: 0, C: budget / p.PriceC},
	)
	for _, s := range starts {
		res := numeric.ProjectedGradientAscent(f, grad, k, s, 400, 1e-11)
		if res.Value > bestV {
			best, bestV = res.X, res.Value
		}
	}
	return best
}

func pgaAnalyticConnected(p Params, budget float64, env Env) (numeric.Point2, bool) {
	if p.PriceE <= p.PriceC || p.Beta <= 0 || p.H <= 0 {
		return numeric.Point2{}, false
	}
	eOth, sOth := env.EdgeOthers, env.SumOthers()
	if eOth <= tiny || sOth <= tiny {
		return numeric.Point2{}, false
	}
	sigma1 := math.Sqrt(p.H * p.Beta * p.Reward / (p.PriceE - p.PriceC))
	sigma2 := math.Sqrt((1 - p.Beta) * p.Reward / p.PriceC)
	sqrtE, sqrtS := math.Sqrt(eOth), math.Sqrt(sOth)

	point := func(t float64) numeric.Point2 {
		e := sigma1*sqrtE*t - eOth
		s := sigma2*sqrtS*t - sOth
		if e < 0 {
			e = 0
		}
		c := s - e
		if c < 0 {
			c = 0
		}
		return numeric.Point2{E: e, C: c}
	}
	cand := point(1)
	if p.Spend(cand) <= budget {
		return cand, true
	}
	cOth := env.CloudOthers
	den := (p.PriceE-p.PriceC)*sigma1*sqrtE + p.PriceC*sigma2*sqrtS
	if den <= tiny {
		return numeric.Point2{}, false
	}
	t := (budget + p.PriceE*eOth + p.PriceC*cOth) / den
	cand = point(t)
	if spend := p.Spend(cand); spend < budget {
		if cand.E == 0 {
			cand.C = budget / p.PriceC
		} else if cand.C == 0 {
			cand.E = budget / p.PriceE
		}
	}
	return cand, true
}

func pgaBestResponsePenalized(p Params, mu, budget, edgeCap float64, env Env, hints ...numeric.Point2) numeric.Point2 {
	if edgeCap < 0 {
		edgeCap = 0
	}
	k := numeric.RequestPolytope{
		PriceE:  p.PriceE,
		PriceC:  p.PriceC,
		Budget:  budget,
		EdgeCap: edgeCap,
	}
	f := func(x numeric.Point2) float64 { return UtilityStandalone(p, x, env) - mu*x.E }
	grad := func(x numeric.Point2) numeric.Point2 {
		g := gradStandalone(p, x, env)
		g.E -= mu
		return g
	}

	for _, h := range hints {
		h = k.Project(h)
		if kktSatisfied(k, h, grad(h), 1e-7) {
			return h
		}
	}

	maxE := math.Min(edgeCap, budget/p.PriceE)
	starts := make([]numeric.Point2, 0, 8)
	starts = append(starts, hints...)
	starts = append(starts,
		numeric.Point2{E: maxE / 2, C: budget / (2 * p.PriceC)},
		numeric.Point2{E: maxE, C: 0},
		numeric.Point2{E: 0, C: budget / p.PriceC},
		numeric.Point2{E: maxE / 8, C: budget / (8 * p.PriceC)},
	)
	best := numeric.Point2{}
	bestV := f(best)
	for _, s := range starts {
		res := numeric.ProjectedGradientAscent(f, grad, k, s, 400, 1e-11)
		if res.Value > bestV {
			best, bestV = res.X, res.Value
		}
	}
	return best
}

// gradStandalone is ∇U_i for the standalone mode: R·∇W_i − (P_e, P_c)
// with the fully satisfied winning probability of Eq. 6/23 (see
// WinProbFullGrad for the expanded derivatives).
func gradStandalone(p Params, own numeric.Point2, env Env) numeric.Point2 {
	g := WinProbFullGrad(p.Beta, own, env)
	return numeric.Point2{
		E: p.Reward*g.E - p.PriceE,
		C: p.Reward*g.C - p.PriceC,
	}
}
