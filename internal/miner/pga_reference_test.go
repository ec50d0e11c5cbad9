package miner

// The multi-start projected-gradient best responses that bestResponseKKT
// replaced, kept verbatim (minus the obs counters) as the test oracle of
// FuzzBestResponse: the kernel must match or beat them in utility.
// gradStandalone, which only they used, moved here with them, and so did
// the 2-D projected-gradient ascent and its finite-difference gradient,
// which no solver runs any more.

import (
	"math"
	"testing"

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
		res := projectedGradientAscent(f, grad, k, s, 400, 1e-11)
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
		res := projectedGradientAscent(f, grad, k, s, 400, 1e-11)
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

// pgaResult reports the outcome of projectedGradientAscent.
type pgaResult struct {
	X          numeric.Point2 // final iterate
	Value      float64        // objective at X
	Iterations int            // gradient steps taken
	Converged  bool           // true when the projected step shrank below tol
}

// projectedGradientAscent maximizes f over the polytope k starting from
// x0, using gradient ascent with backtracking line search and projection.
// grad must return ∂f/∂e and ∂f/∂c at the given point. maxIter bounds the
// number of outer steps and tol is the convergence threshold on the
// projected step length.
func projectedGradientAscent(
	f func(numeric.Point2) float64,
	grad func(numeric.Point2) numeric.Point2,
	k numeric.RequestPolytope,
	x0 numeric.Point2,
	maxIter int,
	tol float64,
) pgaResult {
	if maxIter <= 0 {
		maxIter = 500
	}
	if tol <= 0 {
		tol = 1e-10
	}
	x := k.Project(x0)
	fx := f(x)
	step := 1.0
	for it := 0; it < maxIter; it++ {
		g := grad(x)
		if gn := g.Norm(); gn > 0 && !math.IsInf(gn, 0) {
			// Normalize the step to the scale of the region so the first
			// trial is neither microscopic nor wildly out of bounds.
			step = math.Max(step, tol)
		}
		moved := false
		for trial := 0; trial < 60; trial++ {
			cand := k.Project(x.Add(g.Scale(step)))
			fc := f(cand)
			if fc > fx+1e-15 {
				delta := cand.Sub(x).Norm()
				x, fx = cand, fc
				moved = true
				step *= 1.6
				if delta < tol {
					return pgaResult{X: x, Value: fx, Iterations: it + 1, Converged: true}
				}
				break
			}
			step /= 2
			if step < 1e-16 {
				break
			}
		}
		if !moved {
			return pgaResult{X: x, Value: fx, Iterations: it, Converged: true}
		}
	}
	return pgaResult{X: x, Value: fx, Iterations: maxIter, Converged: false}
}

// grad2FiniteDiff returns a central finite-difference gradient of f.
func grad2FiniteDiff(f func(numeric.Point2) float64, h float64) func(numeric.Point2) numeric.Point2 {
	if h <= 0 {
		h = 1e-6
	}
	return func(p numeric.Point2) numeric.Point2 {
		return numeric.Point2{
			E: (f(numeric.Point2{E: p.E + h, C: p.C}) - f(numeric.Point2{E: p.E - h, C: p.C})) / (2 * h),
			C: (f(numeric.Point2{E: p.E, C: p.C + h}) - f(numeric.Point2{E: p.E, C: p.C - h})) / (2 * h),
		}
	}
}

func TestProjectedGradientAscentConcaveQuadratic(t *testing.T) {
	// Maximize -(e-1)^2 - (c-2)^2 over a generous region: optimum (1,2).
	k := numeric.RequestPolytope{PriceE: 1, PriceC: 1, Budget: 100, EdgeCap: math.Inf(1)}
	f := func(p numeric.Point2) float64 { return -(p.E-1)*(p.E-1) - (p.C-2)*(p.C-2) }
	grad := func(p numeric.Point2) numeric.Point2 { return numeric.Point2{E: -2 * (p.E - 1), C: -2 * (p.C - 2)} }
	res := projectedGradientAscent(f, grad, k, numeric.Point2{E: 50, C: 50}, 1000, 1e-12)
	if math.Abs(res.X.E-1) > 1e-5 || math.Abs(res.X.C-2) > 1e-5 {
		t.Errorf("optimum = %+v, want (1, 2)", res.X)
	}
	if !res.Converged {
		t.Error("did not converge")
	}
}

func TestProjectedGradientAscentActiveBudget(t *testing.T) {
	// Unconstrained optimum (5,5) lies outside budget e+c<=4; the
	// constrained optimum is on the budget line at (2,2).
	k := numeric.RequestPolytope{PriceE: 1, PriceC: 1, Budget: 4, EdgeCap: math.Inf(1)}
	f := func(p numeric.Point2) float64 { return -(p.E-5)*(p.E-5) - (p.C-5)*(p.C-5) }
	res := projectedGradientAscent(f, grad2FiniteDiff(f, 1e-6), k, numeric.Point2{}, 2000, 1e-12)
	if math.Abs(res.X.E-2) > 1e-4 || math.Abs(res.X.C-2) > 1e-4 {
		t.Errorf("optimum = %+v, want (2, 2)", res.X)
	}
}

func TestGrad2FiniteDiff(t *testing.T) {
	f := func(p numeric.Point2) float64 { return 3*p.E*p.E + 2*p.E*p.C - p.C }
	g := grad2FiniteDiff(f, 1e-6)(numeric.Point2{E: 1, C: 2})
	// ∂f/∂e = 6e + 2c = 10; ∂f/∂c = 2e − 1 = 1.
	if math.Abs(g.E-10) > 1e-4 || math.Abs(g.C-1) > 1e-4 {
		t.Errorf("gradient = %+v, want (10, 1)", g)
	}
}
