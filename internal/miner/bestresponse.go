package miner

import (
	"math"

	"minegame/internal/numeric"
	"minegame/internal/obs"
)

// kktSatisfied reports whether x is (numerically) a KKT point of the
// concave program max f over k: the projected gradient step must be tiny.
func kktSatisfied(k numeric.RequestPolytope, x, grad numeric.Point2, tol float64) bool {
	const alpha = 1e-4
	moved := k.Project(x.Add(grad.Scale(alpha)))
	return moved.Sub(x).Norm() <= tol*alpha
}

// BestResponseConnected solves Problem 1a for one miner: it maximizes the
// connected-mode utility over {e ≥ 0, c ≥ 0, P_e·e + P_c·c ≤ budget}
// given the aggregate requests of the other miners. An optional hint
// (pass the miner's current request during best-response iteration) is
// returned as is when it already satisfies the KKT conditions; otherwise
// bestResponseKKT computes the KKT point, whose interior and budget-face
// forms are the paper's Lagrangian solution (Eqs. 14–15).
func BestResponseConnected(p Params, budget float64, env Env, hints ...numeric.Point2) numeric.Point2 {
	return bestResponse(p, 0, budget, math.Inf(1), false, env, hints)
}

// BestResponseStandalone solves the miner's side of Problem 1c: it
// maximizes the standalone-mode utility over
// {e ≥ 0, c ≥ 0, P_e·e + P_c·c ≤ budget, e ≤ edgeCap} where
// edgeCap = E_max − E_{-i} is the edge capacity left by the other miners
// (the GNEP's shared constraint, Eq. 24b). A non-positive edgeCap forces
// e = 0. Optional hints warm-start the search.
func BestResponseStandalone(p Params, budget, edgeCap float64, env Env, hints ...numeric.Point2) numeric.Point2 {
	p.H = 1
	return bestResponse(p, 0, budget, edgeCap, true, env, hints)
}

// BestResponseStandalonePenalized solves the μ-penalized standalone
// problem used by the variational GNEP decomposition: it maximizes
// U_i(e, c) − μ·e over the budget polytope at the TRUE market prices
// (the multiplier prices the shared capacity constraint in the objective,
// not in the budget). With the market-clearing μ this is each miner's
// subproblem of the variational equilibrium.
func BestResponseStandalonePenalized(p Params, mu, budget float64, env Env, hints ...numeric.Point2) numeric.Point2 {
	p.H = 1
	return bestResponse(p, mu, budget, math.Inf(1), true, env, hints)
}

// bestResponse is the one body behind the exported best responses: the
// KKT warm acceptance of a hint, then the kernel. p.H is the program's
// h: 1 in standalone mode.
//
//minelint:hotpath
func bestResponse(p Params, mu, budget, edgeCap float64, standalone bool, env Env, hints []numeric.Point2) numeric.Point2 {
	if edgeCap < 0 {
		edgeCap = 0
	}
	// The package-wide hit-rate counters answer "how often does the warm
	// path settle a best response" — the lever behind the O(N)-per-sweep
	// hot path. The miner layer has no observer plumbing of its own, so
	// these report through the process default (a single atomic check
	// when observability is off).
	ob := obs.Default()
	ob.Count("miner.best_response_calls_total", 1)

	// Warm path: a hint that already satisfies the KKT conditions is the
	// answer. The iterating solvers hit it on almost every sweep once the
	// profile settles, and it keeps closed-form seeds exact (DESIGN.md
	// §12). It runs only where the objective is smooth: with no rival
	// edge demand the fork bonus jumps at e = 0, where an e = 0 hint
	// passes the check although the e → 0⁺ limit point is better.
	if env.SumOthers() > tiny && (env.EdgeOthers > tiny || p.H*p.Beta == 0) {
		k := numeric.RequestPolytope{PriceE: p.PriceE, PriceC: p.PriceC, Budget: budget, EdgeCap: edgeCap}
		for _, x := range hints {
			x = k.Project(x)
			g := GradConnected(p, x, env)
			g.E -= mu
			if kktSatisfied(k, x, g, 1e-7) {
				ob.Count("miner.kkt_warm_hits_total", 1)
				return x
			}
		}
	}
	ob.Count("miner.kkt_analytic_hits_total", 1)
	return bestResponseKKT(p, mu, budget, edgeCap, standalone, env)
}

const (
	// Quantum is the smallest request whose aggregate the utility
	// functions do not treat as empty (it exceeds tiny): the request of
	// the e → 0⁺ and s → 0⁺ limit points of degenerate markets.
	Quantum = tiny * (1 + 1e-15)
	// maxRequest caps each coordinate of a best response. It binds only
	// when rewards near the largest float meet prices near the smallest,
	// and keeps spends, aggregates and Eq. 6's products finite there.
	maxRequest = 1e150
)

// bestResponseKKT maximizes R[(1−β)s/S + β·h·e/E] − (P_e+μ)·e − P_c·c
// over {e, c ≥ 0, P_e·e + P_c·c ≤ budget, e ≤ edgeCap}, s = e + c.
// Standalone mode is h = 1: with c = s − e and C = S − E, Eq. 6's fork
// term β(e·C − c·E)/(E·S) equals β·e/E − β·s/S. In (e, s) the objective
// separates into a·s/(S₋ᵢ+s) − P_c·s plus b·e/(E₋ᵢ+e) − d·e, with
// a = (1−β)R, b = βhR and d = P_e + μ − P_c, both concave, so
// kktProblem.solve finds the KKT point by active-set enumeration.
//
// The utility functions treat an aggregate at or below tiny as empty:
// W_i = 0 when S ≤ tiny, and when E ≤ tiny the bonus vanishes and
// standalone mode's W_i is the whole share s/S rather than (1−β)s/S.
// The objective is smooth only when S₋ᵢ and, for β·h > 0, E₋ᵢ exceed
// tiny; otherwise kktProblem.degenerate compares what its jumps leave.
//
//minelint:hotpath
func bestResponseKKT(p Params, mu, budget, edgeCap float64, standalone bool, env Env) numeric.Point2 {
	if !(budget > 0) {
		return numeric.Point2{}
	}
	q := kktProblem{
		p: p, env: env, standalone: standalone,
		a: (1 - p.Beta) * p.Reward, b: p.H * p.Beta * p.Reward,
		eOth: env.EdgeOthers, cOth: env.CloudOthers, sOth: env.SumOthers(),
		pe: p.PriceE, pc: p.PriceC, mu: mu, budget: budget,
	}
	if q.sOth > tiny && (q.b == 0 || q.eOth > tiny) {
		return q.solve(0, edgeCap)
	}
	return q.degenerate(edgeCap)
}

// kktProblem is one best-response program of bestResponseKKT.
type kktProblem struct {
	p          Params
	env        Env
	standalone bool

	a, b             float64 // (1−β)R and βhR
	eOth, cOth, sOth float64 // E₋ᵢ, C₋ᵢ, S₋ᵢ
	pe, pc, mu       float64
	budget           float64
}

// degenerate returns the best, by the utility functions themselves, of
// the zero request and these candidates:
//
//   - S₋ᵢ > 0: the KKT point with E above tiny, where the bonus is worth
//     (almost) all of β·h, so e ≥ Quantum − E₋ᵢ (the e → 0⁺ limit); and
//     the one with E at or below tiny, without the bonus and with
//     standalone mode's whole share.
//   - S₋ᵢ ≤ tiny: the smallest counted all-edge and all-cloud requests,
//     since a lone miner's supremum is approached as its request shrinks.
//
// Ties (P_e = P_c with β·h = 0) take the least edge request here and in
// solve.
func (q *kktProblem) degenerate(edgeCap float64) numeric.Point2 {
	var best numeric.Point2
	bestU := q.utility(best)
	consider := func(r numeric.Point2) {
		if u := q.utility(r); u > bestU {
			best, bestU = r, u
		}
	}
	lo := Quantum - q.eOth
	edgeOK := lo <= edgeCap && q.pe*lo < q.budget
	if q.sOth > 0 {
		if edgeOK {
			consider(q.solve(lo, edgeCap))
		}
		band := *q
		band.b = 0
		if q.standalone {
			band.a = q.p.Reward
		}
		consider(band.solve(0, math.Min(edgeCap, tiny-q.eOth)))
	}
	if q.sOth <= tiny {
		if edgeOK {
			consider(numeric.Point2{E: lo})
		}
		if c := Quantum - q.sOth; q.pc*c < q.budget {
			consider(numeric.Point2{C: c})
		}
	}
	return best
}

// utility is the program's objective at r as the utility functions
// evaluate it, their conventions for vanishing aggregates included.
func (q *kktProblem) utility(r numeric.Point2) float64 {
	w := WinProbConnected(q.p.Beta, q.p.H, r, q.env)
	if q.standalone {
		w = WinProbFull(q.p.Beta, r, q.env)
	}
	return q.p.Reward*w - (q.pe+q.mu)*r.E - q.pc*r.C
}

// solve returns the KKT point with e restricted to [lo, hi]:
//
//  1. Budget relaxed, each part has its closed-form maximizer:
//     S₋ᵢ+s = σ₂√S₋ᵢ and E₋ᵢ+e = σ₁√E₋ᵢ (Eqs. 14–15, σ₂² = a/P_c,
//     σ₁² = b/d), e clamped to [lo, hi]. If e > s the c = 0 face binds;
//     its optimum lies between s and e.
//  2. Otherwise the budget binds. For μ = 0 both aggregates shrink by
//     the common t = 1/√(1+λ), which the budget identity fixes (Eq. 15);
//     that point is exact unless a clamp is active, and it starts the
//     search along the budget line.
//
// Each face is a line search by safeguarded Newton (lineMax).
func (q *kktProblem) solve(lo, hi float64) numeric.Point2 {
	hi = math.Min(hi, maxRequest)
	sigma2, sqrtS := math.Sqrt(q.a/q.pc), math.Sqrt(q.sOth)
	s := numeric.Clamp(sigma2*sqrtS-q.sOth, 0, maxRequest)
	d := q.pe + q.mu - q.pc
	e, sigma1, sqrtE := lo, 0.0, math.Sqrt(q.eOth)
	switch {
	case q.b > 0 && q.eOth > 0 && d > 0:
		sigma1 = math.Sqrt(q.b / d)
		e = sigma1*sqrtE - q.eOth
	case q.b > 0 && q.eOth > 0, d < 0:
		e = hi // the edge part increases without bound
	}
	e = numeric.Clamp(e, lo, hi)
	r := numeric.Point2{E: e, C: s - e}
	if e > s {
		r = numeric.Point2{E: q.lineMax(kktLine{de: 1, k0: -(q.pe + q.mu)}, math.Max(lo, s), e, s)}
	}
	if q.pe*r.E+q.pc*r.C <= q.budget {
		return r
	}

	hi = math.Min(hi, q.budget/q.pe)
	if sigma1 > 0 && q.mu == 0 {
		t := (q.budget + q.pe*q.eOth + q.pc*q.cOth) / ((q.pe-q.pc)*sigma1*sqrtE + q.pc*sigma2*sqrtS)
		e, s := sigma1*sqrtE*t-q.eOth, sigma2*sqrtS*t-q.sOth
		r = numeric.Point2{E: e, C: s - e}
	}
	// The budget line is searched in the coordinate that takes at most
	// half the spend; the other one, recovered from the budget identity,
	// then loses no digits to cancellation. Along it the prices cancel
	// out of the derivative, leaving the μ term.
	byEdge := kktLine{de: 1, c0: q.budget / q.pc, dc: -q.pe / q.pc, k0: -q.mu}
	half := q.budget / (2 * q.pe)
	if f, _ := q.slope(byEdge, half); half >= hi || half > lo && !(f > 0) {
		x := q.lineMax(byEdge, lo, math.Min(hi, half), r.E)
		return numeric.Point2{E: x, C: numeric.Clamp((q.budget-q.pe*x)/q.pc, 0, maxRequest)}
	}
	byCloud := kktLine{e0: q.budget / q.pe, de: -q.pc / q.pe, dc: 1, k0: q.mu * q.pc / q.pe}
	cHi := math.Min(q.budget/(2*q.pc), (q.budget-q.pe*lo)/q.pc)
	x := q.lineMax(byCloud, math.Max((q.budget-q.pe*hi)/q.pc, 0), cHi, r.C)
	return numeric.Point2{E: numeric.Clamp((q.budget-q.pc*x)/q.pe, lo, hi), C: math.Min(x, maxRequest)}
}

// kktLine is a face of the feasible set as a line in one coordinate x:
// e = e0 + de·x, c = c0 + dc·x. k0, the part of the objective's
// derivative that comes from the prices and μ, is given exactly so that
// it cannot cancel against the share terms in rounding.
type kktLine struct {
	e0, de, c0, dc, k0 float64
}

// slope returns the objective's first and second derivatives along the
// line at x; the first is decreasing because the objective is concave.
func (q *kktProblem) slope(l kktLine, x float64) (float64, float64) {
	e := math.Max(l.e0+l.de*x, 0)
	ds := l.de + l.dc
	us := q.sOth + e + math.Max(l.c0+l.dc*x, 0)
	gs := q.a * q.sOth / us / us
	f, df := ds*gs+l.k0, -2*ds*ds*gs/us
	if q.b > 0 && q.eOth > 0 {
		ue := q.eOth + e
		ke := q.b * q.eOth / ue / ue
		f += l.de * ke
		df -= 2 * l.de * l.de * ke / ue
	}
	return f, df
}

// lineMax maximizes the objective along the line over x ∈ [lo, hi] by
// Newton on its decreasing derivative, starting at x.
//
//minelint:hotpath
func (q *kktProblem) lineMax(l kktLine, lo, hi, x float64) float64 {
	if f, _ := q.slope(l, lo); !(f > 0) {
		return lo
	}
	if f, _ := q.slope(l, hi); f >= 0 {
		return hi
	}
	x = bracketed(x, lo, hi)
	for it := 0; it < 200; it++ {
		f, df := q.slope(l, x)
		switch {
		case f > 0:
			lo = x
		case f < 0:
			hi = x
		default:
			return x
		}
		next := bracketed(x-f/df, lo, hi)
		if math.Abs(next-x) <= 1e-15*next || hi-lo <= 1e-15*hi {
			return next
		}
		x = next
	}
	return x
}

// bracketed returns x when it lies inside (lo, hi), and otherwise a
// bisection point, geometric while the bracket spans orders of magnitude.
func bracketed(x, lo, hi float64) float64 {
	switch {
	case x > lo && x < hi:
		return x
	case hi <= 1024*lo:
		return lo + (hi-lo)/2
	case lo > 0:
		return math.Sqrt(lo) * math.Sqrt(hi)
	}
	return hi * 0x1p-64
}
