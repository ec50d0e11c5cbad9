package miner

import (
	"math"

	"minegame/internal/numeric"
)

// Share is the replacement function of the miner subgame (Cornes &
// Hartley's share function times the aggregate): the request (e, c) of
// one miner of the given budget at an equilibrium whose totals are
// (E, S) = (edge, total), S = E + C. It is the KKT point of the miner's program against
// the others' totals (E−e, S−s), s = e + c, so a profile of Share
// points is an equilibrium exactly when its totals are (E, S). mu
// prices the edge on top of P_e (the standalone shared-capacity
// multiplier); standalone mode is p.H = 1, as in bestResponseKKT.
//
// Written in (e, s) with the totals held fixed, the first-order
// conditions of Eqs. 14–15 are linear in the miner's own request:
// a(S−s)/S² = P_c and b(E−e)/E² = d, with a, b and d as in
// bestResponseKKT. They are the conditions of the concave quadratic
// a(s/S − s²/2S²) + b(e/E − e²/2E²) − P_c·s − d·e over the budget
// polytope, so every face is closed form:
//
//   - interior: e = E − E²·d/b and s = S − S²·P_c/a, each clamped at 0;
//   - c = 0: own e enters the first-order condition linearly, so
//     e = s = (a/S + b/E − P_e − μ)/(a/S² + b/E²);
//   - budget: along P_e·e + P_c·c = B the condition is again linear in
//     e (the spend identity fixes the budget multiplier).
//
// The budget-relaxed point solves the cone {e ≥ 0, c ≥ 0} (the c = 0
// face binds exactly when the interior e exceeds s); if it overspends,
// the maximizer lies on the budget face. With b = 0 the edge term is
// linear, and ties take the least edge request, as bestResponseKKT
// does; with b > 0 and E = 0 the point is the E → 0⁺ limit, e = 0.
//
//minelint:hotpath
func Share(p Params, mu, budget, edge, total float64) numeric.Point2 {
	if !(budget > 0) || !(total > 0) {
		return numeric.Point2{}
	}
	a, b := (1-p.Beta)*p.Reward, p.H*p.Beta*p.Reward
	pe, pc := p.PriceE+mu, p.PriceC
	d := pe - pc
	// ra and rb are the marginal share rewards a/S and b/E of a first
	// unit of request.
	ra := a / total
	var rb, ge float64 // b/E, and the edge term's curvature b/E²
	if b > 0 && edge > 0 {
		rb = b / edge
		ge = rb / edge
	}
	ownS := nonNeg(total * (1 - pc/ra))
	var ownE float64
	switch {
	case rb > 0:
		ownE = nonNeg(edge * (1 - d/rb))
	case b == 0 && d < 0:
		ownE = math.Inf(1) // the edge part increases without bound
	}
	if ownE > ownS {
		ownE = nonNeg((ra + rb - pe) / (ra/total + ge))
		ownS = ownE
	}
	if p.PriceE*ownE+pc*(ownS-ownE) <= budget {
		return numeric.Point2{E: ownE, C: ownS - ownE}
	}

	// Budget face, in e: s = B/P_c − k·e with k = (P_e − P_c)/P_c. The
	// prices cancel out of the slope's constant except for μ.
	k := (p.PriceE - pc) / pc
	den := ge + k*k*ra/total
	hi := budget / p.PriceE
	var x float64
	if den > 0 {
		x = numeric.Clamp((rb-mu-k*ra*(1-budget/(pc*total)))/den, 0, hi)
	} else if mu < 0 {
		x = hi
	}
	return numeric.Point2{E: x, C: nonNeg((budget - p.PriceE*x) / pc)}
}

// ShareLine is Share at fixed (μ, E, S) as a function of the budget
// alone. A budget of at least FreeSpend plays Free, the budget-relaxed
// point. A smaller budget B plays its budget face, whose edge request
// is affine in B up to its clamp,
//
//	e(B) = clamp((Num + Slope·B)/Den, 0, B/P_e)  when Den > 0,
//
// B/P_e when Den is 0 and μ < 0, and 0 otherwise; the rest of the
// budget buys cloud, c = (B − P_e·e)/P_c. Summed over budgets sorted in
// ascending order, Share is therefore piecewise affine with at most
// three breakpoints. Share evaluates its face in another order, so the
// two agree to rounding.
type ShareLine struct {
	Free            numeric.Point2
	FreeSpend       float64
	Num, Slope, Den float64
}

// ShareLineAt returns Share's ShareLine at (μ, E, S) = (mu, edge,
// total); total > 0.
func ShareLineAt(p Params, mu, edge, total float64) ShareLine {
	free := Share(p, mu, math.Inf(1), edge, total)
	a, b := (1-p.Beta)*p.Reward, p.H*p.Beta*p.Reward
	pc := p.PriceC
	ra := a / total
	var rb, ge float64
	if b > 0 && edge > 0 {
		rb = b / edge
		ge = rb / edge
	}
	k := (p.PriceE - pc) / pc
	return ShareLine{
		Free:      free,
		FreeSpend: p.Spend(free),
		Num:       rb - mu - k*ra,
		Slope:     k * ra / (pc * total),
		Den:       ge + k*k*ra/total,
	}
}

// nonNeg clamps x at zero from below; unlike math.Max it costs one
// comparison on the kernel's path.
func nonNeg(x float64) float64 {
	if x < 0 {
		return 0
	}
	return x
}
