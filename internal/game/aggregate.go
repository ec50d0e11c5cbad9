package game

// The aggregate engine. In an aggregative game a player's best response
// depends on the opponents only through their coordinate-wise total, so
// the solver carries running totals through each sweep (delta-updated
// as players move, exactly re-summed at every sweep boundary) and a
// sweep costs O(K) best responses for K entries. An entry may stand for
// a whole class of identical players — same budget, same game
// constants — solved once with its multiplicity, so a population of N
// miners collapses into K classes; the exact N-player game is the case
// K = N with every count 1. Expanding each class representative back
// over its members yields an equilibrium of the full N-player game (see
// DESIGN.md §12 for the exactness conditions).

import (
	"math"

	"minegame/internal/numeric"
)

// sumPointsWeighted re-sums a weighted profile exactly:
// Σ_k counts[k]·reps[k], or the plain sum when counts is nil. The
// sweep-boundary step that bounds the running totals' floating-point
// drift to a single sweep's worth of rounding.
func sumPointsWeighted(reps []numeric.Point2, counts []int) numeric.Point2 {
	if counts == nil {
		return sumPoints(reps)
	}
	var t numeric.Point2
	for k, r := range reps {
		t = t.Add(r.Scale(float64(counts[k])))
	}
	return t
}

// SolveNEAggregate runs damped Gauss–Seidel best-response iteration on
// an aggregative game: start[k] is the shared strategy of counts[k]
// identical players, and br(k, own, others) is the best response of one
// member of entry k against others = population totals minus that
// member's own strategy. Nil counts gives every entry weight 1 — the
// exact game, one entry per player. Each sweep visits the entries in
// index order. A single player is moved by one best-response call;
// moving a whole class of m > 1 players at once re-creates the
// oscillatory symmetric fixed-point map, so such a class is advanced by
// a damped inner sub-equilibrium solve of r = br(outside + (m−1)·r) —
// near the equilibrium the KKT warm path settles it in a single call.
// Entries with a count ≤ 0 are skipped. Population totals are
// delta-updated by multiplicity as entries move and exactly re-summed
// at every sweep boundary.
//
// With opts.Jacobi every entry responds to the totals frozen at the
// start of the sweep (the simultaneous-update schedule) instead of the
// freshest ones. The returned Profile holds one strategy per entry
// (expand a classed profile via miner.ClassedPopulation.Expand);
// MaxDelta is the largest per-member strategy change of the last sweep.
// A counts/start length mismatch returns a zero NEResult.
//
//minelint:hotpath
func SolveNEAggregate(start []numeric.Point2, counts []int, br AggregateBestResponse, opts NEOptions) NEResult {
	if counts != nil && len(start) != len(counts) {
		return NEResult{}
	}
	opts = opts.withDefaults()
	name, solver := "game.solve_ne", "aggregate_best_response"
	if counts != nil {
		name, solver = "game.solve_ne_classed", "classed_best_response"
	}
	tel := newSolveTelemetry(opts, name, solver, len(start))
	reps := make([]numeric.Point2, len(start))
	copy(reps, start)
	res := NEResult{Profile: reps}
	totals := sumPointsWeighted(reps, counts)
	// The inner sub-equilibrium must settle below the outer tolerance,
	// or the outer deltas would dither at the inner residual floor.
	innerTol := opts.Tol / 2
	for it := 0; it < opts.MaxIter; it++ {
		if opts.canceled() {
			res.Canceled = true
			break
		}
		res.Iterations = it + 1
		res.MaxDelta = 0
		// Jacobi responds to the PREVIOUS sweep's aggregate.
		frozen := totals
		for k := range reps {
			m := 1
			if counts != nil {
				if m = counts[k]; m <= 0 {
					continue
				}
			}
			old := reps[k]
			base := totals
			if opts.Jacobi {
				base = frozen
			}
			// outside aggregates every OTHER entry; a class's inner solve
			// adds the (m−1) same-class peers around the moving member.
			outside := base.Sub(old.Scale(float64(m)))
			var next numeric.Point2
			var inner float64
			if m == 1 {
				next = br(k, old, outside)
			} else {
				next, inner = classSubEquilibrium(k, m, old, outside, br, innerTol)
			}
			if opts.Damping < 1 {
				next = old.Scale(1 - opts.Damping).Add(next.Scale(opts.Damping))
			}
			d := next.Sub(old).Norm()
			if m > 1 {
				// An unsettled inner fixed point counts as sweep movement even
				// when the representative barely moved: otherwise a stalled
				// sub-equilibrium would read as outer convergence and the
				// solver could certify a non-equilibrium (observed before this
				// guard: corner-hopping classes drifting below Tol per sweep).
				d = math.Max(d, inner)
			}
			if d > res.MaxDelta {
				res.MaxDelta = d
			}
			// O(1) delta update by multiplicity keeps totals current for
			// the next entry in this sweep.
			totals = totals.Add(next.Sub(old).Scale(float64(m)))
			reps[k] = next
		}
		// Sweep boundary: exact re-summation bounds incremental drift.
		totals = sumPointsWeighted(reps, counts)
		tel.sweep(res.Iterations, res.MaxDelta) //lint:allow hotalloc sweep telemetry appends to the delta history; disabled-mode cost is zero and pinned by TestSolveNEAggregateAllocationBudget
		if res.MaxDelta < opts.Tol {
			res.Converged = true
			break
		}
	}
	tel.finish(res)
	return res
}

// classSubEquilibrium solves the symmetric within-class fixed point
// r = br(k, r, outside + (m−1)·r): the strategy at which one member of
// an m-player class is best-responding while its m−1 identical peers
// play the same thing. It returns the settled point and the norm of its
// remaining fixed-point residual ‖g(r)−r‖ (0 when m ≤ 1); callers must
// treat a residual above tol as non-convergence — the point is the best
// iterate found, not an equilibrium.
//
// The map g(r) = br(outside + (m−1)·r) has slope magnitude up to
// (m−1)·|∂br/∂others| — hundreds for a large class — so any FIXED
// damping either diverges (too large) or crawls (too small). Each step
// therefore damps by 1/(1+L) with L the secant estimate of the local
// slope: for the monotone-decreasing best-response maps of aggregative
// games the damped map's slope is ≈ 1 − (1+|s|)/(1+L) ≈ 0, near-Newton.
// Because br clamps at the polytope corners the slope estimate can
// collapse (L = 0 on a pinned stretch) and launch a corner-to-corner
// jump, so steps are additionally confined to a trust radius that only
// grows with accepted (residual-decreasing) steps and shrinks when a
// step overshoots. Once the outer iteration is near equilibrium the
// first best response is already a KKT point and the loop exits after
// one call.
//
//minelint:hotpath
func classSubEquilibrium(k, m int, r, outside numeric.Point2, br AggregateBestResponse, tol float64) (numeric.Point2, float64) {
	if m <= 1 {
		return br(k, r, outside), 0
	}
	const maxInner = 200
	peers := float64(m - 1)
	// g(x) = br(k, x, outside + peers·x), written out at both call
	// sites: a closure here would allocate on every class visit of
	// every sweep, and this is a //minelint:hotpath kernel.
	cur := r
	gCur := br(k, cur, outside.Add(cur.Scale(peers)))
	res := gCur.Sub(cur)
	resN := res.Norm()
	if resN <= tol {
		return gCur, 0
	}
	// Conservative first radius: the worst-case damping 1/m assuming
	// |∂br/∂others| ≤ 1.
	radius := resN / (1 + peers)
	prev, gPrev := cur, gCur
	for it := 0; it < maxInner; it++ {
		// Secant slope of g along the last accepted step.
		L := 0.0
		if n := cur.Sub(prev).Norm(); n > 0 {
			L = gCur.Sub(gPrev).Norm() / n
		}
		step := resN / (1 + L)
		if step > radius {
			step = radius
		}
		next := cur.Add(res.Scale(step / resN))
		gNext := br(k, next, outside.Add(next.Scale(peers)))
		nres := gNext.Sub(next)
		nresN := nres.Norm()
		if nresN <= tol {
			return gNext, 0
		}
		if nresN < resN {
			// Accepted: move, remember the secant pair, let the region grow.
			prev, gPrev = cur, gCur
			cur, gCur, res, resN = next, gNext, nres, nresN
			radius = 2 * step
		} else {
			// Overshot (corner jump or slope underestimate): shrink and retry
			// from the same point.
			radius = step / 4
			if radius <= 1e-18 {
				break
			}
		}
	}
	return cur, resN
}

// SolveVariationalGNEAggregate is SolveVariationalGNE for aggregative
// games: brAt(μ) must return the μ-penalized best response of one
// member of an entry, and shared evaluates the constraint on the
// per-entry strategies (weighting by counts is the caller's job — the
// solver passes one strategy per entry, not an expanded profile). Every
// inner NEP solve runs SolveNEAggregate with the same counts (nil: every
// entry is one player); the multiplier search (slackness check,
// doubling, bisection) is shared with SolveVariationalGNE.
func SolveVariationalGNEAggregate(
	start []numeric.Point2,
	counts []int,
	brAt func(mu float64) AggregateBestResponse,
	shared func(reps []numeric.Point2) float64,
	capacity float64,
	capTol float64,
	opts NEOptions,
) (VGNEResult, error) {
	neAt := func(mu float64, from []numeric.Point2) NEResult {
		return SolveNEAggregate(from, counts, brAt(mu), opts)
	}
	return solveVariationalGNE(start, neAt, shared, capacity, capTol, opts)
}

// DeviationsAggregate returns each entry's maximal unilateral
// best-response gain (clamped below at zero, so a player already at its
// best response reports exactly 0): gains[k] is the utility one member
// of entry k could gain by deviating while everyone else — including
// its count−1 identical peers — stays put. Because all members of a
// class play the same strategy against the same aggregate, one
// computation certifies every member exactly, so an ε-Nash certificate
// for all N expanded players costs O(K) best responses;
// max_k gains[k] ≤ ε is the claim. Nil counts gives every entry weight
// 1. utility(k, own, others) evaluates one member's payoff. Entries
// with a count ≤ 0 report 0; a profile/counts length mismatch returns
// nil.
func DeviationsAggregate(
	profile []numeric.Point2,
	counts []int,
	br AggregateBestResponse,
	utility func(k int, own, others numeric.Point2) float64,
) []float64 {
	if counts != nil && len(profile) != len(counts) {
		return nil
	}
	totals := sumPointsWeighted(profile, counts)
	gains := make([]float64, len(profile))
	for k, own := range profile {
		if counts != nil && counts[k] <= 0 {
			continue
		}
		others := totals.Sub(own)
		current := utility(k, own, others)
		dev := br(k, own, others)
		if gain := utility(k, dev, others) - current; gain > 0 {
			gains[k] = gain
		}
	}
	return gains
}
