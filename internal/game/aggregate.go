package game

// Aggregate best-response iteration. In an aggregative game a player's
// best response depends on the opponents only through their
// coordinate-wise total, so the solver carries running totals through
// each sweep (delta-updated as players move, exactly re-summed at every
// sweep boundary) and a sweep costs O(N) best responses. The deviation
// certificate takes class counts: an entry may stand for a whole class
// of identical players, all of whom one best response certifies.

import "minegame/internal/numeric"

// sumPointsWeighted sums a weighted profile: Σ_k counts[k]·reps[k], or
// the plain sum when counts is nil.
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
// an aggregative game, one entry per player: br(i, own, others) is the
// best response of player i against others = population totals minus
// its own strategy. Each sweep visits the players in index order; the
// totals are delta-updated as players move and exactly re-summed at
// every sweep boundary. It is the paper's Algorithm 1; the follower
// solvers of internal/core find the equilibrium as the root of
// SolveShares instead.
//
// With opts.Jacobi every player responds to the totals frozen at the
// start of the sweep (the simultaneous-update schedule) instead of the
// freshest ones. MaxDelta is the largest strategy change of the last
// sweep.
//
//minelint:hotpath
func SolveNEAggregate(start []numeric.Point2, br AggregateBestResponse, opts NEOptions) NEResult {
	opts = opts.withDefaults()
	tel := newSolveTelemetry(opts, solveNE, "aggregate_best_response", len(start))
	prof := make([]numeric.Point2, len(start))
	copy(prof, start)
	res := NEResult{Profile: prof}
	totals := sumPoints(prof)
	done := opts.done()
	for it := 0; it < opts.MaxIter; it++ {
		if closed(done) {
			res.Canceled = true
			break
		}
		res.Iterations = it + 1
		res.MaxDelta = 0
		// Jacobi responds to the PREVIOUS sweep's aggregate.
		frozen := totals
		for i, old := range prof {
			base := totals
			if opts.Jacobi {
				base = frozen
			}
			next := br(i, old, base.Sub(old))
			if opts.Damping < 1 {
				next = old.Scale(1 - opts.Damping).Add(next.Scale(opts.Damping))
			}
			if d := next.Sub(old).Norm(); d > res.MaxDelta {
				res.MaxDelta = d
			}
			// O(1) delta update keeps totals current for the next player.
			totals = totals.Add(next.Sub(old))
			prof[i] = next
		}
		// Sweep boundary: exact re-summation bounds incremental drift.
		totals = sumPoints(prof)
		tel.sweep(res.Iterations, res.MaxDelta) //lint:allow hotalloc sweep telemetry appends to the delta history; disabled-mode cost is zero and pinned by TestSolveNEAggregateAllocationBudget
		if res.MaxDelta < opts.Tol {
			res.Converged = true
			break
		}
	}
	tel.finish(res)
	return res
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
