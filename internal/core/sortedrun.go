package core

// The sorted run: a classed market's share passes and seed in O(log K).
// A classed market's classes differ only in budget and come sorted by
// it, and at fixed (μ, E, S) miner.Share depends on the budget alone
// (miner.ShareLine): budgets above one spend play one point, and below
// it the budget face is affine in the budget up to two clamps. Summed
// over the classes, each piece is a count and a budget weight, so a
// pass is prefix sums of n_k and n_k·B_k read at three binary-searched
// breakpoints. The same holds for the closed-form seed.

import (
	"math"

	"minegame/internal/game"
	"minegame/internal/miner"
	"minegame/internal/numeric"
)

// sortedRun is a classed market's budgets in ascending order with the
// prefix sums of its counts and budget weights: counts[i] = Σ_{k<i} n_k
// and weights[i] = Σ_{k<i} n_k·B_k. It lives in its market, for one
// solve.
type sortedRun struct {
	budgets         []float64
	counts, weights []float64
}

// newSortedRun builds the run of budgets, which ascend
// (miner.ClassedPopulation.Validate), weighted by counts.
func newSortedRun(budgets []float64, counts []int) *sortedRun {
	k := len(budgets)
	sums := make([]float64, 2*(k+1))
	r := &sortedRun{budgets: budgets, counts: sums[:k+1], weights: sums[k+1:]}
	for i, b := range budgets {
		n := float64(counts[i])
		r.counts[i+1] = r.counts[i] + n
		r.weights[i+1] = r.weights[i] + n*b
	}
	return r
}

// count is the number of miners in classes [lo, hi).
func (r *sortedRun) count(lo, hi int) float64 { return r.counts[hi] - r.counts[lo] }

// weight is Σ n_k·B_k over classes [lo, hi).
func (r *sortedRun) weight(lo, hi int) float64 { return r.weights[hi] - r.weights[lo] }

// search returns the first class in [lo, hi) whose budget satisfies f,
// a predicate false below some budget and true from it on; hi if none
// does.
func (r *sortedRun) search(lo, hi int, f func(budget float64) bool) int {
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if f(r.budgets[mid]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// where returns the classes [from, to) of [lo, hi) whose budgets B have
// c + g·B > 0: a suffix of them when g > 0, a prefix when g < 0.
// Floating-point c + g·B is monotone in B, so binary search finds the
// breakpoint.
func (r *sortedRun) where(lo, hi int, c, g float64) (int, int) {
	switch {
	case g > 0:
		return r.search(lo, hi, func(b float64) bool { return c+g*b > 0 }), hi
	case g < 0:
		return lo, r.search(lo, hi, func(b float64) bool { return !(c+g*b > 0) })
	case c > 0:
		return lo, hi
	}
	return hi, hi
}

// sums is one share pass: Σ n_k·e_k and Σ n_k·s_k over the classes'
// miner.Share points at (μ, E, S) = (mu, e, s).
func (r *sortedRun) sums(p miner.Params, mu, e, s float64) (float64, float64) {
	if !(s > 0) {
		return 0, 0
	}
	line := miner.ShareLineAt(p, mu, e, s)
	k := len(r.budgets)
	// Classes from j on afford the budget-relaxed point.
	j := r.search(0, k, func(b float64) bool { return line.FreeSpend <= b })
	free := r.count(j, k)
	sumE, sumS := free*line.Free.E, free*(line.Free.E+line.Free.C)
	// Below j the budget binds. Its edge request is 0 outside [lo, hi),
	// capped at B/P_e in [capLo, capHi) and affine in B between; x is
	// Σ n·e over the affine part.
	var x float64
	lo, hi, capLo, capHi := j, j, j, j
	switch {
	case line.Den > 0:
		lo, hi = r.where(0, j, line.Num, line.Slope)
		capLo, capHi = r.where(lo, hi, line.Num, line.Slope-line.Den/p.PriceE)
		x = (line.Num*(r.count(lo, capLo)+r.count(capHi, hi)) + line.Slope*(r.weight(lo, capLo)+r.weight(capHi, hi))) / line.Den
	case mu < 0:
		capLo, capHi = 0, j
	}
	capW := r.weight(capLo, capHi)
	edge := x + capW/p.PriceE
	// The rest of each bound budget buys cloud; a capped class has none.
	cloud := (r.weights[j] - capW - p.PriceE*x) / p.PriceC
	return sumE + edge, sumS + edge + cloud
}

// totals returns the totals of the classes' points at a share root: the
// root's own once it clears, which the rescaled points sum to; short of
// that, the sums of one more pass at the root, with split (the caller's
// splitCapacity) sharing each class's request out at the root's edge
// fraction.
func (r *sortedRun) totals(p miner.Params, res game.ShareResult, split bool) numeric.Point2 {
	if res.Converged {
		return numeric.Point2{E: res.Edge, C: math.Max(res.Total-res.Edge, 0)}
	}
	sumE, sumS := r.sums(p, res.Mu, res.Edge, res.Total)
	if split {
		sumE = sumS * res.Edge / res.Total
	}
	return numeric.Point2{E: sumE, C: sumS - sumE}
}

// seedConnected is the classed connected seed: Σ n_k·r_k with r_k the
// symmetric equilibrium miner.HomogeneousConnected of all n miners at
// class k's budget.
func (r *sortedRun) seedConnected(p miner.Params, n int) (numeric.Point2, error) {
	free, spend, perBudget, err := miner.HomogeneousConnectedLine(p, n)
	if err != nil {
		return numeric.Point2{}, err
	}
	k := len(r.budgets)
	j := r.search(0, k, func(b float64) bool { return spend <= b })
	nf, w := r.count(j, k), r.weights[j]
	return numeric.Point2{E: nf*free.E + w*perBudget.E, C: nf*free.C + w*perBudget.C}, nil
}
