package core

// The sorted run: every market's share passes and seed in O(G·log K)
// for G distinct fork rates. At fixed (μ, E, S) miner.Share depends on
// a type's fork rate and budget alone, and within one fork rate on the
// budget alone (miner.ShareLine): budgets above one spend play one
// point, and below it the budget face is affine in the budget up to two
// clamps. The run orders the types by (β, budget), so each fork rate is
// one group of ascending budgets, and summed over a group each piece is
// a count and a budget weight: a pass is prefix sums of n_k and n_k·B_k
// read at three binary-searched breakpoints per group. The same holds
// for the closed-form seed.

import (
	"math"
	"slices"

	"minegame/internal/game"
	"minegame/internal/miner"
	"minegame/internal/numeric"
)

// sortedRun is a market's types in ascending (β, budget) order, types
// with equal pairs merged into one entry, each entry carrying the
// prefix sums of the counts and budget weights before it; a last entry
// holds the totals. groups splits the entries by fork rate. It is built
// with its market and read-only after, so the market's copies share it.
type sortedRun struct {
	entries []runEntry
	groups  []betaGroup
}

// runEntry is one distinct (β, budget) pair of a run, with count =
// Σ n_k and weight = Σ n_k·B_k over the entries before it.
type runEntry struct {
	beta, budget  float64
	count, weight float64
}

// betaGroup is the run's entries [lo, hi), all on fork rate beta.
type betaGroup struct {
	beta   float64
	lo, hi int
}

// newSortedRun builds the run of the types m. Types that share one
// budget and one fork rate are a single entry of all their miners; any
// others sort a copy of the types, leaving m's own order as it is, and
// merge and sum the copy in place.
func newSortedRun(m *marketTypes) sortedRun {
	if len(m.budgets) == 1 && m.betas == nil {
		n, b := float64(m.n), m.budgets[0]
		return sortedRun{
			entries: []runEntry{{beta: m.cfg.Beta, budget: b}, {count: n, weight: n * b}},
			groups:  []betaGroup{{beta: m.cfg.Beta, hi: 1}},
		}
	}
	es := make([]runEntry, m.k+1)
	for k := 0; k < m.k; k++ {
		es[k] = runEntry{beta: m.beta(k), budget: m.budget(k), count: m.count(k)}
	}
	slices.SortFunc(es[:m.k], func(a, b runEntry) int {
		// Plain comparisons: the config's values are never NaN, and
		// cmp.Compare's NaN checks would double the sort's cost.
		switch {
		case a.beta < b.beta, a.beta == b.beta && a.budget < b.budget: //lint:allow floateq orders the config's fork rates
			return -1
		case a.beta > b.beta, a.budget > b.budget:
			return 1
		}
		return 0
	})
	var r sortedRun
	var count, weight float64
	d := 0 // entries written; never ahead of i
	for i := 0; i < m.k; d++ {
		e, n := es[i], 0.0
		for ; i < m.k && es[i].beta == e.beta && es[i].budget == e.budget; i++ { //lint:allow floateq merges types with identical config values, not computed floats
			n += es[i].count
		}
		if d == 0 || r.groups[len(r.groups)-1].beta != e.beta { //lint:allow floateq groups types by their configured fork rate
			r.groups = append(r.groups, betaGroup{beta: e.beta, lo: d})
		}
		r.groups[len(r.groups)-1].hi = d + 1
		es[d] = runEntry{beta: e.beta, budget: e.budget, count: count, weight: weight}
		count, weight = count+n, weight+n*e.budget
	}
	es[d] = runEntry{count: count, weight: weight}
	r.entries = es[:d+1]
	return r
}

// single reports a run of one (β, budget) entry: one budget and one
// fork rate, the homogeneous market.
func (r *sortedRun) single() bool { return len(r.entries) == 2 }

// count is the number of miners in entries [lo, hi).
func (r *sortedRun) count(lo, hi int) float64 { return r.entries[hi].count - r.entries[lo].count }

// weight is Σ n_k·B_k over entries [lo, hi).
func (r *sortedRun) weight(lo, hi int) float64 { return r.entries[hi].weight - r.entries[lo].weight }

// search returns the first entry in [lo, hi) whose budget satisfies f,
// a predicate false below some budget and true from it on; hi if none
// does.
func (r *sortedRun) search(lo, hi int, f func(budget float64) bool) int {
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if f(r.entries[mid].budget) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// where returns the entries [from, to) of [lo, hi) whose budgets B have
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

// sums is one share pass: Σ n_k·e_k and Σ n_k·s_k over the types'
// miner.Share points at (μ, E, S) = (mu, e, s), each group at its own
// fork rate.
func (r *sortedRun) sums(p miner.Params, mu, e, s float64) (sumE, sumS float64) {
	if !(s > 0) {
		return 0, 0
	}
	for _, g := range r.groups {
		p.Beta = g.beta
		ge, gs := r.groupSums(p, g.lo, g.hi, mu, e, s)
		sumE += ge
		sumS += gs
	}
	return sumE, sumS
}

// groupSums is sums over the entries [lo, hi) of one group, at p's fork
// rate.
func (r *sortedRun) groupSums(p miner.Params, lo, hi int, mu, e, s float64) (float64, float64) {
	line := miner.ShareLineAt(p, mu, e, s)
	// Entries from j on afford the budget-relaxed point.
	j := r.search(lo, hi, func(b float64) bool { return line.FreeSpend <= b })
	free := r.count(j, hi)
	sumE, sumS := free*line.Free.E, free*(line.Free.E+line.Free.C)
	// Below j the budget binds. Its edge request is 0 outside [from, to),
	// capped at B/P_e in [capLo, capHi) and affine in B between; x is
	// Σ n·e over the affine part.
	var x float64
	from, to, capLo, capHi := j, j, j, j
	switch {
	case line.Den > 0:
		from, to = r.where(lo, j, line.Num, line.Slope)
		capLo, capHi = r.where(from, to, line.Num, line.Slope-line.Den/p.PriceE)
		x = (line.Num*(r.count(from, capLo)+r.count(capHi, to)) + line.Slope*(r.weight(from, capLo)+r.weight(capHi, to))) / line.Den
	case mu < 0:
		capLo, capHi = lo, j
	}
	capW := r.weight(capLo, capHi)
	edge := x + capW/p.PriceE
	// The rest of each bound budget buys cloud; a capped entry has none.
	cloud := (r.weight(lo, j) - capW - p.PriceE*x) / p.PriceC
	return sumE + edge, sumS + edge + cloud
}

// totals returns the totals of the types' points at a share root: the
// root's own once it clears, which the rescaled points sum to; short of
// that, the sums of one more pass at the root, with split (the caller's
// splitCapacity) sharing each type's request out at the root's edge
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
