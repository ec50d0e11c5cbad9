package miner

// Mean-field class compression: a heterogeneous population whose best
// responses depend on the profile only through the aggregates (ΣE, ΣC)
// collapses into K classes of identical miners solved with
// multiplicities. Two miners belong to the same class exactly when they
// share every best-response input — in this game, the budget (the game
// constants in Params are population-wide) — so a classed equilibrium
// expands to an exact equilibrium of the full N-miner game: every
// member of a class faces the identical environment totals − own and
// therefore shares the identical best-response set. ClassifyQuantile
// trades that exactness for a hard class-count cap with a documented
// budget perturbation bound; see DESIGN.md §12.

import (
	"fmt"
	"math"
	"sort"

	"minegame/internal/numeric"
)

// Class is one group of identical miners: Count members, each with the
// representative Budget.
type Class struct {
	Budget float64 // representative budget B̂
	Count  int     // number of members
}

// ClassedPopulation is a miner population compressed into classes. The
// zero value is empty; build one with ClassifyExact, ClassifyQuantile
// or FromClasses.
type ClassedPopulation struct {
	// Classes are the (budget, count) groups, sorted by ascending
	// budget. Treat as read-only: Expand and the classed solvers assume
	// the slice is not mutated after construction.
	Classes []Class
	// index maps each original miner position to its class, so Expand
	// restores the caller's miner order. nil means class-major order
	// (all of class 0, then class 1, ...), the FromClasses layout.
	index []int
	// n is the total population Σ Count.
	n int
	// budgetSpread is the largest |B_i − B̂_class(i)| the classification
	// introduced (0 for exact dedup).
	budgetSpread float64
}

// N returns the total number of miners across all classes.
func (cp ClassedPopulation) N() int { return cp.n }

// K returns the number of classes.
func (cp ClassedPopulation) K() int { return len(cp.Classes) }

// CompressRatio is N/K, the per-sweep work saved by solving class
// representatives instead of individual miners. An empty population
// reports 0.
func (cp ClassedPopulation) CompressRatio() float64 {
	if len(cp.Classes) == 0 {
		return 0
	}
	return float64(cp.n) / float64(len(cp.Classes))
}

// BudgetSpread is the worst absolute budget perturbation the binning
// introduced: max_i |B_i − B̂_class(i)|. Exact classifications report 0;
// the ε-Nash error of a binned equilibrium on the true budgets is
// bounded by λ_max·BudgetSpread where λ_max is the largest budget
// shadow price (DESIGN.md §12).
func (cp ClassedPopulation) BudgetSpread() float64 { return cp.budgetSpread }

// Counts returns the per-class member counts as a fresh slice (the
// shape the classed solvers take).
func (cp ClassedPopulation) Counts() []int {
	counts := make([]int, len(cp.Classes))
	for k, c := range cp.Classes {
		counts[k] = c.Count
	}
	return counts
}

// ClassOf returns the class index of original miner i. Populations
// built without a per-miner index (FromClasses) use class-major order.
func (cp ClassedPopulation) ClassOf(i int) int {
	if cp.index != nil {
		return cp.index[i]
	}
	for k, c := range cp.Classes {
		if i < c.Count {
			return k
		}
		i -= c.Count
	}
	return len(cp.Classes) - 1
}

// Budgets re-materializes the per-miner budget vector (representative
// values, original miner order) — an O(N) allocation, intended for
// cross-checks at feasible N, not the million-miner hot path.
func (cp ClassedPopulation) Budgets() []float64 {
	out := make([]float64, cp.n)
	for i := range out {
		out[i] = cp.Classes[cp.ClassOf(i)].Budget
	}
	return out
}

// Validate reports structural errors: no classes, non-positive counts,
// non-finite/non-positive representative budgets, or classes out of
// ascending budget order.
func (cp ClassedPopulation) Validate() error {
	if len(cp.Classes) == 0 {
		return fmt.Errorf("miner classes: empty population")
	}
	total := 0
	for k, c := range cp.Classes {
		if c.Count <= 0 {
			return fmt.Errorf("miner classes: class %d count %d must be positive", k, c.Count)
		}
		if !(c.Budget > 0) || math.IsInf(c.Budget, 0) {
			return fmt.Errorf("miner classes: class %d budget %g must be positive and finite", k, c.Budget)
		}
		if k > 0 && c.Budget < cp.Classes[k-1].Budget {
			return fmt.Errorf("miner classes: class %d budget %g is below class %d's %g", k, c.Budget, k-1, cp.Classes[k-1].Budget)
		}
		total += c.Count
	}
	if total != cp.n {
		return fmt.Errorf("miner classes: counts sum to %d, population records %d", total, cp.n)
	}
	if cp.index != nil && len(cp.index) != cp.n {
		return fmt.Errorf("miner classes: index has %d entries for %d miners", len(cp.index), cp.n)
	}
	return nil
}

// Expand materializes the full N-miner profile in which every member of
// class k plays reqs[k], in the original miner order. len(reqs) must
// equal K; a mismatch returns nil.
func (cp ClassedPopulation) Expand(reqs []numeric.Point2) Profile {
	if len(reqs) != len(cp.Classes) {
		return nil
	}
	prof := make(Profile, 0, cp.n)
	if cp.index != nil {
		for _, k := range cp.index {
			prof = append(prof, reqs[k])
		}
		return prof
	}
	for k, c := range cp.Classes {
		for j := 0; j < c.Count; j++ {
			prof = append(prof, reqs[k])
		}
	}
	return prof
}

// Aggregate sums the classed profile into population totals in O(K):
// E = Σ_k count_k·e_k, C = Σ_k count_k·c_k. A length mismatch returns
// zero totals.
func (cp ClassedPopulation) Aggregate(reqs []numeric.Point2) Totals {
	var t Totals
	if len(reqs) != len(cp.Classes) {
		return t
	}
	for k, c := range cp.Classes {
		t.Edge += float64(c.Count) * reqs[k].E
		t.Cloud += float64(c.Count) * reqs[k].C
	}
	return t
}

// ClassifyExact compresses a budget vector by exact deduplication: one
// class per distinct budget value, classes sorted by ascending budget,
// each original miner remembered so Expand restores the input order.
// The compression is lossless — the classed equilibrium is an exact
// equilibrium of the N-miner game.
func ClassifyExact(budgets []float64) ClassedPopulation {
	return classify(budgets, 0)
}

// ClassifyQuantile compresses a budget vector into at most maxClasses
// classes: exact deduplication when the distinct values fit, otherwise
// quantile binning — the sorted budgets are split into maxClasses
// near-equal-population contiguous bins and each bin's members adopt
// the bin's mean budget. The representative-budget perturbation is
// recorded in BudgetSpread. maxClasses < 1 is treated as exact.
func ClassifyQuantile(budgets []float64, maxClasses int) ClassedPopulation {
	return classify(budgets, maxClasses)
}

// classify is the shared implementation: maxClasses ≤ 0 means exact.
func classify(budgets []float64, maxClasses int) ClassedPopulation {
	n := len(budgets)
	if n == 0 {
		return ClassedPopulation{}
	}
	// Sort (budget, original index) pairs; grouping is then a linear scan.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return budgets[order[a]] < budgets[order[b]] })

	distinct := 1
	for j := 1; j < n; j++ {
		if budgets[order[j]] != budgets[order[j-1]] { //lint:allow floateq exact dedup on user-supplied budget values, not computed floats
			distinct++
		}
	}

	cp := ClassedPopulation{n: n, index: make([]int, n)}
	if maxClasses <= 0 || distinct <= maxClasses {
		// Exact dedup: one class per distinct value.
		cp.Classes = make([]Class, 0, distinct)
		for j := 0; j < n; j++ {
			b := budgets[order[j]]
			if j == 0 || b != budgets[order[j-1]] { //lint:allow floateq exact dedup on user-supplied budget values, not computed floats
				cp.Classes = append(cp.Classes, Class{Budget: b})
			}
			k := len(cp.Classes) - 1
			cp.Classes[k].Count++
			cp.index[order[j]] = k
		}
		return cp
	}

	// Quantile binning: maxClasses contiguous bins of near-equal
	// population over the sorted order; ties on the bin boundary stay
	// together only by position, not value — the bound below covers it.
	cp.Classes = make([]Class, 0, maxClasses)
	for k := 0; k < maxClasses; k++ {
		lo := k * n / maxClasses
		hi := (k + 1) * n / maxClasses
		if hi <= lo {
			continue
		}
		sum := 0.0
		for j := lo; j < hi; j++ {
			sum += budgets[order[j]]
		}
		rep := sum / float64(hi-lo)
		ki := len(cp.Classes)
		if ki > 0 {
			// Bin means ascend, but a run of equal budgets split across
			// two bins can round to means one ulp out of order; keep the
			// classes sorted (Validate).
			rep = math.Max(rep, cp.Classes[ki-1].Budget)
		}
		cp.Classes = append(cp.Classes, Class{Budget: rep, Count: hi - lo})
		for j := lo; j < hi; j++ {
			cp.index[order[j]] = ki
			if d := math.Abs(budgets[order[j]] - rep); d > cp.budgetSpread {
				cp.budgetSpread = d
			}
		}
	}
	return cp
}

// FromClasses builds a population directly from class descriptors (the
// streaming-population and CLI path: no per-miner budget vector ever
// exists). Expansion uses class-major miner order. The classes are
// copied and sorted by ascending budget; classes with equal budgets are
// merged.
func FromClasses(classes []Class) (ClassedPopulation, error) {
	if len(classes) == 0 {
		return ClassedPopulation{}, fmt.Errorf("miner classes: empty class list")
	}
	cs := make([]Class, len(classes))
	copy(cs, classes)
	sort.SliceStable(cs, func(a, b int) bool { return cs[a].Budget < cs[b].Budget })
	merged := cs[:1]
	for _, c := range cs[1:] {
		last := &merged[len(merged)-1]
		if c.Budget == last.Budget { //lint:allow floateq exact merge on caller-supplied budget values, not computed floats
			last.Count += c.Count
			continue
		}
		merged = append(merged, c)
	}
	cp := ClassedPopulation{Classes: merged}
	for _, c := range merged {
		cp.n += c.Count
	}
	if err := cp.Validate(); err != nil {
		return ClassedPopulation{}, err
	}
	return cp, nil
}
