package game

// Drift and allocation invariants of the incremental-aggregate loop:
// the running totals handed to an AggregateBestResponse must never
// stray more than ~1 sweep of rounding from the exact profile sums —
// even across tens of thousands of sweeps — and a solve must not
// allocate per sweep.

import (
	"math"
	"testing"

	"minegame/internal/numeric"
)

// TestAggregateTotalsDriftBounded runs 10_000 Gauss–Seidel sweeps of a
// deliberately never-converging aggregate game and cross-checks, at
// every single best-response call, the others-total the solver supplies
// against an exact fresh summation over a shadow copy of the profile.
// The sweep-boundary re-summation must keep the worst deviation at
// bare rounding level (≤ 1e-9 here, orders of magnitude below the
// solver tolerances layered above).
func TestAggregateTotalsDriftBounded(t *testing.T) {
	const (
		n      = 40
		sweeps = 10_000
	)
	start := make([]numeric.Point2, n)
	for i := range start {
		start[i] = numeric.Point2{E: 1 + 0.1*float64(i), C: 2 + 0.05*float64(i)}
	}
	shadow := make([]numeric.Point2, n)
	copy(shadow, start)

	var (
		worst float64
		step  int
	)
	br := func(i int, own, others numeric.Point2) numeric.Point2 {
		// Exact reference: fresh summation over the shadow profile.
		var fresh numeric.Point2
		for _, r := range shadow {
			fresh = fresh.Add(r)
		}
		fresh = fresh.Sub(shadow[i])
		if d := others.Sub(fresh).Norm(); d > worst {
			worst = d
		}
		// A bounded, never-settling response: the drifting phase keeps
		// MaxDelta well above any tolerance so all 10k sweeps run, and
		// the others-coupling keeps the totals genuinely exercised.
		step++
		phase := 0.1 * float64(step)
		next := numeric.Point2{
			E: 1.5 + 0.5*math.Sin(phase) + 1e-3*others.E,
			C: 2.5 + 0.5*math.Cos(phase) + 1e-3*others.C,
		}
		shadow[i] = next
		return next
	}
	res := SolveNEAggregate(start, br, NEOptions{MaxIter: sweeps, Tol: 1e-300})
	if res.Iterations != sweeps {
		t.Fatalf("ran %d sweeps, want %d (the probe map must not converge)", res.Iterations, sweeps)
	}
	if worst > 1e-9 {
		t.Errorf("incremental totals drifted %g from exact summation, want ≤ 1e-9", worst)
	}
	if got := sumPoints(res.Profile).Sub(sumPoints(shadow)).Norm(); got > 0 {
		t.Errorf("solver profile diverged from shadow profile by %g", got)
	}
}

// TestSolveNEAggregateAllocationBudget pins the solver's allocation
// profile: a whole solve costs a constant handful of allocations
// (profile copy plus telemetry shell) regardless of sweep count — the
// totals bookkeeping itself must allocate nothing per sweep.
func TestSolveNEAggregateAllocationBudget(t *testing.T) {
	const n = 16
	start := make([]numeric.Point2, n)
	for i := range start {
		start[i] = numeric.Point2{E: float64(i), C: float64(2 * i)}
	}
	br := func(i int, own, others numeric.Point2) numeric.Point2 {
		return numeric.Point2{E: 1 + 1e-3*others.E, C: 1 + 1e-3*others.C}
	}
	solve := func(sweeps int) float64 {
		return testing.AllocsPerRun(20, func() {
			SolveNEAggregate(start, br, NEOptions{MaxIter: sweeps, Tol: 1e-300})
		})
	}
	short, long := solve(5), solve(200)
	if long > short {
		t.Errorf("allocations grow with sweep count: %v at 5 sweeps, %v at 200", short, long)
	}
	if long > 8 {
		t.Errorf("SolveNEAggregate allocated %v times per solve, budget is 8", long)
	}
}
