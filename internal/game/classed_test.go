package game

import (
	"math"
	"testing"

	"minegame/internal/numeric"
)

// toyClassedGame is a contractive linear aggregative game: player i's
// best response to the others' total t is (a_i − g·t.E, b_i − g·t.C)
// clamped at zero. With g·(N−1) < 1 the NE is unique, so the classed
// and per-player solvers must land on the same point.
type toyClassedGame struct {
	a, b []float64 // per-class (or per-player) targets
	g    float64
}

func (t toyClassedGame) br(i int, _ numeric.Point2, others numeric.Point2) numeric.Point2 {
	return numeric.Point2{
		E: math.Max(0, t.a[i]-t.g*others.E),
		C: math.Max(0, t.b[i]-t.g*others.C),
	}
}

func (t toyClassedGame) utility(i int, own, others numeric.Point2) float64 {
	star := t.br(i, own, others)
	d := own.Sub(star)
	return -(d.E*d.E + d.C*d.C)
}

// expandReps materializes the N-player view of a classed profile in
// class-major order, alongside the per-player target slices.
func expandReps(reps []numeric.Point2, counts []int, a, b []float64) ([]numeric.Point2, []float64, []float64) {
	var prof []numeric.Point2
	var ea, eb []float64
	for k := range reps {
		for j := 0; j < counts[k]; j++ {
			prof = append(prof, reps[k])
			ea = append(ea, a[k])
			eb = append(eb, b[k])
		}
	}
	return prof, ea, eb
}

func TestSolveNEClassedMatchesExact(t *testing.T) {
	counts := []int{50, 7, 1, 12}
	a := []float64{10, 14, 6, 8}
	b := []float64{5, 3, 9, 4}
	n := 0
	for _, m := range counts {
		n += m
	}
	classed := toyClassedGame{a: a, b: b, g: 0.9 / float64(n-1)}
	opts := NEOptions{MaxIter: 4000, Tol: 1e-12}

	start := make([]numeric.Point2, len(counts))
	for k := range start {
		start[k] = numeric.Point2{E: a[k] / 2, C: b[k] / 2}
	}
	res := SolveNEAggregate(start, counts, classed.br, opts)
	if !res.Converged {
		t.Fatalf("classed solve did not converge: %+v", res)
	}

	fullStart, ea, eb := expandReps(start, counts, a, b)
	exact := toyClassedGame{a: ea, b: eb, g: classed.g}
	full := SolveNEAggregate(fullStart, nil, exact.br, opts)
	if !full.Converged {
		t.Fatalf("exact solve did not converge: %+v", full)
	}

	expanded, _, _ := expandReps(res.Profile, counts, a, b)
	for i := range expanded {
		if d := expanded[i].Sub(full.Profile[i]).Norm(); d > 1e-9 {
			t.Fatalf("player %d: classed %v vs exact %v (dist %g)", i, expanded[i], full.Profile[i], d)
		}
	}

	// At the classed equilibrium no class member can gain by deviating.
	gains := DeviationsAggregate(res.Profile, counts, classed.br, classed.utility)
	for k, gain := range gains {
		if gain > 1e-18 {
			t.Fatalf("class %d has deviation gain %g at equilibrium", k, gain)
		}
	}
}

func TestSolveNEClassedHomogeneousBigClass(t *testing.T) {
	// One class of 1000 identical players: the whole solve is the inner
	// damped symmetric fixed point. The undamped symmetric map here has
	// slope −g·(N−1) = −0.95, so this exercises the oscillation guard.
	counts := []int{1000}
	g := 0.95 / 999.0
	game := toyClassedGame{a: []float64{20}, b: []float64{10}, g: g}
	res := SolveNEAggregate([]numeric.Point2{{E: 1, C: 1}}, counts, game.br, NEOptions{MaxIter: 500, Tol: 1e-12})
	if !res.Converged {
		t.Fatalf("homogeneous classed solve did not converge: %+v", res)
	}
	// Symmetric fixed point: x = a − g·(N−1)·x  ⇒  x = a / (1 + g(N−1)).
	wantE := 20.0 / (1 + g*999)
	wantC := 10.0 / (1 + g*999)
	if math.Abs(res.Profile[0].E-wantE) > 1e-9 || math.Abs(res.Profile[0].C-wantC) > 1e-9 {
		t.Fatalf("fixed point %v, want (%g, %g)", res.Profile[0], wantE, wantC)
	}
}

func TestSolveVariationalGNEClassedMatchesExact(t *testing.T) {
	counts := []int{30, 10}
	a := []float64{12, 18}
	b := []float64{6, 6}
	n := 40
	g := 0.8 / float64(n-1)
	brAtClassed := func(mu float64) AggregateBestResponse {
		game := toyClassedGame{a: a, b: b, g: g}
		return func(k int, own, others numeric.Point2) numeric.Point2 {
			r := game.br(k, own, others)
			r.E = math.Max(0, r.E-mu)
			return r
		}
	}
	sharedClassed := func(reps []numeric.Point2) float64 {
		total := 0.0
		for k, r := range reps {
			total += float64(counts[k]) * r.E
		}
		return total
	}
	opts := NEOptions{MaxIter: 4000, Tol: 1e-12}
	start := []numeric.Point2{{E: 1, C: 1}, {E: 1, C: 1}}
	capacity := 60.0 // binds: unconstrained total edge demand is far larger
	classedRes, err := SolveVariationalGNEAggregate(start, counts, brAtClassed, sharedClassed, capacity, 1e-9, opts)
	if err != nil {
		t.Fatalf("classed VGNE: %v", err)
	}
	if math.Abs(classedRes.SharedValue-capacity) > 1e-6 {
		t.Fatalf("classed VGNE shared value %g, capacity %g", classedRes.SharedValue, capacity)
	}
	if classedRes.Multiplier <= 0 {
		t.Fatalf("expected binding constraint with positive multiplier, got %g", classedRes.Multiplier)
	}

	fullStart, ea, eb := expandReps(start, counts, a, b)
	brAtFull := func(mu float64) AggregateBestResponse {
		game := toyClassedGame{a: ea, b: eb, g: g}
		return func(i int, own, others numeric.Point2) numeric.Point2 {
			r := game.br(i, own, others)
			r.E = math.Max(0, r.E-mu)
			return r
		}
	}
	sharedFull := func(prof []numeric.Point2) float64 {
		total := 0.0
		for _, p := range prof {
			total += p.E
		}
		return total
	}
	fullRes, err := SolveVariationalGNEAggregate(fullStart, nil, brAtFull, sharedFull, capacity, 1e-9, opts)
	if err != nil {
		t.Fatalf("full VGNE: %v", err)
	}
	expanded, _, _ := expandReps(classedRes.Profile, counts, a, b)
	for i := range expanded {
		if d := expanded[i].Sub(fullRes.Profile[i]).Norm(); d > 1e-6 {
			t.Fatalf("player %d: classed %v vs exact %v (dist %g)", i, expanded[i], fullRes.Profile[i], d)
		}
	}
}

func TestSolveNEClassedShapeMismatch(t *testing.T) {
	res := SolveNEAggregate([]numeric.Point2{{E: 1}}, []int{1, 2}, func(int, numeric.Point2, numeric.Point2) numeric.Point2 {
		return numeric.Point2{}
	}, NEOptions{})
	if res.Profile != nil || res.Converged {
		t.Fatalf("mismatched shapes should return zero result, got %+v", res)
	}
	if DeviationsAggregate([]numeric.Point2{{}}, []int{1, 2}, nil, nil) != nil {
		t.Fatal("mismatched DeviationsAggregate should return nil")
	}
}

func TestSolveNEClassedSkipsEmptyClasses(t *testing.T) {
	counts := []int{5, 0, 5}
	a := []float64{10, 99, 10}
	b := []float64{5, 99, 5}
	game := toyClassedGame{a: a, b: b, g: 0.05}
	start := []numeric.Point2{{E: 1, C: 1}, {E: 7, C: 7}, {E: 1, C: 1}}
	res := SolveNEAggregate(start, counts, game.br, NEOptions{MaxIter: 1000, Tol: 1e-12})
	if !res.Converged {
		t.Fatalf("solve with empty class did not converge: %+v", res)
	}
	// The empty class's representative must be left untouched.
	if res.Profile[1] != (numeric.Point2{E: 7, C: 7}) {
		t.Fatalf("empty class moved: %v", res.Profile[1])
	}
	// Classes 0 and 2 are identical, so they share a fixed point.
	if d := res.Profile[0].Sub(res.Profile[2]).Norm(); d > 1e-9 {
		t.Fatalf("identical classes diverged by %g", d)
	}
}

// TestSolveNEAggregateUnitCountsMatchNil pins the exact game as the
// unit-count case of the engine: explicit counts of 1 and nil counts
// must give bit-identical iterates under both update schedules, and so
// must the deviation gains.
func TestSolveNEAggregateUnitCountsMatchNil(t *testing.T) {
	a := []float64{10, 14, 6, 8, 11}
	b := []float64{5, 3, 9, 4, 7}
	g := toyClassedGame{a: a, b: b, g: 0.2}
	start := make([]numeric.Point2, len(a))
	for k := range start {
		start[k] = numeric.Point2{E: a[k] / 3, C: b[k] / 3}
	}
	ones := []int{1, 1, 1, 1, 1}
	for _, jacobi := range []bool{false, true} {
		opts := NEOptions{MaxIter: 400, Tol: 1e-12, Jacobi: jacobi, Damping: 0.7}
		unit := SolveNEAggregate(start, ones, g.br, opts)
		exact := SolveNEAggregate(start, nil, g.br, opts)
		if !exact.Converged || unit.Iterations != exact.Iterations || unit.MaxDelta != exact.MaxDelta {
			t.Fatalf("jacobi=%v: unit counts %+v vs nil counts %+v", jacobi, unit, exact)
		}
		for k := range exact.Profile {
			if unit.Profile[k] != exact.Profile[k] {
				t.Fatalf("jacobi=%v entry %d: unit counts %v vs nil counts %v", jacobi, k, unit.Profile[k], exact.Profile[k])
			}
		}
	}
	off := []numeric.Point2{{E: 1, C: 1}, {E: 9, C: 2}, {E: 3, C: 3}, {E: 0, C: 8}, {E: 4, C: 4}}
	gu := DeviationsAggregate(off, ones, g.br, g.utility)
	gn := DeviationsAggregate(off, nil, g.br, g.utility)
	for k := range gn {
		if gu[k] != gn[k] {
			t.Fatalf("entry %d: unit-count gain %g vs nil-count gain %g", k, gu[k], gn[k])
		}
	}
}
