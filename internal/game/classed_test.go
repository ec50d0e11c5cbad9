package game

import (
	"math"
	"testing"

	"minegame/internal/numeric"
)

// toyClassedGame is a contractive linear aggregative game: player i's
// best response to the others' total t is (a_i − g·t.E, b_i − g·t.C)
// clamped at zero. With g·(N−1) < 1 the NE is unique, so the classed
// share solve and per-player best-response iteration must land on the
// same point.
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

// point is the toy game's replacement function: the strategy of a
// member of class k that best-responds to the others when the totals
// are (E, C), with the edge coordinate priced by μ: x = a − μ − g(E − x)
// solved for x, clamped at zero.
func (t toyClassedGame) point(k int, mu float64, tot numeric.Point2) numeric.Point2 {
	return numeric.Point2{
		E: math.Max(0, (t.a[k]-mu-t.g*tot.E)/(1-t.g)),
		C: math.Max(0, (t.b[k]-t.g*tot.C)/(1-t.g)),
	}
}

// shares is the toy game's share system over classes of the given
// counts (nil: one player per entry); S is the sum of both coordinates.
func (t toyClassedGame) shares(counts []int, capacity float64) ShareSystem {
	var players, top, reach float64
	for k := range t.a {
		n := 1.0
		if counts != nil {
			n = float64(counts[k])
		}
		players += n
		top = math.Max(top, t.a[k])
		reach += n * (t.a[k] + t.b[k]) / (1 - t.g)
	}
	return ShareSystem{
		Sums: func(mu, e, s float64) (float64, float64) {
			var sumE, sumS float64
			for k := range t.a {
				n := 1.0
				if counts != nil {
					n = float64(counts[k])
				}
				x := t.point(k, mu, numeric.Point2{E: e, C: s - e})
				sumE += n * x.E
				sumS += n * (x.E + x.C)
			}
			return sumE, sumS
		},
		Players: players, TotalMax: 2 * reach, Capacity: capacity, MuMax: top,
	}
}

// classedProfile is one point per class at the root of a toy share solve.
func (t toyClassedGame) classedProfile(res ShareResult) []numeric.Point2 {
	prof := make([]numeric.Point2, len(t.a))
	for k := range prof {
		prof[k] = t.point(k, res.Mu, numeric.Point2{E: res.Edge, C: res.Total - res.Edge})
	}
	return prof
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
	res := SolveShares(classed.shares(counts, math.Inf(1)), numeric.Point2{}, NEOptions{})
	if !res.Converged {
		t.Fatalf("classed share solve did not converge: %+v", res)
	}
	reps := classed.classedProfile(res)

	start := make([]numeric.Point2, len(counts))
	for k := range start {
		start[k] = numeric.Point2{E: a[k] / 2, C: b[k] / 2}
	}
	fullStart, ea, eb := expandReps(start, counts, a, b)
	exact := toyClassedGame{a: ea, b: eb, g: classed.g}
	full := SolveNEAggregate(fullStart, exact.br, NEOptions{MaxIter: 4000, Tol: 1e-12})
	if !full.Converged {
		t.Fatalf("exact solve did not converge: %+v", full)
	}

	expanded, _, _ := expandReps(reps, counts, a, b)
	for i := range expanded {
		if d := expanded[i].Sub(full.Profile[i]).Norm(); d > 1e-9 {
			t.Fatalf("player %d: classed %v vs exact %v (dist %g)", i, expanded[i], full.Profile[i], d)
		}
	}

	// At the classed equilibrium no class member can gain by deviating.
	gains := DeviationsAggregate(reps, counts, classed.br, classed.utility)
	for k, gain := range gains {
		if gain > 1e-18 {
			t.Fatalf("class %d has deviation gain %g at equilibrium", k, gain)
		}
	}
}

func TestSolveNEClassedHomogeneousBigClass(t *testing.T) {
	// One class of 1000 identical players, whose symmetric best-response
	// map has slope −g·(N−1) = −0.95: iterating it oscillates, but the
	// share root is the symmetric fixed point directly.
	counts := []int{1000}
	g := 0.95 / 999.0
	game := toyClassedGame{a: []float64{20}, b: []float64{10}, g: g}
	res := SolveShares(game.shares(counts, math.Inf(1)), numeric.Point2{E: 1, C: 1}, NEOptions{})
	if !res.Converged {
		t.Fatalf("homogeneous classed solve did not converge: %+v", res)
	}
	// Symmetric fixed point: x = a − g·(N−1)·x  ⇒  x = a / (1 + g(N−1)).
	rep := game.classedProfile(res)[0]
	wantE := 20.0 / (1 + g*999)
	wantC := 10.0 / (1 + g*999)
	if math.Abs(rep.E-wantE) > 1e-9 || math.Abs(rep.C-wantC) > 1e-9 {
		t.Fatalf("fixed point %v, want (%g, %g)", rep, wantE, wantC)
	}
}

func TestSolveVariationalGNEClassedMatchesExact(t *testing.T) {
	counts := []int{30, 10}
	a := []float64{12, 18}
	b := []float64{6, 6}
	g := 0.8 / 39
	capacity := 60.0 // binds: unconstrained total edge demand is far larger
	classed := toyClassedGame{a: a, b: b, g: g}
	res := SolveShares(classed.shares(counts, capacity), numeric.Point2{}, NEOptions{})
	if !res.Converged || res.Edge != capacity || res.Mu <= 0 {
		t.Fatalf("classed share solve: want a converged, binding capacity %g with μ > 0, got %+v", capacity, res)
	}

	// The exact game, one entry per player, clears at the same price.
	_, ea, eb := expandReps(make([]numeric.Point2, len(counts)), counts, a, b)
	exact := toyClassedGame{a: ea, b: eb, g: g}
	full := SolveShares(exact.shares(nil, capacity), numeric.Point2{}, NEOptions{})
	if !full.Converged || math.Abs(full.Mu-res.Mu) > 1e-9 || math.Abs(full.Total-res.Total) > 1e-9 {
		t.Fatalf("exact %+v vs classed %+v", full, res)
	}
	expanded, _, _ := expandReps(classed.classedProfile(res), counts, a, b)
	for i, x := range exact.classedProfile(full) {
		if d := expanded[i].Sub(x).Norm(); d > 1e-9 {
			t.Fatalf("player %d: classed %v vs exact %v (dist %g)", i, expanded[i], x, d)
		}
	}
}

func TestSolveNEClassedShapeMismatch(t *testing.T) {
	if DeviationsAggregate([]numeric.Point2{{}}, []int{1, 2}, nil, nil) != nil {
		t.Fatal("mismatched DeviationsAggregate should return nil")
	}
}

func TestSolveNEClassedSkipsEmptyClasses(t *testing.T) {
	// A class with count 0 weighs nothing in the share sums: the root is
	// the one without it.
	with := toyClassedGame{a: []float64{10, 99, 10}, b: []float64{5, 99, 5}, g: 0.05}
	without := toyClassedGame{a: []float64{10, 10}, b: []float64{5, 5}, g: 0.05}
	res := SolveShares(with.shares([]int{5, 0, 5}, math.Inf(1)), numeric.Point2{}, NEOptions{})
	ref := SolveShares(without.shares([]int{5, 5}, math.Inf(1)), numeric.Point2{}, NEOptions{})
	if !res.Converged || math.Abs(res.Edge-ref.Edge) > 1e-9 || math.Abs(res.Total-ref.Total) > 1e-9 {
		t.Fatalf("solve with an empty class %+v, without it %+v", res, ref)
	}
	// Classes 0 and 2 are identical, so they share a point.
	reps := with.classedProfile(res)
	if reps[0] != reps[2] {
		t.Fatalf("identical classes diverged: %v vs %v", reps[0], reps[2])
	}
}

// TestSolveNEAggregateUnitCountsMatchNil pins the exact game as the
// unit-count case: the share solve over explicit counts of 1 and best-
// response iteration over one entry per player (under both update
// schedules) reach the same equilibrium, and the deviation gains with
// unit and nil counts are bit-identical.
func TestSolveNEAggregateUnitCountsMatchNil(t *testing.T) {
	a := []float64{10, 14, 6, 8, 11}
	b := []float64{5, 3, 9, 4, 7}
	g := toyClassedGame{a: a, b: b, g: 0.2}
	start := make([]numeric.Point2, len(a))
	for k := range start {
		start[k] = numeric.Point2{E: a[k] / 3, C: b[k] / 3}
	}
	ones := []int{1, 1, 1, 1, 1}
	res := SolveShares(g.shares(ones, math.Inf(1)), numeric.Point2{}, NEOptions{})
	if !res.Converged {
		t.Fatalf("unit-count share solve did not converge: %+v", res)
	}
	unit := g.classedProfile(res)
	for _, jacobi := range []bool{false, true} {
		opts := NEOptions{MaxIter: 400, Tol: 1e-12, Jacobi: jacobi, Damping: 0.7}
		exact := SolveNEAggregate(start, g.br, opts)
		if !exact.Converged {
			t.Fatalf("jacobi=%v: best-response iteration did not converge: %+v", jacobi, exact)
		}
		for k := range exact.Profile {
			if d := unit[k].Sub(exact.Profile[k]).Norm(); d > 1e-10 {
				t.Fatalf("jacobi=%v entry %d: share root %v vs iteration %v", jacobi, k, unit[k], exact.Profile[k])
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
