package game

import (
	"math"
	"testing"

	"minegame/internal/miner"
	"minegame/internal/numeric"
)

func TestFictitiousPlayCournot(t *testing.T) {
	res := SolveNEFictitiousAggregate([]numeric.Point2{{E: 0}, {E: 90}}, cournotBR(120, 30), NEOptions{
		MaxIter: 100000,
		Tol:     0.1,
	})
	if !res.Converged {
		t.Fatalf("fictitious play did not converge: %+v", res)
	}
	// Fictitious play's averaging tail is slow (the price of its
	// stability), so the accuracy bar is looser than best-response
	// iteration's.
	for i, r := range res.Profile {
		if math.Abs(r.E-30) > 0.25 {
			t.Errorf("player %d: %g, want ≈30", i, r.E)
		}
	}
}

// TestFictitiousPlayReachesAFixedPoint uses a best-response map with
// slope −1.5 whose clamped game has three equilibria — the unstable
// interior (4, 4) and the stable corners (0, 10) / (10, 0) — and verifies
// fictitious play settles on a genuine Nash fixed point (best responses
// to the final averages do not move them).
func TestFictitiousPlayReachesAFixedPoint(t *testing.T) {
	br := func(i int, prof []numeric.Point2) numeric.Point2 {
		rival := prof[1-i].E
		x := 10 - 1.5*rival
		if x < 0 {
			x = 0
		}
		return numeric.Point2{E: x}
	}
	fp := SolveNEFictitious([]numeric.Point2{{E: 3.9}, {E: 4.1}}, br, NEOptions{MaxIter: 400000, Tol: 0.02})
	for i := range fp.Profile {
		resp := br(i, fp.Profile)
		if math.Abs(resp.E-fp.Profile[i].E) > 0.1 {
			t.Errorf("player %d: average %g is not a best response (%g)", i, fp.Profile[i].E, resp.E)
		}
	}
}

// TestFictitiousPlayMinerSubgame cross-checks against the closed form on
// the paper's own game.
func TestFictitiousPlayMinerSubgame(t *testing.T) {
	p := miner.Params{Reward: 1000, Beta: 0.2, H: 0.7, PriceE: 8, PriceC: 4}
	const n, budget = 5, 200.0
	br := func(i int, prof []numeric.Point2) numeric.Point2 {
		return miner.BestResponseConnected(p, budget, miner.Profile(prof).Env(i), prof[i])
	}
	start := make([]numeric.Point2, n)
	for i := range start {
		start[i] = numeric.Point2{E: 2, C: 10}
	}
	res := SolveNEFictitious(start, br, NEOptions{MaxIter: 3000, Tol: 1e-6})
	want, err := miner.HomogeneousConnected(p, n, budget)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res.Profile {
		if math.Abs(r.E-want.Request.E) > 0.02 || math.Abs(r.C-want.Request.C) > 0.1 {
			t.Errorf("miner %d: %+v, closed form %+v", i, r, want.Request)
		}
	}
}
