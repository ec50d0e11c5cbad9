package game

import (
	"math"
	"testing"

	"minegame/internal/miner"
	"minegame/internal/numeric"
)

// cournotBR is the textbook Cournot duopoly best response with inverse
// demand P = a − Q and marginal cost c; the symmetric NE is (a−c)/3 each.
// A firm's profit and best response depend on its rivals only through
// their total quantity.
func cournotBR(a, c float64) AggregateBestResponse {
	return func(_ int, _, others numeric.Point2) numeric.Point2 {
		return numeric.Point2{E: math.Max(0, (a-c-others.E)/2)}
	}
}

func TestSolveNECournot(t *testing.T) {
	const a, c = 120.0, 30.0
	res := SolveNEAggregate([]numeric.Point2{{E: 1}, {E: 50}}, cournotBR(a, c), NEOptions{})
	if !res.Converged {
		t.Fatalf("did not converge: %+v", res)
	}
	want := (a - c) / 3
	for i, r := range res.Profile {
		if math.Abs(r.E-want) > 1e-6 {
			t.Errorf("player %d quantity = %g, want %g", i, r.E, want)
		}
	}
}

func TestSolveNEDampingConverges(t *testing.T) {
	// Same game, heavily damped: still converges, just more slowly.
	res := SolveNEAggregate([]numeric.Point2{{E: 0}, {E: 0}}, cournotBR(120, 30), NEOptions{Damping: 0.3})
	if !res.Converged {
		t.Fatalf("damped iteration did not converge: %+v", res)
	}
	if math.Abs(res.Profile[0].E-30) > 1e-5 {
		t.Errorf("quantity = %g, want 30", res.Profile[0].E)
	}
}

func TestSolveNEIterationBudget(t *testing.T) {
	res := SolveNEAggregate([]numeric.Point2{{E: 0}, {E: 100}}, cournotBR(120, 30), NEOptions{MaxIter: 1})
	if res.Converged {
		t.Error("one sweep from a distant start must not report convergence")
	}
	if res.Iterations != 1 {
		t.Errorf("iterations = %d, want 1", res.Iterations)
	}
}

func TestSolveNEDoesNotMutateStart(t *testing.T) {
	start := []numeric.Point2{{E: 5}, {E: 7}}
	SolveNEAggregate(start, cournotBR(120, 30), NEOptions{})
	if start[0].E != 5 || start[1].E != 7 {
		t.Error("SolveNEAggregate mutated the starting profile")
	}
}

func TestDeviation(t *testing.T) {
	const a, c = 120.0, 30.0
	br := cournotBR(a, c)
	utility := func(_ int, own, others numeric.Point2) float64 {
		return (a - own.E - others.E - c) * own.E
	}
	worst := func(prof []numeric.Point2) float64 {
		var w float64
		for _, g := range DeviationsAggregate(prof, nil, br, utility) {
			w = math.Max(w, g)
		}
		return w
	}
	ne := SolveNEAggregate([]numeric.Point2{{E: 10}, {E: 10}}, cournotBR(a, c), NEOptions{})
	if dev := worst(ne.Profile); dev > 1e-8 {
		t.Errorf("deviation at NE = %g, want ≈0", dev)
	}
	off := []numeric.Point2{{E: 5}, {E: 60}}
	if dev := worst(off); dev <= 1 {
		t.Errorf("deviation off NE = %g, want substantial", dev)
	}
}

// TestSolveNEMinerConnected is an integration test: the heterogeneous
// best-response iteration on the connected-mode miner subgame must land on
// the homogeneous closed form when the miners are identical.
func TestSolveNEMinerConnected(t *testing.T) {
	p := miner.Params{Reward: 1000, Beta: 0.2, H: 0.7, PriceE: 8, PriceC: 4}
	const n, budget = 5, 200.0
	br := func(_ int, own, others numeric.Point2) numeric.Point2 {
		env := miner.Env{EdgeOthers: math.Max(others.E, 0), CloudOthers: math.Max(others.C, 0)}
		return miner.BestResponseConnected(p, budget, env, own)
	}
	start := make([]numeric.Point2, n)
	for i := range start {
		start[i] = numeric.Point2{E: 1 + float64(i), C: 2 * float64(i+1)}
	}
	// The KKT warm acceptance leaves ~1e-7 of slack in each response, so
	// ask for convergence just above that.
	res := SolveNEAggregate(start, br, NEOptions{Tol: 1e-6})
	if !res.Converged {
		t.Fatalf("miner NEP did not converge: %+v", res)
	}
	want, err := miner.HomogeneousConnected(p, n, budget)
	if err != nil {
		t.Fatalf("closed form: %v", err)
	}
	for i, r := range res.Profile {
		if math.Abs(r.E-want.Request.E) > 1e-3 || math.Abs(r.C-want.Request.C) > 1e-3 {
			t.Errorf("miner %d: iterated NE %+v, closed form %+v", i, r, want.Request)
		}
	}
}

// separableShares is the share system of players whose demands ignore
// the totals: player i asks max(a_i − μ, 0) units of the capped good
// (its edge and total request alike).
func separableShares(as []float64, capacity float64) ShareSystem {
	var sum, top float64
	for _, a := range as {
		sum += a
		top = math.Max(top, a)
	}
	demand := func(mu, _, _ float64) (float64, float64) {
		var d float64
		for _, a := range as {
			d += math.Max(a-mu, 0)
		}
		return d, d
	}
	return ShareSystem{
		Sums: demand, Players: float64(len(as)), TotalMax: 2 * sum,
		Capacity: capacity, MuMax: top, FlatEdge: true,
	}
}

// TestSolveVariationalGNELinear uses a synthetic game with a known
// multiplier: player i maximizes a_i·x − x²/2 − μ·x so its μ-penalized
// demand is x_i = max(a_i − μ, 0), and clearing Σx = capacity gives
// μ* = (Σa − capacity)/n while all demands stay interior.
func TestSolveVariationalGNELinear(t *testing.T) {
	const capacity = 24.0
	res := SolveShares(separableShares([]float64{10, 14, 18}, capacity), numeric.Point2{}, NEOptions{})
	if !res.Converged {
		t.Fatalf("SolveShares did not converge: %+v", res)
	}
	wantMu := (10 + 14 + 18 - capacity) / 3.0
	if math.Abs(res.Mu-wantMu) > 1e-9 {
		t.Errorf("multiplier = %g, want %g", res.Mu, wantMu)
	}
	if res.Edge != capacity || math.Abs(res.Total-capacity) > 1e-9 {
		t.Errorf("totals (E, S) = (%g, %g), want the capacity %g", res.Edge, res.Total, capacity)
	}
}

func TestSolveVariationalGNESlackConstraint(t *testing.T) {
	res := SolveShares(separableShares([]float64{5, 5}, 100), numeric.Point2{}, NEOptions{})
	if !res.Converged {
		t.Fatalf("SolveShares did not converge: %+v", res)
	}
	if res.Mu != 0 {
		t.Errorf("multiplier = %g, want 0 for slack constraint", res.Mu)
	}
	if math.Abs(res.Edge-10) > 1e-9 {
		t.Errorf("edge total = %g, want 10", res.Edge)
	}
}

func TestSolveVariationalGNEInfeasible(t *testing.T) {
	// Demand that ignores the multiplier can never be throttled.
	sys := ShareSystem{
		Sums:    func(float64, float64, float64) (float64, float64) { return 100, 100 },
		Players: 2, TotalMax: 400, Capacity: 10, MuMax: 50, FlatEdge: true,
	}
	if res := SolveShares(sys, numeric.Point2{}, NEOptions{}); res.Converged {
		t.Errorf("unthrottlable demand reported converged: %+v", res)
	}
}

// Degenerate-profile behavior of the deviation certificate: empty and
// singleton profiles are legal inputs (a certificate over no players is
// vacuously exact; a lone player checks only its own best response).
func TestDeviationAggregateDegenerateProfiles(t *testing.T) {
	util := func(_ int, own, others numeric.Point2) float64 {
		return -(own.E - 1 - others.E) * (own.E - 1 - others.E)
	}
	br := func(_ int, _, others numeric.Point2) numeric.Point2 {
		return numeric.Point2{E: 1 + others.E}
	}
	if gains := DeviationsAggregate(nil, nil, br, util); len(gains) != 0 {
		t.Errorf("empty profile gains = %v, want empty", gains)
	}
	// Singleton: the aggregate of the others is the zero point.
	if gains := DeviationsAggregate([]numeric.Point2{{E: 1}}, nil, br, util); len(gains) != 1 || gains[0] != 0 {
		t.Errorf("singleton at best response: gains = %v, want [0]", gains)
	}
	gains := DeviationsAggregate([]numeric.Point2{{E: 5}}, nil, br, util)
	if len(gains) != 1 || gains[0] <= 0 {
		t.Errorf("singleton off best response: gains = %v", gains)
	}
}

// Degenerate class-weighted profiles for the deviation certificate: an
// empty or all-zero-count profile certifies nothing and reports no gain,
// a singleton class checks only its own best response, and a class of
// identical peers sees count−1 of them in its opponents' aggregate.
func TestDeviationDegenerateProfiles(t *testing.T) {
	util := func(_ int, own, others numeric.Point2) float64 {
		return -(own.E - 1 - others.E) * (own.E - 1 - others.E)
	}
	br := func(_ int, _, others numeric.Point2) numeric.Point2 {
		return numeric.Point2{E: 1 + others.E}
	}
	if gains := DeviationsAggregate(nil, []int{}, br, util); len(gains) != 0 {
		t.Errorf("empty profile gains = %v, want empty", gains)
	}
	if gains := DeviationsAggregate([]numeric.Point2{{E: 5}}, []int{0}, br, util); len(gains) != 1 || gains[0] != 0 {
		t.Errorf("zero-count class: gains = %v, want [0]", gains)
	}
	if gains := DeviationsAggregate([]numeric.Point2{{E: 1}}, []int{1}, br, util); len(gains) != 1 || gains[0] != 0 {
		t.Errorf("singleton class at best response: gains = %v, want [0]", gains)
	}
	if gains := DeviationsAggregate([]numeric.Point2{{E: 3}}, []int{1}, br, util); len(gains) != 1 || gains[0] <= 0 {
		t.Errorf("singleton class off best response must gain, got %v", gains)
	}
	// Three identical peers at E=3: each member faces others.E = 6, so
	// its best response is 7 and the gain is (3−1−6)² = 16.
	if gains := DeviationsAggregate([]numeric.Point2{{E: 3}}, []int{3}, br, util); len(gains) != 1 || gains[0] != 16 {
		t.Errorf("class of three peers: gains = %v, want [16]", gains)
	}
	if gains := DeviationsAggregate([]numeric.Point2{{E: 1}}, []int{1, 2}, br, util); gains != nil {
		t.Errorf("profile/counts length mismatch: gains = %v, want nil", gains)
	}
}
