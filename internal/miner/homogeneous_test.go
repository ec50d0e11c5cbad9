package miner

import (
	"math"
	"testing"

	"minegame/internal/numeric"
)

func TestMixedStrategyCondition(t *testing.T) {
	p := testParams() // Pc(1−β+hβ) = 3.76 < (1−β)Pe = 6.4
	if !MixedStrategyCondition(p) {
		t.Error("default params must admit a mixed strategy")
	}
	p.PriceC = 7
	if MixedStrategyCondition(p) {
		t.Error("expensive cloud must fail the mixed condition")
	}
}

func TestHomogeneousConnectedInterior(t *testing.T) {
	p := testParams()
	const n = 5
	sol, err := HomogeneousConnected(p, n, 1e6)
	if err != nil {
		t.Fatalf("HomogeneousConnected: %v", err)
	}
	// Hand-computed Corollary 1 (with h): e* = hβR(n−1)/(n²(Pe−Pc)).
	wantE := 0.7 * 0.2 * 1000 * 4 / (25 * 4.0)
	wantS := 0.8 * 1000 * 4 / (25 * 4.0)
	if math.Abs(sol.Request.E-wantE) > 1e-9 {
		t.Errorf("e* = %g, want %g", sol.Request.E, wantE)
	}
	if math.Abs(sol.Request.E+sol.Request.C-wantS) > 1e-9 {
		t.Errorf("s* = %g, want %g", sol.Request.E+sol.Request.C, wantS)
	}
	if sol.BudgetBinding || !sol.Mixed {
		t.Errorf("flags = %+v, want interior mixed", sol)
	}
}

func TestHomogeneousConnectedPrintedCorollary1AtH1(t *testing.T) {
	// The paper's printed Corollary 1 has no h; it is the h = 1 form.
	p := testParams()
	p.H = 1
	const n = 5
	sol, err := HomogeneousConnected(p, n, 1e6)
	if err != nil {
		t.Fatalf("HomogeneousConnected: %v", err)
	}
	nf := float64(n)
	wantE := p.Beta * p.Reward * (nf - 1) / (nf * nf * (p.PriceE - p.PriceC))
	wantC := p.Reward * (nf - 1) * ((1-p.Beta)*p.PriceE - p.PriceC) / (nf * nf * p.PriceC * (p.PriceE - p.PriceC))
	if math.Abs(sol.Request.E-wantE) > 1e-9 || math.Abs(sol.Request.C-wantC) > 1e-9 {
		t.Errorf("h=1 closed form = %+v, want (%g, %g)", sol.Request, wantE, wantC)
	}
}

func TestHomogeneousConnectedBudgetBinding(t *testing.T) {
	p := testParams()
	const n, budget = 5, 100.0
	sol, err := HomogeneousConnected(p, n, budget)
	if err != nil {
		t.Fatalf("HomogeneousConnected: %v", err)
	}
	if !sol.BudgetBinding {
		t.Fatal("budget 100 should bind (interior spend is 150.4)")
	}
	if spend := p.Spend(sol.Request); math.Abs(spend-budget) > 1e-9 {
		t.Errorf("spend = %g, want full budget", spend)
	}
	// Theorem 3 formula check.
	denom := (1 - p.Beta + p.H*p.Beta) * (p.PriceE - p.PriceC)
	wantE := budget * p.H * p.Beta / denom
	if math.Abs(sol.Request.E-wantE) > 1e-9 {
		t.Errorf("e* = %g, want Theorem 3 value %g", sol.Request.E, wantE)
	}
}

// TestHomogeneousConnectedIsNashFixedPoint verifies that the closed form
// is a fixed point of the best-response map in both regimes.
func TestHomogeneousConnectedIsNashFixedPoint(t *testing.T) {
	p := testParams()
	const n = 5
	for _, budget := range []float64{60, 100, 200, 1e6} {
		sol, err := HomogeneousConnected(p, n, budget)
		if err != nil {
			t.Fatalf("budget %g: %v", budget, err)
		}
		env := Env{EdgeOthers: (n - 1) * sol.Request.E, CloudOthers: (n - 1) * sol.Request.C}
		br := BestResponseConnected(p, budget, env)
		if !closePt(br, sol.Request, 2e-3) {
			t.Errorf("budget %g: best response %+v != closed form %+v", budget, br, sol.Request)
		}
	}
}

func TestHomogeneousConnectedPureEdge(t *testing.T) {
	p := testParams()
	p.PriceC = 7 // mixed condition fails
	sol, err := HomogeneousConnected(p, 5, 1e6)
	if err != nil {
		t.Fatalf("HomogeneousConnected: %v", err)
	}
	if sol.Request.C != 0 || sol.Request.E <= 0 || sol.Mixed {
		t.Errorf("pure edge solution = %+v", sol)
	}
	// And it must be a fixed point of the best response too.
	env := Env{EdgeOthers: 4 * sol.Request.E}
	br := BestResponseConnected(p, 1e6, env)
	if !closePt(br, sol.Request, 2e-3) {
		t.Errorf("pure-edge best response %+v != closed form %+v", br, sol.Request)
	}
}

func TestHomogeneousConnectedErrors(t *testing.T) {
	p := testParams()
	if _, err := HomogeneousConnected(p, 1, 100); err == nil {
		t.Error("want error for n < 2")
	}
	if _, err := HomogeneousConnected(p, 5, 0); err == nil {
		t.Error("want error for zero budget")
	}
	p.Reward = 0
	if _, err := HomogeneousConnected(p, 5, 100); err == nil {
		t.Error("want error for invalid params")
	}
}

func TestHomogeneousStandaloneUnconstrained(t *testing.T) {
	p := testParams()
	const n = 5
	// Unconstrained edge demand: E* = βR(n−1)/(n(Pe−Pc)) = 40.
	sol, err := HomogeneousStandalone(p, n, 100)
	if err != nil {
		t.Fatalf("HomogeneousStandalone: %v", err)
	}
	if sol.CapacityBinding {
		t.Fatal("capacity 100 must not bind (E* = 40)")
	}
	wantE := 0.2 * 1000 * 4 / (5 * 4.0) / 5
	wantS := 0.8 * 1000 * 4 / (5 * 4.0) / 5
	if math.Abs(sol.Request.E-wantE) > 1e-9 {
		t.Errorf("e* = %g, want %g", sol.Request.E, wantE)
	}
	if math.Abs(sol.Request.E+sol.Request.C-wantS) > 1e-9 {
		t.Errorf("s* = %g, want %g", sol.Request.E+sol.Request.C, wantS)
	}
}

func TestHomogeneousStandaloneCapacityBinding(t *testing.T) {
	p := testParams()
	const n = 5
	sol, err := HomogeneousStandalone(p, n, 20) // E* = 40 > 20
	if err != nil {
		t.Fatalf("HomogeneousStandalone: %v", err)
	}
	if !sol.CapacityBinding {
		t.Fatal("capacity 20 must bind")
	}
	if math.Abs(5*sol.Request.E-20) > 1e-9 {
		t.Errorf("total edge = %g, want capacity 20", 5*sol.Request.E)
	}
	if sol.Multiplier <= 0 {
		t.Errorf("multiplier = %g, want positive shadow price", sol.Multiplier)
	}
	// S* is unchanged by the capacity: only the split moves.
	unc, err := HomogeneousStandalone(p, n, 1e6)
	if err != nil {
		t.Fatalf("unconstrained: %v", err)
	}
	sCap := sol.Request.E + sol.Request.C
	sUnc := unc.Request.E + unc.Request.C
	if math.Abs(sCap-sUnc) > 1e-9 {
		t.Errorf("total demand changed with capacity: %g vs %g", sCap, sUnc)
	}
}

// TestHomogeneousStandaloneIsGNEFixedPoint verifies the Table II closed
// form against the numeric standalone best response: each miner's closed
// form must be (near) optimal against the other n−1 copies under the
// remaining-capacity constraint.
func TestHomogeneousStandaloneIsGNEFixedPoint(t *testing.T) {
	p := testParams()
	const n = 5
	for _, cap := range []float64{20.0, 100.0} {
		sol, err := HomogeneousStandalone(p, n, cap)
		if err != nil {
			t.Fatalf("cap %g: %v", cap, err)
		}
		env := Env{EdgeOthers: (n - 1) * sol.Request.E, CloudOthers: (n - 1) * sol.Request.C}
		br := BestResponseStandalone(p, 1e9, cap-env.EdgeOthers, env)
		uBR := UtilityStandalone(p, br, env)
		uSol := UtilityStandalone(p, sol.Request, env)
		// The variational solution may differ slightly from the
		// unilateral optimum when the shared constraint binds, but it
		// must not be exploitable by more than a sliver.
		if uBR > uSol+1e-3*math.Abs(uSol)+1e-3 {
			t.Errorf("cap %g: deviation improves utility %g -> %g (closed form %+v, br %+v)",
				cap, uSol, uBR, sol.Request, br)
		}
	}
}

func TestHomogeneousStandaloneErrors(t *testing.T) {
	p := testParams()
	if _, err := HomogeneousStandalone(p, 1, 50); err == nil {
		t.Error("want error for n < 2")
	}
	if _, err := HomogeneousStandalone(p, 5, 0); err == nil {
		t.Error("want error for zero capacity")
	}
	bad := p
	bad.PriceE = bad.PriceC
	if _, err := HomogeneousStandalone(bad, 5, 50); err == nil {
		t.Error("want error for Pe <= Pc")
	}
	bad = p
	bad.PriceC = 0.9 * (1 - bad.Beta) * bad.PriceE // fails Pc < (1−β)Pe? 0.9×0.8×8=5.76 < 6.4 ok
	bad.PriceC = (1 - bad.Beta) * bad.PriceE
	if _, err := HomogeneousStandalone(bad, 5, 50); err == nil {
		t.Error("want error when mixed condition fails")
	}
}

func TestClearingPriceEdge(t *testing.T) {
	p := testParams()
	const n, cap = 5, 25.0
	pe := ClearingPriceEdge(p.Reward, p.Beta, p.PriceC, n, cap)
	// At the clearing price the unconstrained edge demand equals capacity.
	p2 := p
	p2.PriceE = pe
	sol, err := HomogeneousStandalone(p2, n, 1e9)
	if err != nil {
		t.Fatalf("HomogeneousStandalone: %v", err)
	}
	if total := float64(n) * sol.Request.E; math.Abs(total-cap) > 1e-6 {
		t.Errorf("edge demand at clearing price = %g, want %g", total, cap)
	}
}

func TestOptimalPriceCloudStandalone(t *testing.T) {
	p := testParams()
	const n, cap, costC = 5, 25.0, 1.0
	got := OptimalPriceCloudStandalone(p.Reward, p.Beta, costC, n, cap)
	// Verify against a numeric sweep of the CSP profit with E = E_max.
	a := (1 - p.Beta) * p.Reward * float64(n-1) / float64(n)
	profit := func(pc float64) float64 { return (pc - costC) * (a/pc - cap) }
	best, _ := numeric.MaximizeGolden(profit, costC, 50, 1e-10)
	if math.Abs(got-best) > 1e-4 {
		t.Errorf("closed form Pc* = %g, numeric %g", got, best)
	}
}
