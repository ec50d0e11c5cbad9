package miner

import (
	"math"
	"math/rand"
	"testing"

	"minegame/internal/numeric"
)

// gridBest brute-forces the best utility over the feasible region.
func gridBest(f func(numeric.Point2) float64, k numeric.RequestPolytope, steps int) (numeric.Point2, float64) {
	maxE := k.Budget / k.PriceE
	if k.EdgeCap < maxE {
		maxE = k.EdgeCap
	}
	maxC := k.Budget / k.PriceC
	best, bestV := numeric.Point2{}, math.Inf(-1)
	for i := 0; i <= steps; i++ {
		for j := 0; j <= steps; j++ {
			p := numeric.Point2{E: maxE * float64(i) / float64(steps), C: maxC * float64(j) / float64(steps)}
			if !k.Contains(p, 1e-12) {
				continue
			}
			if v := f(p); v > bestV {
				best, bestV = p, v
			}
		}
	}
	return best, bestV
}

func TestBestResponseConnectedBeatsGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 60; trial++ {
		p := Params{
			Reward: 500 + 1000*rng.Float64(),
			Beta:   0.05 + 0.5*rng.Float64(),
			H:      0.2 + 0.8*rng.Float64(),
			PriceC: 1 + 4*rng.Float64(),
		}
		p.PriceE = p.PriceC * (1.1 + 2*rng.Float64())
		budget := 50 + 250*rng.Float64()
		env := Env{EdgeOthers: 1 + 15*rng.Float64(), CloudOthers: 1 + 30*rng.Float64()}

		got := BestResponseConnected(p, budget, env)
		k := numeric.RequestPolytope{PriceE: p.PriceE, PriceC: p.PriceC, Budget: budget, EdgeCap: math.Inf(1)}
		if !k.Contains(got, 1e-8) {
			t.Fatalf("best response %+v infeasible (budget %g, params %+v)", got, budget, p)
		}
		f := func(x numeric.Point2) float64 { return UtilityConnected(p, x, env) }
		_, gridV := gridBest(f, k, 60)
		if f(got) < gridV-1e-6*math.Abs(gridV)-1e-6 {
			t.Fatalf("best response utility %.9g below grid best %.9g (params %+v env %+v budget %g)",
				f(got), gridV, p, env, budget)
		}
	}
}

func TestBestResponseConnectedRespectsBudget(t *testing.T) {
	p := testParams()
	env := Env{EdgeOthers: 10, CloudOthers: 20}
	for _, budget := range []float64{5, 20, 50, 100, 1000} {
		got := BestResponseConnected(p, budget, env)
		if spend := p.Spend(got); spend > budget+1e-6 {
			t.Errorf("budget %g: spend %g exceeds it", budget, spend)
		}
	}
}

func TestBestResponseConnectedTightBudgetBinds(t *testing.T) {
	// With a generous unconstrained optimum, a small budget must be spent
	// fully (the utility is strictly increasing at small requests).
	p := testParams()
	env := Env{EdgeOthers: 10, CloudOthers: 20}
	got := BestResponseConnected(p, 10, env)
	if spend := p.Spend(got); math.Abs(spend-10) > 1e-4 {
		t.Errorf("spend = %g, want the full budget 10", spend)
	}
}

func TestBestResponseConnectedFallbackRegimes(t *testing.T) {
	env := Env{EdgeOthers: 10, CloudOthers: 20}
	// P_e ≤ P_c: edge is cheaper and strictly better, so cloud is unused.
	p := testParams()
	p.PriceE, p.PriceC = 3, 4
	got := BestResponseConnected(p, 200, env)
	if got.C > 1e-6 {
		t.Errorf("cloud units %g bought although edge dominates", got.C)
	}
	if got.E <= 0 {
		t.Error("no edge units bought although edge dominates")
	}
	// No rival edge demand: the analytic path is skipped but the numeric
	// path must still produce a feasible, grid-dominant answer.
	p = testParams()
	envNoEdge := Env{EdgeOthers: 0, CloudOthers: 20}
	got = BestResponseConnected(p, 200, envNoEdge)
	k := numeric.RequestPolytope{PriceE: p.PriceE, PriceC: p.PriceC, Budget: 200, EdgeCap: math.Inf(1)}
	f := func(x numeric.Point2) float64 { return UtilityConnected(p, x, envNoEdge) }
	_, gridV := gridBest(f, k, 80)
	if f(got) < gridV-1e-6 {
		t.Errorf("no-rival-edge: utility %g below grid best %g", f(got), gridV)
	}
}

func TestAnalyticConnectedMatchesInteriorFixedPoint(t *testing.T) {
	// At the homogeneous interior equilibrium, the best response to n−1
	// copies of the closed-form request must reproduce that request.
	p := testParams()
	const n = 5
	sol, err := HomogeneousConnected(p, n, 1e9)
	if err != nil {
		t.Fatalf("HomogeneousConnected: %v", err)
	}
	env := Env{EdgeOthers: (n - 1) * sol.Request.E, CloudOthers: (n - 1) * sol.Request.C}
	br := BestResponseConnected(p, 1e9, env)
	if !closePt(br, sol.Request, 1e-4) {
		t.Errorf("best response %+v differs from closed form %+v", br, sol.Request)
	}
}

func TestBestResponseStandaloneBeatsGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 60; trial++ {
		p := Params{
			Reward: 500 + 1000*rng.Float64(),
			Beta:   0.05 + 0.5*rng.Float64(),
			H:      1,
			PriceC: 1 + 4*rng.Float64(),
		}
		p.PriceE = p.PriceC * (1.1 + 2*rng.Float64())
		budget := 50 + 250*rng.Float64()
		edgeCap := 2 + 20*rng.Float64()
		env := Env{EdgeOthers: 1 + 15*rng.Float64(), CloudOthers: 1 + 30*rng.Float64()}

		got := BestResponseStandalone(p, budget, edgeCap, env)
		k := numeric.RequestPolytope{PriceE: p.PriceE, PriceC: p.PriceC, Budget: budget, EdgeCap: edgeCap}
		if !k.Contains(got, 1e-8) {
			t.Fatalf("best response %+v infeasible (cap %g)", got, edgeCap)
		}
		f := func(x numeric.Point2) float64 { return UtilityStandalone(p, x, env) }
		_, gridV := gridBest(f, k, 60)
		if f(got) < gridV-1e-6*math.Abs(gridV)-1e-6 {
			t.Fatalf("standalone best response %.9g below grid best %.9g (params %+v env %+v budget %g cap %g)",
				f(got), gridV, p, env, budget, edgeCap)
		}
	}
}

func TestBestResponseStandaloneZeroCapacity(t *testing.T) {
	p := testParams()
	env := Env{EdgeOthers: 10, CloudOthers: 20}
	got := BestResponseStandalone(p, 200, 0, env)
	if got.E != 0 {
		t.Errorf("edge request %g with zero remaining capacity", got.E)
	}
	if got.C <= 0 {
		t.Error("cloud request should be positive when edge is unavailable")
	}
	// Negative remaining capacity behaves like zero.
	got = BestResponseStandalone(p, 200, -3, env)
	if got.E != 0 {
		t.Errorf("edge request %g with negative remaining capacity", got.E)
	}
}

func TestBestResponseNoRivalEdgeDemand(t *testing.T) {
	// With no rival edge demand the fork bonus is worth its full β for
	// any e > 0, so the supremum is the e → 0⁺ limit point with the
	// cloud-optimal total s = √((1−β)R·C₋ᵢ/P_c) − C₋ᵢ = 43.2455…, worth
	// 574.0356. A projected-gradient search stalls on the flat bonus at
	// (1e-12, 33.09), worth 566.26.
	p := Params{Reward: 1000, Beta: 0.2, H: 1, PriceE: 8, PriceC: 4}
	env := Env{CloudOthers: 20}
	wantS := math.Sqrt(0.8*1000*20/4) - 20
	for _, tc := range []struct {
		name string
		mu   float64
		br   func() numeric.Point2
	}{
		{"standalone", 0, func() numeric.Point2 { return BestResponseStandalone(p, 200, 60, env) }},
		{"penalized mu=0", 0, func() numeric.Point2 { return BestResponseStandalonePenalized(p, 0, 200, env) }},
		{"penalized mu=1", 1, func() numeric.Point2 { return BestResponseStandalonePenalized(p, 1, 200, env) }},
		{"connected h=1", 0, func() numeric.Point2 { return BestResponseConnected(p, 200, env) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.br()
			if got.E <= 0 || got.E > 1e-9 {
				t.Errorf("edge request %g, want the e → 0⁺ limit (0, 1e-9]", got.E)
			}
			if s := got.E + got.C; math.Abs(s-wantS) > 1e-6 {
				t.Errorf("total request %.9g, want %.9g", s, wantS)
			}
			if u := UtilityStandalone(p, got, env) - tc.mu*got.E; u < 574.035 {
				t.Errorf("utility %.6f, want the limit value 574.0356", u)
			}
		})
	}
}

func TestBestResponseTieTakesLeastEdge(t *testing.T) {
	// P_e = P_c with β = 0: only the total request matters, and the tie
	// rule buys cloud.
	p := Params{Reward: 1000, Beta: 0, H: 0.7, PriceE: 4, PriceC: 4}
	env := Env{EdgeOthers: 10, CloudOthers: 20}
	wantS := math.Sqrt(1000*30/4.0) - 30
	for _, got := range []numeric.Point2{
		BestResponseConnected(p, 1000, env),
		BestResponseStandalone(p, 1000, 60, env),
	} {
		if got.E != 0 || math.Abs(got.C-wantS) > 1e-9 {
			t.Errorf("best response %+v, want (0, %.9g)", got, wantS)
		}
	}
}

func TestBestResponseAllocatesNothing(t *testing.T) {
	p := testParams()
	cases := []struct {
		budget float64
		env    Env
	}{
		{200, Env{EdgeOthers: 10, CloudOthers: 20}}, // interior
		{10, Env{EdgeOthers: 10, CloudOthers: 20}},  // budget binds
		{200, Env{CloudOthers: 20}},                 // no rival edge demand
		{200, Env{}},                                // no rivals
	}
	for _, tc := range cases {
		allocs := testing.AllocsPerRun(50, func() {
			BestResponseConnected(p, tc.budget, tc.env)
			BestResponseStandalone(p, tc.budget, 5, tc.env)
			BestResponseStandalonePenalized(p, 1.5, tc.budget, tc.env, numeric.Point2{E: 1, C: 1})
		})
		if allocs != 0 {
			t.Errorf("budget %g env %+v: %g allocations per call, want 0", tc.budget, tc.env, allocs)
		}
	}
}
