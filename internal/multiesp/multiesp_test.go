package multiesp

import (
	"math"
	"math/rand"
	"testing"

	"minegame/internal/miner"
	"minegame/internal/numeric"
)

func singleESPConfig() Config {
	return Config{
		N:      5,
		Budget: 200,
		Reward: 1000,
		Beta:   0.2,
		ESPs:   []ESP{{Price: 8, H: 0.7}},
		PriceC: 4,
	}
}

func twoESPConfig() Config {
	cfg := singleESPConfig()
	cfg.ESPs = []ESP{
		{Price: 9, H: 0.9}, // premium edge: reliable but expensive
		{Price: 6, H: 0.4}, // budget edge: cheap but often transfers
	}
	return cfg
}

func TestValidate(t *testing.T) {
	if err := singleESPConfig().Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.N = 1 },
		func(c *Config) { c.Budget = 0 },
		func(c *Config) { c.Reward = 0 },
		func(c *Config) { c.Beta = 1 },
		func(c *Config) { c.ESPs = nil },
		func(c *Config) { c.ESPs[0].Price = 0 },
		func(c *Config) { c.ESPs[0].H = 1.5 },
		func(c *Config) { c.PriceC = 0 },
		// NaN passes x <= 0 checks, Inf passes x > 0: both must be caught
		// by the affirmative-range validation (found by fuzzing).
		func(c *Config) { c.Budget = math.NaN() },
		func(c *Config) { c.Reward = math.Inf(1) },
		func(c *Config) { c.Beta = math.NaN() },
		func(c *Config) { c.PriceC = math.NaN() },
		func(c *Config) { c.ESPs[0].Price = math.NaN() },
		func(c *Config) { c.ESPs[0].H = math.NaN() },
	}
	for i, mutate := range mutations {
		cfg := singleESPConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d should be invalid", i)
		}
	}
}

// TestWinProbReducesToEq9 checks the K = 1 specialization against the
// single-ESP connected-mode formula for random strategies.
func TestWinProbReducesToEq9(t *testing.T) {
	cfg := singleESPConfig()
	cases := []struct{ e, c, eOth, cOth float64 }{
		{2, 10, 15, 40},
		{0, 5, 3, 20},
		{7, 0, 1, 2},
		{4, 4, 0, 10},
	}
	for _, tc := range cases {
		own := numeric.Vec{tc.e, tc.c}
		others := numeric.Vec{tc.eOth, tc.cOth}
		got := cfg.WinProb(own, others)
		want := miner.WinProbConnected(cfg.Beta, cfg.ESPs[0].H,
			numeric.Point2{E: tc.e, C: tc.c},
			miner.Env{EdgeOthers: tc.eOth, CloudOthers: tc.cOth})
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("case %+v: multi %g != Eq.9 %g", tc, got, want)
		}
	}
}

// TestUtilityLinearInEdgeSplit pins the corner argument Solve rests on:
// with the own edge total and cloud request fixed, the utility is linear
// in how the edge total splits across ESPs.
func TestUtilityLinearInEdgeSplit(t *testing.T) {
	cfg := twoESPConfig()
	others := numeric.Vec{10, 6, 50}
	const e, c = 8.0, 15.0
	at := func(share float64) float64 { return cfg.Utility(numeric.Vec{share * e, (1 - share) * e, c}, others) }
	for _, t0 := range []float64{0, 0.25, 0.5, 0.75} {
		mid := at(t0 + 0.125)
		if chord := (at(t0) + at(t0+0.25)) / 2; math.Abs(mid-chord) > 1e-9*math.Abs(chord) {
			t.Errorf("split %g: utility %g off the chord %g", t0+0.125, mid, chord)
		}
	}
}

// TestSolveSingleESPMatchesCoreClosedForm is the key cross-validation:
// at K = 1 the multi-ESP solver is the paper's closed-form connected
// equilibrium.
func TestSolveSingleESPMatchesCoreClosedForm(t *testing.T) {
	cfg := singleESPConfig()
	eq, err := Solve(cfg)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !eq.Converged {
		t.Fatal("not converged")
	}
	params := miner.Params{Reward: 1000, Beta: 0.2, H: 0.7, PriceE: 8, PriceC: 4}
	want, err := miner.HomogeneousConnected(params, cfg.N, cfg.Budget)
	if err != nil {
		t.Fatalf("closed form: %v", err)
	}
	for i, x := range eq.Requests {
		if math.Abs(x[0]-want.Request.E) > 1e-12*want.Request.E || math.Abs(x[1]-want.Request.C) > 1e-12*want.Request.C {
			t.Errorf("miner %d: (%g, %g), closed form (%g, %g)",
				i, x[0], x[1], want.Request.E, want.Request.C)
		}
	}
}

// deviation is the largest gain a miner finds against the profile by a
// best response on any one ESP.
func deviation(cfg Config, eq Equilibrium) float64 {
	K := len(cfg.ESPs)
	var worst float64
	for _, x := range eq.Requests {
		others := make(numeric.Vec, K+1)
		var env miner.Env
		for d := range others {
			others[d] = eq.Demands[d] - x[d]
			if d < K {
				env.EdgeOthers += others[d]
			}
		}
		env.CloudOthers = others[K]
		current := cfg.Utility(x, others)
		for k := range cfg.ESPs {
			p := cfg.params(k)
			br := miner.BestResponseConnected(p, cfg.Budget, env)
			worst = math.Max(worst, miner.UtilityConnected(p, br, env)-current)
		}
	}
	return worst
}

func TestSolveTwoESPs(t *testing.T) {
	cfg := twoESPConfig()
	eq, err := Solve(cfg)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !eq.Converged {
		t.Fatal("not converged")
	}
	// Every miner buys edge from the premium ESP, so the budget ESP's
	// demand is exactly zero and the premium ESP and the cloud share the
	// market.
	if eq.Demands[0] <= 0 || eq.Demands[1] != 0 || eq.Demands[2] <= 0 {
		t.Errorf("demands %v, want the premium ESP and the cloud only", eq.Demands)
	}
	// Budget feasibility and equilibrium certificate.
	prices := cfg.prices()
	for i, x := range eq.Requests {
		if spend := prices.Dot(x); spend > cfg.Budget+1e-6 {
			t.Errorf("miner %d overspends: %g", i, spend)
		}
	}
	scale := 1.0
	for _, u := range eq.Utilities {
		scale = math.Max(scale, math.Abs(u))
	}
	if dev := deviation(cfg, eq); dev > 1e-9*scale {
		t.Errorf("profitable deviation %g at equilibrium", dev)
	}
}

// TestPriceSubstitution checks the economics: cutting the budget ESP's
// price moves demand toward it and away from the premium ESP.
func TestPriceSubstitution(t *testing.T) {
	base := twoESPConfig()
	eqBase, err := Solve(base)
	if err != nil {
		t.Fatalf("base: %v", err)
	}
	cheaper := twoESPConfig()
	cheaper.ESPs[1].Price = 5
	eqCheap, err := Solve(cheaper)
	if err != nil {
		t.Fatalf("cheaper: %v", err)
	}
	if eqCheap.Demands[1] <= eqBase.Demands[1] {
		t.Errorf("budget-ESP demand %g did not grow after its price cut (was %g)",
			eqCheap.Demands[1], eqBase.Demands[1])
	}
	if eqCheap.Demands[0] >= eqBase.Demands[0] {
		t.Errorf("premium-ESP demand %g did not shrink after the rival's price cut (was %g)",
			eqCheap.Demands[0], eqBase.Demands[0])
	}
}

// TestReliabilityPremium checks that a more reliable ESP sustains more
// demand at equal prices.
func TestReliabilityPremium(t *testing.T) {
	cfg := twoESPConfig()
	cfg.ESPs[0] = ESP{Price: 7, H: 0.9}
	cfg.ESPs[1] = ESP{Price: 7, H: 0.3}
	eq, err := Solve(cfg)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if eq.Demands[0] <= eq.Demands[1] {
		t.Errorf("reliable ESP demand %g not above unreliable %g at equal prices",
			eq.Demands[0], eq.Demands[1])
	}
}

func TestSolveInvalidConfig(t *testing.T) {
	cfg := singleESPConfig()
	cfg.N = 0
	if _, err := Solve(cfg); err == nil {
		t.Error("want error")
	}
}

// TestSolveFeasibleEverywhere fuzzes random multi-ESP instances: the
// solver must stay feasible and produce a deviation-certified profile.
func TestSolveFeasibleEverywhere(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 25; trial++ {
		k := 1 + rng.Intn(3)
		cfg := Config{
			N:      2 + rng.Intn(5),
			Budget: 50 + 250*rng.Float64(),
			Reward: 300 + 1500*rng.Float64(),
			Beta:   0.05 + 0.5*rng.Float64(),
			PriceC: 1 + 4*rng.Float64(),
		}
		for i := 0; i < k; i++ {
			cfg.ESPs = append(cfg.ESPs, ESP{
				Price: cfg.PriceC * (1.05 + 1.5*rng.Float64()),
				H:     0.2 + 0.8*rng.Float64(),
			})
		}
		eq, err := Solve(cfg)
		if err != nil {
			t.Fatalf("trial %d (%+v): %v", trial, cfg, err)
		}
		prices := cfg.prices()
		for i, x := range eq.Requests {
			for d, v := range x {
				if v < -1e-9 {
					t.Fatalf("trial %d: miner %d dim %d negative (%g)", trial, i, d, v)
				}
			}
			if spend := prices.Dot(x); spend > cfg.Budget*(1+1e-6) {
				t.Fatalf("trial %d: miner %d overspends %g > %g", trial, i, spend, cfg.Budget)
			}
		}
		if !eq.Converged {
			t.Errorf("trial %d (%+v): no single-ESP candidate is an equilibrium", trial, cfg)
			continue
		}
		scale := 1.0
		for _, u := range eq.Utilities {
			scale = math.Max(scale, math.Abs(u))
		}
		if dev := deviation(cfg, eq); dev > 1e-9*scale {
			t.Errorf("trial %d (%+v): profitable deviation %g", trial, cfg, dev)
		}
	}
}

// TestSolvePicksAmongPureCandidates walks the band where both pure
// profiles are equilibria (premium (9, 0.9), budget ESP h = 0.4): below
// it only the budget profile holds, inside it the premium profile's
// higher utility wins, and the all-premium profile at P₂ = 5.6 passes
// the marginal test but loses to a full switch.
func TestSolvePicksAmongPureCandidates(t *testing.T) {
	for _, tc := range []struct {
		p2   float64
		want int
	}{{5.6, 1}, {5.8, 0}, {5.9, 0}} {
		cfg := twoESPConfig()
		cfg.ESPs[1].Price = tc.p2
		eq, err := Solve(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !eq.Converged || eq.Demands[tc.want] <= 0 || eq.Demands[1-tc.want] != 0 {
			t.Errorf("P₂ = %g: converged %v, demands %v, want all edge on ESP %d", tc.p2, eq.Converged, eq.Demands, tc.want)
		}
	}
	cfg := twoESPConfig()
	cfg.ESPs[1].Price = 5.6
	premium, err := miner.HomogeneousConnected(cfg.params(0), cfg.N, cfg.Budget)
	if err != nil {
		t.Fatal(err)
	}
	x := premium.Request
	total := float64(cfg.N) * x.E
	margin := func(k int) float64 { return cfg.Reward*cfg.Beta*cfg.ESPs[k].H/total - cfg.ESPs[k].Price }
	if margin(0) < margin(1) {
		t.Fatalf("marginal test fails at the premium profile (%g < %g); the case no longer shows the gap", margin(0), margin(1))
	}
	env := miner.Env{EdgeOthers: float64(cfg.N-1) * x.E, CloudOthers: float64(cfg.N-1) * x.C}
	switchTo := miner.BestResponseConnected(cfg.params(1), cfg.Budget, env)
	if gain := miner.UtilityConnected(cfg.params(1), switchTo, env) - miner.UtilityConnected(cfg.params(0), x, env); gain < 1 {
		t.Errorf("full switch to the budget ESP gains %g, want about 1.05", gain)
	}
}
