package core

import (
	"math"
	"runtime"
	"testing"

	"minegame/internal/game"
	"minegame/internal/miner"
	"minegame/internal/netmodel"
	"minegame/internal/numeric"
	"minegame/internal/obs"
)

// heteroClassedConfig builds an N-miner connected config whose budgets
// take seven distinct values — heterogeneous enough to exercise the
// class machinery, repetitive enough that exact dedup compresses it.
func heteroClassedConfig(n int) Config {
	budgets := make([]float64, n)
	for i := range budgets {
		budgets[i] = 150 + float64(i%7)*15
	}
	return Config{
		Mode: netmodel.Connected,
		N:    n, Budgets: budgets,
		Reward: 1000, Beta: 0.2, SatisfyProb: 0.7,
		CostE: 2, CostC: 1,
	}
}

// TestClassedMatchesExactConnected is the tentpole equivalence property:
// for heterogeneous populations at feasible N the classed solve,
// expanded back to a full profile, is a fixed point of the EXACT
// per-miner solver to within 1e-9 — warm-starting the exact solver from
// the expansion must not move it. (Two independently-started solves can
// legitimately rest up to the KKT acceptance diameter apart, so the
// equivalence claim is mutual acceptance, plus the independent ε-Nash
// certificate below.)
func TestClassedMatchesExactConnected(t *testing.T) {
	p := Prices{Edge: 8, Cloud: 4}
	for _, n := range []int{10, 100, 1000} {
		cfg := heteroClassedConfig(n)
		cp, err := cfg.Classes(0)
		if err != nil {
			t.Fatalf("n=%d Classes: %v", n, err)
		}
		if cp.N() != n || cp.K() != 7 || cp.BudgetSpread() != 0 {
			t.Fatalf("n=%d: unexpected classification N=%d K=%d spread=%g", n, cp.N(), cp.K(), cp.BudgetSpread())
		}
		opts := game.NEOptions{MaxIter: 500, Tol: 1e-9}
		classed, err := SolveMinerEquilibriumClassed(cfg, cp, p, opts)
		if err != nil {
			t.Fatalf("n=%d classed solve: %v", n, err)
		}
		if !classed.Converged {
			t.Fatalf("n=%d classed solve did not converge after %d sweeps (delta %g)", n, classed.Iterations, 0.0)
		}
		expanded := classed.Expand()
		if len(expanded) != n {
			t.Fatalf("n=%d expanded to %d requests", n, len(expanded))
		}
		// Budgets must be honored per original miner position.
		params := cfg.Params(p)
		for i, r := range expanded {
			if spend := params.Spend(r); spend > cfg.Budget(i)*(1+1e-9) {
				t.Fatalf("n=%d miner %d spends %g over budget %g", n, i, spend, cfg.Budget(i))
			}
		}
		// Mutual acceptance: the exact solver, warm-started at the
		// expansion, must stay within 1e-9 (the KKT warm path accepts a
		// true equilibrium unchanged, so this is typically bitwise).
		exact, err := SolveMinerEquilibriumFrom(cfg, p, opts, expanded)
		if err != nil {
			t.Fatalf("n=%d exact re-solve: %v", n, err)
		}
		for i := range expanded {
			if d := expanded[i].Sub(exact.Requests[i]).Norm(); d > 1e-9 {
				t.Fatalf("n=%d miner %d: exact solver moved the classed equilibrium by %g", n, i, d)
			}
		}
		// Demand aggregates agree with the O(K) weighted totals.
		e, c, s := miner.Profile(expanded).Totals()
		if math.Abs(e-classed.EdgeDemand) > 1e-6*(1+e) || math.Abs(c-classed.CloudDemand) > 1e-6*(1+c) {
			t.Fatalf("n=%d totals mismatch: expanded (%g,%g) vs classed (%g,%g)", n, e, c, classed.EdgeDemand, classed.CloudDemand)
		}
		_ = s

		// Independent ε-Nash certificate on the expanded profile.
		if n <= 100 { // O(N) best responses; skip at N=1000 to keep the test fast
			worst := 0.0
			for _, g := range Deviations(cfg, p, expanded) {
				if g > worst {
					worst = g
				}
			}
			if worst > 1e-4*cfg.Reward {
				t.Fatalf("n=%d expanded profile has deviation gain %g", n, worst)
			}
		}
	}
}

// TestClassedIndependentSolveAgreement pins how far two INDEPENDENT
// solves (classed vs exact, each from its own default seed) can drift.
// The solvers' KKT fast path accepts any point with projected-gradient
// norm ≤ 1e-7, and the contest utility is extremely flat near the
// optimum, so independently-started solves can legitimately rest ~1e-3
// apart in request space; the economic quantities (demand, utilities)
// agree far tighter. The bitwise-grade equivalence claim lives in
// TestClassedMatchesExactConnected's mutual-acceptance check.
func TestClassedIndependentSolveAgreement(t *testing.T) {
	p := Prices{Edge: 8, Cloud: 4}
	cfg := heteroClassedConfig(50)
	cp, err := cfg.Classes(0)
	if err != nil {
		t.Fatalf("Classes: %v", err)
	}
	opts := game.NEOptions{MaxIter: 500, Tol: 1e-9}
	classed, err := SolveMinerEquilibriumClassed(cfg, cp, p, opts)
	if err != nil {
		t.Fatalf("classed solve: %v", err)
	}
	exact, err := SolveMinerEquilibrium(cfg, p, opts)
	if err != nil {
		t.Fatalf("exact solve: %v", err)
	}
	expanded := classed.Expand()
	for i := range expanded {
		if d := expanded[i].Sub(exact.Requests[i]).Norm(); d > 1e-2 {
			t.Fatalf("miner %d: independent solves differ by %g", i, d)
		}
	}
	if d := math.Abs(classed.EdgeDemand - exact.EdgeDemand); d > 1e-3*(1+exact.EdgeDemand) {
		t.Fatalf("edge demand: classed %g vs exact %g", classed.EdgeDemand, exact.EdgeDemand)
	}
	if d := math.Abs(classed.CloudDemand - exact.CloudDemand); d > 1e-3*(1+exact.CloudDemand) {
		t.Fatalf("cloud demand: classed %g vs exact %g", classed.CloudDemand, exact.CloudDemand)
	}
	// Per-class member statistics match the per-miner ones.
	for i := 0; i < cfg.N; i++ {
		k := cp.ClassOf(i)
		if d := math.Abs(classed.Utilities[k] - exact.Utilities[i]); d > 1e-3*(1+math.Abs(exact.Utilities[i])) {
			t.Fatalf("miner %d utility: classed %g vs exact %g", i, classed.Utilities[k], exact.Utilities[i])
		}
	}
}

// TestClassedStandalone checks the classed variational GNEP path: the
// shared capacity binds, the expanded profile is jointly feasible, the
// weighted winning probabilities sum to one, and no member of any class
// can gain by deviating.
func TestClassedStandalone(t *testing.T) {
	n := 24
	budgets := make([]float64, n)
	for i := range budgets {
		budgets[i] = 180 + float64(i%4)*20
	}
	cfg := Config{
		Mode: netmodel.Standalone,
		N:    n, Budgets: budgets,
		Reward: 1000, Beta: 0.2, SatisfyProb: 0.7,
		EdgeCapacity: 30, CostE: 2, CostC: 1,
	}
	cp, err := cfg.Classes(0)
	if err != nil {
		t.Fatalf("Classes: %v", err)
	}
	p := Prices{Edge: 8, Cloud: 4}
	eq, err := SolveMinerEquilibriumClassed(cfg, cp, p, game.NEOptions{MaxIter: 500, Tol: 1e-6})
	if err != nil {
		t.Fatalf("classed standalone solve: %v", err)
	}
	if !eq.Converged {
		t.Fatal("classed standalone solve did not converge")
	}
	if eq.EdgeDemand > cfg.EdgeCapacity*(1+1e-3) {
		t.Fatalf("edge demand %g exceeds capacity %g", eq.EdgeDemand, cfg.EdgeCapacity)
	}
	var probSum float64
	for k, w := range eq.WinProbs {
		probSum += float64(cp.Classes[k].Count) * w
	}
	if math.Abs(probSum-1) > 1e-6 {
		t.Fatalf("weighted winning probabilities sum to %g, want 1", probSum)
	}
	gains := DeviationsClassed(cfg, p, cp, eq.Requests)
	for k, g := range gains {
		if g > 1e-4*cfg.Reward {
			t.Fatalf("class %d deviation gain %g", k, g)
		}
	}
	// The full expansion agrees with the per-miner certificate.
	if err := ValidateWinProbs(cfg.Beta, eq.Expand()); err != nil {
		t.Fatalf("expanded win probs: %v", err)
	}
}

// TestSolveStackelbergClassedMatchesExact compares the classed
// two-stage solve against the exact one on a compressible
// heterogeneous market: same equilibrium prices, same profits.
func TestSolveStackelbergClassedMatchesExact(t *testing.T) {
	cfg := heteroClassedConfig(10)
	cp, err := cfg.Classes(0)
	if err != nil {
		t.Fatalf("Classes: %v", err)
	}
	opts := StackelbergOptions{Workers: 1, Leader: game.LeaderOptions{GridN: 10}}
	classed, err := SolveStackelbergClassed(cfg, cp, opts)
	if err != nil {
		t.Fatalf("classed Stackelberg: %v", err)
	}
	exact, err := SolveStackelberg(cfg, opts)
	if err != nil {
		t.Fatalf("exact Stackelberg: %v", err)
	}
	// The demand oracles agree only to the KKT acceptance scale (~1e-3
	// in request space), so the golden-section refinement can settle a
	// hair apart; the prices and profits must still agree to economic
	// precision.
	if d := math.Abs(classed.Prices.Edge - exact.Prices.Edge); d > 1e-3*(1+exact.Prices.Edge) {
		t.Fatalf("edge price: classed %g vs exact %g", classed.Prices.Edge, exact.Prices.Edge)
	}
	if d := math.Abs(classed.Prices.Cloud - exact.Prices.Cloud); d > 1e-3*(1+exact.Prices.Cloud) {
		t.Fatalf("cloud price: classed %g vs exact %g", classed.Prices.Cloud, exact.Prices.Cloud)
	}
	if d := math.Abs(classed.ProfitE - exact.ProfitE); d > 5e-3*(1+math.Abs(exact.ProfitE)) {
		t.Fatalf("ESP profit: classed %g vs exact %g", classed.ProfitE, exact.ProfitE)
	}
	if d := math.Abs(classed.ProfitC - exact.ProfitC); d > 5e-3*(1+math.Abs(exact.ProfitC)) {
		t.Fatalf("CSP profit: classed %g vs exact %g", classed.ProfitC, exact.ProfitC)
	}
}

// TestClassedTelemetryGauges pins the mean-field telemetry contract:
// a classed solve under an enabled observer reports the class count and
// compression ratio, and expansion lands a sample in the
// meanfield.expansion.ms histogram.
func TestClassedTelemetryGauges(t *testing.T) {
	ob := obs.New()
	prev := obs.SetDefault(ob)
	defer obs.SetDefault(prev)

	cfg := heteroClassedConfig(70)
	cp, err := cfg.Classes(0)
	if err != nil {
		t.Fatalf("Classes: %v", err)
	}
	eq, err := SolveMinerEquilibriumClassed(cfg, cp, Prices{Edge: 8, Cloud: 4}, game.NEOptions{Observer: ob})
	if err != nil {
		t.Fatalf("classed solve: %v", err)
	}
	_ = eq.Expand()

	snap := ob.Snapshot()
	if got := snap.Gauges["meanfield.class_count"]; got != 7 {
		t.Errorf("meanfield.class_count = %g, want 7", got)
	}
	if got := snap.Gauges["meanfield.compress_ratio"]; got != 10 {
		t.Errorf("meanfield.compress_ratio = %g, want 10", got)
	}
	if h, ok := snap.Histograms["meanfield.expansion.ms"]; !ok || h.Count == 0 {
		t.Errorf("meanfield.expansion.ms missing or empty")
	}
}

// TestClassedValidation covers the mismatch errors.
func TestClassedValidation(t *testing.T) {
	cfg := heteroClassedConfig(10)
	cp, err := cfg.Classes(0)
	if err != nil {
		t.Fatalf("Classes: %v", err)
	}
	wrong := cfg
	wrong.N = 12
	wrong.Budgets = make([]float64, 12)
	for i := range wrong.Budgets {
		wrong.Budgets[i] = 200
	}
	if _, err := SolveMinerEquilibriumClassed(wrong, cp, Prices{Edge: 8, Cloud: 4}, game.NEOptions{}); err == nil {
		t.Fatal("population/config size mismatch should error")
	}
	if _, err := SolveMinerEquilibriumClassedFrom(cfg, cp, Prices{Edge: 8, Cloud: 4}, game.NEOptions{}, make([]numeric.Point2, 3)); err == nil {
		t.Fatal("start/class size mismatch should error")
	}
	if _, err := SolveStackelbergClassed(wrong, cp, StackelbergOptions{Workers: 1}); err == nil {
		t.Fatal("classed Stackelberg with mismatched population should error")
	}
}

// TestConfigClassesQuantile exercises the capped path through the
// config helper.
func TestConfigClassesQuantile(t *testing.T) {
	n := 64
	budgets := make([]float64, n)
	for i := range budgets {
		budgets[i] = 100 + float64(i) // 64 distinct budgets
	}
	cfg := heteroClassedConfig(n)
	cfg.Budgets = budgets
	cp, err := cfg.Classes(8)
	if err != nil {
		t.Fatalf("Classes: %v", err)
	}
	if cp.K() != 8 || cp.N() != n {
		t.Fatalf("K=%d N=%d, want 8/%d", cp.K(), cp.N(), n)
	}
	if cp.BudgetSpread() <= 0 {
		t.Fatal("quantile binning over distinct budgets must report a positive spread")
	}
}

// TestConfigClassesTiedQuantileBins solves a capped classification
// whose quantile bins cut through a run of equal budgets, where the
// bins' means round one ulp out of order: the population must still
// validate and solve.
func TestConfigClassesTiedQuantileBins(t *testing.T) {
	budgets := []float64{0.01, 0.02, 0.1, 0.1, 0.1, 0.1, 0.1, 0.5, 0.6, 0.7}
	for _, mode := range []netmodel.Mode{netmodel.Connected, netmodel.Standalone} {
		cfg := heteroClassedConfig(len(budgets))
		cfg.Budgets = budgets
		cfg.Mode, cfg.EdgeCapacity = mode, 0.05
		cp, err := cfg.Classes(4)
		if err != nil {
			t.Fatalf("%v: Classes: %v", mode, err)
		}
		if cp.K() != 4 {
			t.Fatalf("%v: K = %d, want 4", mode, cp.K())
		}
		if _, err := SolveStackelbergClassed(cfg, cp, StackelbergOptions{Leader: game.LeaderOptions{GridN: 8}, Workers: 1}); err != nil {
			t.Fatalf("%v: SolveStackelbergClassed: %v", mode, err)
		}
	}
}

// TestClassedProbeAllocsIndependentOfK pins what a leader-stage classed
// demand probe allocates: the same number of allocations and the same
// bytes, to 512 B, whatever the number of classes K. Its seed, its
// share passes and its result read the market's sorted run and carry
// totals, not per-class vectors.
func TestClassedProbeAllocsIndependentOfK(t *testing.T) {
	type cost struct{ allocs, bytes float64 }
	const runs = 20
	for _, mode := range []netmodel.Mode{netmodel.Connected, netmodel.Standalone} {
		costs := map[int]cost{}
		for _, k := range []int{16, 1024} {
			classes := make([]miner.Class, k)
			for i := range classes {
				classes[i] = miner.Class{Budget: 100 + 100*float64(i)/float64(k), Count: 4}
			}
			cp, err := miner.FromClasses(classes)
			if err != nil {
				t.Fatal(err)
			}
			cfg := Config{
				Mode: mode, N: cp.N(), Budgets: []float64{100},
				Reward: 1000, Beta: 0.2, SatisfyProb: 0.7, EdgeCapacity: 30,
				CostE: 2, CostC: 1,
			}
			m := classedMarket(cfg, cp)
			p := Prices{Edge: 8, Cloud: 4}
			probe := func() {
				if _, err := m.probe(p, game.NEOptions{}, warmStart{}); err != nil {
					t.Fatalf("%v K=%d: %v", mode, k, err)
				}
			}
			probe()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				probe()
			}
			runtime.ReadMemStats(&after)
			costs[k] = cost{
				allocs: testing.AllocsPerRun(runs, probe),
				bytes:  float64(after.TotalAlloc-before.TotalAlloc) / runs,
			}
		}
		small, large := costs[16], costs[1024]
		if small.allocs != large.allocs {
			t.Errorf("%v: a classed probe makes %g allocations at K = 16 and %g at K = 1024", mode, small.allocs, large.allocs)
		}
		// A per-class vector of 8-byte values would add 8 kB.
		if grew := large.bytes - small.bytes; grew > 512 {
			t.Errorf("%v: a classed probe allocates %.0f more bytes at K = 1024 than at K = 16", mode, grew)
		}
		t.Logf("%v: K=16 %+v, K=1024 %+v", mode, small, large)
	}
}

// TestClassedOneClassBitIdentical pins the one probe path: a
// homogeneous market and its one-class population run the same
// two-stage body over the same one-entry run, so they return the same
// prices, profits and follower demand bit for bit, connected and
// standalone, under commitment and under simultaneous play.
func TestClassedOneClassBitIdentical(t *testing.T) {
	for _, mode := range []netmodel.Mode{netmodel.Connected, netmodel.Standalone} {
		for _, simultaneous := range []bool{false, true} {
			cfg := testConfig()
			cfg.Mode, cfg.EdgeCapacity, cfg.Budgets = mode, 25, []float64{1000}
			opts := StackelbergOptions{Simultaneous: simultaneous}
			exact, err := SolveStackelberg(cfg, opts)
			if err != nil {
				t.Fatalf("%v simultaneous=%v: exact: %v", mode, simultaneous, err)
			}
			cp, err := cfg.Classes(1)
			if err != nil {
				t.Fatal(err)
			}
			classed, err := SolveStackelbergClassed(cfg, cp, opts)
			if err != nil {
				t.Fatalf("%v simultaneous=%v: classed: %v", mode, simultaneous, err)
			}
			e, c := exact.Follower, classed.Follower
			if exact.Prices != classed.Prices || exact.ProfitE != classed.ProfitE || exact.ProfitC != classed.ProfitC ||
				exact.Iterations != classed.Iterations || exact.Converged != classed.Converged {
				t.Errorf("%v simultaneous=%v: exact %+v at %d iterations, classed %+v at %d",
					mode, simultaneous, exact.Prices, exact.Iterations, classed.Prices, classed.Iterations)
			}
			if e.EdgeDemand != c.EdgeDemand || e.CloudDemand != c.CloudDemand || e.Multiplier != c.Multiplier || e.Iterations != c.Iterations {
				t.Errorf("%v simultaneous=%v: exact follower (%v, %v, μ %v), classed (%v, %v, μ %v)",
					mode, simultaneous, e.EdgeDemand, e.CloudDemand, e.Multiplier, c.EdgeDemand, c.CloudDemand, c.Multiplier)
			}
			for i, r := range e.Requests {
				if r != c.Requests[0] {
					t.Errorf("%v simultaneous=%v: miner %d plays %v, the class %v", mode, simultaneous, i, r, c.Requests[0])
				}
			}
		}
	}
}
