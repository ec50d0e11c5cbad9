package verify

// Native fuzz targets for the solver stack. Each target feeds raw,
// unsanitized numbers straight into the public entry points and asserts
// three layers of robustness:
//
//  1. no panic, ever — malformed input must come back as an error;
//  2. no poisoned output — a solver that returns without error must
//     return finite numbers;
//  3. certified equilibria on the sane domain — when the input lies in
//     the model's documented operating range and the solver reports
//     convergence, the independent certificate must pass. The
//     closed-form extension followers must certify on every valid
//     input they report converged.
//
// The committed seed corpora under testdata/fuzz/ include the minimized
// regressions that motivated the affirmative-range validation fixes
// (NaN budgets, infinite rewards, degenerate miner counts); they run on
// every plain `go test`, keeping those bugs pinned without the fuzz
// engine.

import (
	"math"
	"testing"

	"minegame/internal/core"
	"minegame/internal/game"
	"minegame/internal/miner"
	"minegame/internal/multiesp"
	"minegame/internal/netmodel"
	"minegame/internal/population"
)

// clampN folds an arbitrary fuzzed miner count into a cheap range while
// preserving small raw values (including 0, 1 and negatives) so the
// validation error paths stay reachable.
func clampN(n int) int {
	if n > 12 {
		return 2 + n%11
	}
	return n
}

// saneScalar reports whether v is in the model's documented operating
// range: positive, finite, and within [1e-3, 1e6] so that tolerance
// scales keep their meaning.
func saneScalar(v float64) bool {
	return v >= 1e-3 && v <= 1e6 && !math.IsNaN(v)
}

// finiteProfileAndSummary fails the fuzz run if a solver returned
// non-finite numbers without an error.
func finiteProfileAndSummary(t *testing.T, eq core.MinerEquilibrium) {
	t.Helper()
	for i, r := range eq.Requests {
		if math.IsNaN(r.E) || math.IsNaN(r.C) || math.IsInf(r.E, 0) || math.IsInf(r.C, 0) {
			t.Fatalf("miner %d request %+v is not finite", i, r)
		}
	}
	for _, v := range []float64{eq.EdgeDemand, eq.CloudDemand, eq.TotalDemand, eq.Multiplier} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("summary value %g is not finite (eq %+v)", v, eq)
		}
	}
	for i, u := range eq.Utilities {
		if math.IsNaN(u) || math.IsInf(u, 0) {
			t.Fatalf("utility %d = %g is not finite", i, u)
		}
	}
	for i, w := range eq.WinProbs {
		if math.IsNaN(w) || w < -1e-9 || w > 1+1e-9 {
			t.Fatalf("win probability %d = %g outside [0, 1]", i, w)
		}
	}
}

// FuzzSolveNE drives the connected-mode NEP solver with arbitrary
// configurations and certifies every converged equilibrium on the sane
// domain.
func FuzzSolveNE(f *testing.F) {
	f.Add(5, 200.0, 1000.0, 0.2, 0.7, 8.0, 4.0)
	f.Add(2, 50.0, 500.0, 0.05, 1.0, 10.0, 2.0)
	f.Add(8, 120.0, 1500.0, 0.5, 0.3, 5.0, 4.9)
	f.Add(3, 1.0, 1.0, 0.9, 0.0, 0.002, 0.001)
	f.Fuzz(func(t *testing.T, n int, budget, reward, beta, h, pe, pc float64) {
		cfg := core.Config{
			N: clampN(n), Budgets: []float64{budget}, Reward: reward, Beta: beta,
			SatisfyProb: h, Mode: netmodel.Connected, CostE: 1, CostC: 1,
		}
		p := core.Prices{Edge: pe, Cloud: pc}
		eq, err := core.SolveMinerEquilibrium(cfg, p, game.NEOptions{})
		if err != nil {
			return // rejected input — the documented error path
		}
		finiteProfileAndSummary(t, eq)

		sane := saneScalar(budget) && saneScalar(reward) && saneScalar(pe) && saneScalar(pc) &&
			beta >= 0.01 && beta <= 0.9 && h >= 0 && h <= 1
		if !sane || !eq.Converged {
			// Off-domain or non-converged solves only promise finiteness and
			// hard feasibility, not equilibrium quality.
			cert, cerr := CertifyProfile(cfg, p, eq.Requests, Options{GainTol: math.Inf(1)})
			if cerr != nil {
				t.Fatalf("certify rejected solver output: %v", cerr)
			}
			for _, name := range []string{"nonneg", "budget"} {
				for _, c := range cert.Checks {
					if c.Name == name && !c.OK {
						t.Fatalf("solver violated %s on input %+v: %+v", name, cfg, c)
					}
				}
			}
			return
		}
		cert, cerr := Certify(cfg, p, eq, Options{GainTol: 1e-3})
		if cerr != nil {
			t.Fatalf("certify rejected solver output: %v", cerr)
		}
		if !cert.OK {
			t.Fatalf("converged equilibrium failed certification on %+v at %+v: %v", cfg, p, cert.Err())
		}
	})
}

// FuzzSolveVariationalGNE drives the standalone-mode GNEP solver: the
// shared capacity adds the coupled constraint and the multiplier.
func FuzzSolveVariationalGNE(f *testing.F) {
	f.Add(5, 200.0, 1000.0, 0.2, 60.0, 8.0, 4.0)
	f.Add(5, 1000.0, 1000.0, 0.2, 25.0, 8.0, 4.0) // capacity binds
	f.Add(2, 80.0, 600.0, 0.4, 10.0, 6.0, 3.0)
	f.Fuzz(func(t *testing.T, n int, budget, reward, beta, emax, pe, pc float64) {
		cfg := core.Config{
			N: clampN(n), Budgets: []float64{budget}, Reward: reward, Beta: beta,
			SatisfyProb: 0.7, Mode: netmodel.Standalone, EdgeCapacity: emax,
			CostE: 1, CostC: 1,
		}
		p := core.Prices{Edge: pe, Cloud: pc}
		eq, err := core.SolveMinerEquilibrium(cfg, p, game.NEOptions{})
		if err != nil {
			return
		}
		finiteProfileAndSummary(t, eq)
		if eq.Multiplier < 0 {
			t.Fatalf("negative shared-capacity multiplier %g", eq.Multiplier)
		}
		// The market-clearing contract allows overshoot up to 1e-4·E_max.
		if !math.IsInf(emax, 1) && eq.EdgeDemand > emax*(1+2e-4)+1e-9 {
			t.Fatalf("edge demand %g exceeds shared capacity %g", eq.EdgeDemand, emax)
		}

		sane := saneScalar(budget) && saneScalar(reward) && saneScalar(pe) && saneScalar(pc) &&
			saneScalar(emax) && beta >= 0.01 && beta <= 0.9
		if !sane || !eq.Converged {
			return
		}
		cert, cerr := Certify(cfg, p, eq, Options{GainTol: 1e-3})
		if cerr != nil {
			t.Fatalf("certify rejected solver output: %v", cerr)
		}
		if !cert.OK {
			t.Fatalf("converged GNE failed certification on %+v at %+v: %v", cfg, p, cert.Err())
		}
	})
}

// FuzzStackelberg drives the full two-stage solve on a deliberately
// coarse leader grid (the fuzz budget buys breadth, not grid depth) and
// certifies the follower equilibrium behind every returned result.
func FuzzStackelberg(f *testing.F) {
	f.Add(true, 5, 200.0, 1000.0, 0.2, 60.0)
	f.Add(false, 5, 1000.0, 1000.0, 0.2, 25.0)
	f.Add(true, 2, 50.0, 400.0, 0.6, 15.0)
	f.Fuzz(func(t *testing.T, connected bool, n int, budget, reward, beta, emax float64) {
		cfg := core.Config{
			N: clampN(n), Budgets: []float64{budget}, Reward: reward, Beta: beta,
			SatisfyProb: 0.7, CostE: 2, CostC: 1,
		}
		if connected {
			cfg.Mode = netmodel.Connected
		} else {
			cfg.Mode = netmodel.Standalone
			cfg.EdgeCapacity = emax
		}
		if cfg.N > 6 {
			cfg.N = 2 + cfg.N%5 // the leader grid re-solves the subgame many times
		}
		res, err := core.SolveStackelberg(cfg, core.StackelbergOptions{
			Leader: game.LeaderOptions{GridN: 12, MaxIter: 20},
		})
		if err != nil {
			return
		}
		for _, v := range []float64{res.Prices.Edge, res.Prices.Cloud, res.ProfitE, res.ProfitC} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("non-finite Stackelberg output %+v", res)
			}
		}
		finiteProfileAndSummary(t, res.Follower)

		sane := saneScalar(budget) && saneScalar(reward) && beta >= 0.01 && beta <= 0.9 &&
			(connected || saneScalar(emax))
		if !sane || !res.Follower.Converged {
			return
		}
		// The coarse grid cannot pass the leader first-order residuals, but
		// the follower certificate and the accounting checks must hold.
		cert, cerr := CertifyStackelberg(cfg, res, Options{GainTol: 1e-3, SkipLeader: true})
		if cerr != nil {
			t.Fatalf("certify rejected solver output: %v", cerr)
		}
		if !cert.OK {
			t.Fatalf("stackelberg result failed certification on %+v: %v", cfg, cert.Err())
		}
	})
}

// FuzzPopulationPMF drives the miner-count discretization: whatever
// (μ, σ, maxN) comes in, PMF must either reject it or return a genuine
// probability distribution on {1, …, maxN}.
func FuzzPopulationPMF(f *testing.F) {
	f.Add(5.0, 1.5, 12)
	f.Add(1.0, 0.1, 0)
	f.Add(100.0, 30.0, 50)
	f.Fuzz(func(t *testing.T, mu, sigma float64, maxN int) {
		if maxN > 4096 {
			maxN = 1 + maxN%4096 // bound the support, not the error paths
		}
		m := population.Model{Mu: mu, Sigma: sigma, MaxN: maxN}
		pmf, err := m.PMF()
		if err != nil {
			return
		}
		if pmf.Lo < 1 {
			t.Fatalf("support starts at %d, want ≥ 1", pmf.Lo)
		}
		if len(pmf.P) == 0 {
			t.Fatal("empty PMF without error")
		}
		mass := 0.0
		for i, q := range pmf.P {
			if math.IsNaN(q) || q < 0 || q > 1+1e-12 {
				t.Fatalf("P[%d] = %g is not a probability (model %+v)", i, q, m)
			}
			mass += q
		}
		if math.Abs(mass-1) > 1e-9 {
			t.Fatalf("PMF mass = %.15f, want 1 (model %+v)", mass, m)
		}
		mean := pmf.Mean()
		if math.IsNaN(mean) || mean < float64(pmf.Lo) || mean > float64(pmf.Lo+len(pmf.P)) {
			t.Fatalf("mean %g outside support [%d, %d]", mean, pmf.Lo, pmf.Lo+len(pmf.P)-1)
		}
		// The ceiling variant must be equally well-formed.
		if ceil, err := m.PMFCeil(); err == nil {
			cm := 0.0
			for _, q := range ceil.P {
				cm += q
			}
			if math.Abs(cm-1) > 1e-9 {
				t.Fatalf("PMFCeil mass = %.15f, want 1 (model %+v)", cm, m)
			}
		}
	})
}

// FuzzPopulationEquilibrium drives the closed-form dynamic-population
// solver, in both degraded forms, over Gaussian miner counts truncated
// at N ≤ 50. Valid input must solve without error to finite numbers
// that certify unless the result reports Converged: false.
func FuzzPopulationEquilibrium(f *testing.F) {
	// reject, μ, σ, R, β, h, P_e, P_c, budget
	f.Add(false, 10.0, 2.0, 1000.0, 0.2, 0.7, 8.0, 4.0, 200.0) // fig9a at P_e = 8
	f.Add(false, 10.0, 1.0, 1000.0, 0.2, 0.7, 6.0, 4.0, 200.0) // fig9b, σ = 1
	f.Add(false, 10.0, 3.0, 1000.0, 0.2, 0.7, 12.0, 4.0, 200.0)
	f.Add(false, 10.5, 2.0, 1000.0, 0.2, 0.7, 8.0, 4.0, 200.0) // abldisc's ceiling mean
	f.Add(false, 10.0, 2.0, 1000.0, 0.2, 0.7, 8.0, 4.0, 10.0)  // budget binds
	f.Add(false, 10.0, 2.0, 1000.0, 0.2, 0.7, 3.0, 4.0, 200.0) // P_e < P_c: all edge
	f.Add(true, 10.0, 2.0, 1000.0, 0.2, 0.7, 8.0, 4.0, 200.0)  // reject form, interior
	f.Add(true, 10.0, 2.0, 1000.0, 0.2, 0.95, 8.0, 40.0, 5.0)  // reject form, c = 0 on the budget
	f.Add(false, 1.0, 1e-3, 1000.0, 0.2, 0.7, 8.0, 4.0, 200.0) // m = 0: a lone miner
	f.Add(true, 1.0, 1e-3, 1000.0, 0.2, 0.7, 8.0, 4.0, 200.0)
	f.Add(false, 10.0, 2.0, 1000.0, 0.0, 0.7, 8.0, 4.0, 200.0) // β = 0
	f.Add(true, 10.0, 2.0, 1000.0, 0.2, 0.0, 8.0, 4.0, 200.0)  // h = 0
	f.Fuzz(func(t *testing.T, reject bool, mu, sigma, reward, beta, h, pe, pc, budget float64) {
		pmf, err := population.Model{Mu: mu, Sigma: sigma, MaxN: 50}.PMF()
		if err != nil {
			return
		}
		p := miner.Params{Reward: reward, Beta: beta, H: h, PriceE: pe, PriceC: pc}
		opts := population.SolveOptions{Form: population.DegradedTransfer}
		if reject {
			opts.Form = population.DegradedReject
		}
		eq, err := population.SymmetricEquilibrium(p, pmf, budget, opts)
		if err != nil {
			if p.Validate() == nil && budget > 0 && !math.IsInf(budget, 0) {
				t.Fatalf("valid input rejected: %v", err)
			}
			return
		}
		for _, v := range []float64{eq.Request.E, eq.Request.C, eq.ExpectedEdgeDemand, eq.ExpectedCloudDemand, eq.Utility} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("non-finite result %+v", eq)
			}
		}
		if !eq.Converged {
			return
		}
		cert, err := CertifyPopulation(p, pmf, budget, opts.Form, eq, Options{})
		if err != nil {
			t.Fatalf("certify: %v", err)
		}
		if !cert.OK {
			t.Fatalf("converged equilibrium %+v failed certification: %v", eq, cert.Err())
		}
	})
}

// FuzzMultiESP drives the multi-ESP solver with K ≤ 4 providers and
// N ≤ 50 miners. Valid input must solve without error to finite
// numbers that certify unless the result reports Converged: false.
func FuzzMultiESP(f *testing.F) {
	// n, K, R, β, P_c, budget, then (P_k, h_k) for k = 1..4
	f.Add(5, 2, 1000.0, 0.2, 4.0, 200.0, 9.0, 0.9, 6.0, 0.4, 0.0, 0.0, 0.0, 0.0)  // the experiment's market
	f.Add(5, 2, 1000.0, 0.2, 4.0, 200.0, 9.0, 0.9, 5.6, 0.4, 0.0, 0.0, 0.0, 0.0)  // budget ESP only
	f.Add(5, 2, 1000.0, 0.2, 4.0, 200.0, 9.0, 0.9, 5.8, 0.4, 0.0, 0.0, 0.0, 0.0)  // both pure profiles hold
	f.Add(5, 2, 1000.0, 0.2, 4.0, 200.0, 9.0, 0.9, 5.9, 0.4, 0.0, 0.0, 0.0, 0.0)  // premium wins the tie-break
	f.Add(5, 1, 1000.0, 0.2, 4.0, 200.0, 8.0, 0.7, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)  // K = 1
	f.Add(50, 4, 1000.0, 0.5, 4.0, 20.0, 9.0, 0.9, 6.0, 0.4, 7.0, 0.7, 4.5, 0.2)  // K = 4, budget binds
	f.Add(10, 2, 1000.0, 0.0, 4.0, 200.0, 9.0, 0.9, 6.0, 0.4, 0.0, 0.0, 0.0, 0.0) // β = 0
	f.Add(10, 2, 1000.0, 0.2, 4.0, 200.0, 9.0, 0.0, 6.0, 0.0, 0.0, 0.0, 0.0, 0.0) // h = 0
	f.Add(10, 3, 1000.0, 0.2, 4.0, 200.0, 7.0, 0.5, 7.0, 0.5, 3.0, 0.9, 0.0, 0.0) // a tie and P_k < P_c
	f.Fuzz(func(t *testing.T, n, k int, reward, beta, pc, budget, p1, h1, p2, h2, p3, h3, p4, h4 float64) {
		if n > 50 {
			n = 2 + n%49
		}
		if k < 1 || k > 4 {
			k = 1 + (k%4+4)%4
		}
		offers := []multiesp.ESP{{Price: p1, H: h1}, {Price: p2, H: h2}, {Price: p3, H: h3}, {Price: p4, H: h4}}
		cfg := multiesp.Config{N: n, Budget: budget, Reward: reward, Beta: beta, ESPs: offers[:k], PriceC: pc}
		eq, err := multiesp.Solve(cfg)
		if err != nil {
			if cfg.Validate() == nil {
				t.Fatalf("valid input rejected: %v", err)
			}
			return
		}
		for i, x := range eq.Requests {
			for d, v := range x {
				if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
					t.Fatalf("miner %d coordinate %d = %g", i, d, v)
				}
			}
			if math.IsNaN(eq.Utilities[i]) || math.IsInf(eq.Utilities[i], 0) || math.IsNaN(eq.WinProbs[i]) {
				t.Fatalf("miner %d: utility %g, win probability %g", i, eq.Utilities[i], eq.WinProbs[i])
			}
		}
		if !eq.Converged {
			return
		}
		cert, err := CertifyMultiESP(cfg, eq, Options{})
		if err != nil {
			t.Fatalf("certify: %v", err)
		}
		if !cert.OK {
			t.Fatalf("converged equilibrium failed certification (%+v): %v", cfg, cert.Err())
		}
	})
}
