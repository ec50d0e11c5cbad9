package core

// Property tests for the O(N) incremental-aggregate hot path: on
// randomized heterogeneous populations, the aggregate solvers (running
// totals, delta-updated within a sweep and exactly re-summed at sweep
// boundaries) must land within 1e-9 of the reference solvers that
// re-sum every miner's environment from scratch. Seeded table-driven
// cases cover the connected NEP, the standalone-penalized NEP, and
// fictitious play; the share-function solve of the standalone GNEP is
// checked against a reference multiplier bisection over fresh-summation
// best-response iteration.

import (
	"math"
	"math/rand"
	"testing"

	"minegame/internal/game"
	"minegame/internal/miner"
	"minegame/internal/netmodel"
	"minegame/internal/numeric"
)

// randomHeteroConfig draws a heterogeneous connected-mode configuration
// and price pair from the seeded source.
func randomHeteroConfig(rng *rand.Rand, n int) (Config, Prices) {
	budgets := make([]float64, n)
	for i := range budgets {
		budgets[i] = 40 + 260*rng.Float64()
	}
	cfg := Config{
		N:           n,
		Budgets:     budgets,
		Reward:      500 + 1000*rng.Float64(),
		Beta:        0.05 + 0.4*rng.Float64(),
		SatisfyProb: 0.3 + 0.6*rng.Float64(),
		Mode:        netmodel.Connected,
		CostE:       2,
		CostC:       1,
	}
	pc := 2 + 4*rng.Float64()
	p := Prices{Edge: pc + 1 + 4*rng.Float64(), Cloud: pc}
	return cfg, p
}

// referenceNE is Gauss–Seidel best-response iteration with every
// miner's environment re-summed from scratch: the reference the
// running-total solvers are held to.
func referenceNE(start []numeric.Point2, br func(i int, prof []numeric.Point2) numeric.Point2, opts game.NEOptions) game.NEResult {
	prof := append([]numeric.Point2(nil), start...)
	res := game.NEResult{Profile: prof}
	for it := 0; it < opts.MaxIter; it++ {
		res.Iterations, res.MaxDelta = it+1, 0
		for i := range prof {
			next := br(i, prof)
			res.MaxDelta = math.Max(res.MaxDelta, next.Sub(prof[i]).Norm())
			prof[i] = next
		}
		if res.MaxDelta < opts.Tol {
			res.Converged = true
			break
		}
	}
	return res
}

// maxProfileDiff is the largest coordinate-wise distance between two
// equal-length profiles.
func maxProfileDiff(a, b []numeric.Point2) float64 {
	var worst float64
	for i := range a {
		if d := a[i].Sub(b[i]).Norm(); d > worst {
			worst = d
		}
	}
	return worst
}

func TestAggregateSolversMatchFreshSummationConnected(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 1234, 99991} {
		rng := rand.New(rand.NewSource(seed))
		cfg, p := randomHeteroConfig(rng, 4+rng.Intn(12))
		params := cfg.Params(p)
		opts := game.NEOptions{MaxIter: 120, Tol: 1e-10}
		start := cfg.ColdStart(p)

		// Reference: profile-based best response, fresh O(N) summation
		// for every miner.
		ref := referenceNE(start, func(i int, prof []numeric.Point2) numeric.Point2 {
			return miner.BestResponseConnected(params, cfg.Budget(i), miner.Profile(prof).Env(i), prof[i])
		}, opts)

		// Incremental: running totals via the aggregate interface.
		inc := game.SolveNEAggregate(start, func(i int, own, others numeric.Point2) numeric.Point2 {
			return miner.BestResponseConnected(params, cfg.Budget(i), envFromOthers(others), own)
		}, opts)

		if d := maxProfileDiff(ref.Profile, inc.Profile); d > 1e-9 {
			t.Errorf("seed %d: incremental vs reference profile diff %g > 1e-9", seed, d)
		}
		if ref.Converged != inc.Converged {
			t.Errorf("seed %d: converged mismatch: ref %v, incremental %v", seed, ref.Converged, inc.Converged)
		}
	}
}

func TestAggregateSolversMatchFreshSummationPenalized(t *testing.T) {
	for _, seed := range []int64{3, 17, 271, 8191} {
		rng := rand.New(rand.NewSource(seed))
		cfg, p := randomHeteroConfig(rng, 4+rng.Intn(8))
		cfg.Mode = netmodel.Standalone
		cfg.EdgeCapacity = 10 + 30*rng.Float64()
		params := cfg.Params(p)
		opts := game.NEOptions{MaxIter: 120, Tol: 1e-10}
		start := cfg.ColdStart(p)

		// The μ-penalized best response accepts any KKT point within a
		// ~1e-6 gradient-tolerance band, so two runs whose environments
		// differ by even one ULP may settle at different points INSIDE
		// that band — the 1e-9 incremental-vs-fresh property therefore
		// lives on the aggregates: at every best-response call the
		// running total the solver supplies is checked against an exact
		// fresh summation over a shadow profile, and the final profiles
		// must agree within the acceptance band.
		for _, mu := range []float64{0, 0.5, 2.5} {
			ref := referenceNE(start, func(i int, prof []numeric.Point2) numeric.Point2 {
				return miner.BestResponseStandalonePenalized(params, mu, cfg.Budget(i), miner.Profile(prof).Env(i), prof[i])
			}, opts)
			shadow := make([]numeric.Point2, len(start))
			copy(shadow, start)
			var worstAgg float64
			inc := game.SolveNEAggregate(start, func(i int, own, others numeric.Point2) numeric.Point2 {
				var fresh numeric.Point2
				for _, r := range shadow {
					fresh = fresh.Add(r)
				}
				fresh = fresh.Sub(shadow[i])
				if d := others.Sub(fresh).Norm(); d > worstAgg {
					worstAgg = d
				}
				next := miner.BestResponseStandalonePenalized(params, mu, cfg.Budget(i), envFromOthers(others), own)
				shadow[i] = next
				return next
			}, opts)
			if worstAgg > 1e-9 {
				t.Errorf("seed %d mu %g: incremental aggregate strayed %g from fresh summation, want ≤ 1e-9", seed, mu, worstAgg)
			}
			if d := maxProfileDiff(ref.Profile, inc.Profile); d > 1e-5 {
				t.Errorf("seed %d mu %g: incremental vs reference profile diff %g > 1e-5", seed, mu, d)
			}
		}
	}
}

// TestVariationalGNEAggregateMatchesReference compares the standalone
// share-function solve, which clears the capacity exactly, with a
// reference that bisects the multiplier until fresh-summation
// best-response iteration clears it to 1e-4·E_max; both must agree to
// within that clearing tolerance.
func TestVariationalGNEAggregateMatchesReference(t *testing.T) {
	for _, seed := range []int64{3, 17, 271} {
		rng := rand.New(rand.NewSource(seed))
		cfg, p := randomHeteroConfig(rng, 4+rng.Intn(8))
		cfg.Mode = netmodel.Standalone
		cfg.EdgeCapacity = 10 + 30*rng.Float64()
		params := cfg.Params(p)
		opts := game.NEOptions{MaxIter: 200, Tol: 1e-10}
		start := cfg.ColdStart(p)
		solveAt := func(mu float64) game.NEResult {
			return referenceNE(start, func(i int, prof []numeric.Point2) numeric.Point2 {
				return miner.BestResponseStandalonePenalized(params, mu, cfg.Budget(i), miner.Profile(prof).Env(i))
			}, opts)
		}
		edge := func(res game.NEResult) float64 { e, _, _ := miner.Profile(res.Profile).Totals(); return e }
		ref, lo, hi := solveAt(0), 0.0, 0.0
		if edge(ref) > cfg.EdgeCapacity {
			for hi = 1; edge(solveAt(hi)) > cfg.EdgeCapacity; hi *= 2 {
			}
			for math.Abs(edge(ref)-cfg.EdgeCapacity) > 1e-4*cfg.EdgeCapacity {
				mid := (lo + hi) / 2
				if ref = solveAt(mid); edge(ref) > cfg.EdgeCapacity {
					lo = mid
				} else {
					hi = mid
				}
			}
		}
		eq, err := SolveMinerEquilibriumFrom(cfg, p, game.NEOptions{}, start)
		if err != nil || !eq.Converged {
			t.Fatalf("seed %d: share solve converged=%v err=%v", seed, eq.Converged, err)
		}
		if d := maxProfileDiff(ref.Profile, eq.Requests); d > 1e-3 {
			t.Errorf("seed %d: profile diff %g > 1e-3", seed, d)
		}
		if mu := (lo + hi) / 2; math.Abs(mu-eq.Multiplier) > 1e-3*(1+mu) {
			t.Errorf("seed %d: multiplier %g vs reference %g", seed, eq.Multiplier, mu)
		}
	}
}

func TestAggregateSolversMatchFreshSummationFictitious(t *testing.T) {
	for _, seed := range []int64{5, 23, 4096} {
		rng := rand.New(rand.NewSource(seed))
		cfg, p := randomHeteroConfig(rng, 4+rng.Intn(8))
		params := cfg.Params(p)
		opts := game.NEOptions{MaxIter: 80, Tol: 1e-10}
		start := cfg.ColdStart(p)

		ref := game.SolveNEFictitious(start, func(i int, prof []numeric.Point2) numeric.Point2 {
			return miner.BestResponseConnected(params, cfg.Budget(i), miner.Profile(prof).Env(i), prof[i])
		}, opts)

		inc := game.SolveNEFictitiousAggregate(start, func(i int, own, others numeric.Point2) numeric.Point2 {
			return miner.BestResponseConnected(params, cfg.Budget(i), envFromOthers(others), own)
		}, opts)

		if d := maxProfileDiff(ref.Profile, inc.Profile); d > 1e-9 {
			t.Errorf("seed %d: incremental vs reference profile diff %g > 1e-9", seed, d)
		}
	}
}

// TestSolveMinerEquilibriumWarmStartMatchesCold pins the semantics of
// SolveMinerEquilibriumFrom: the start profile changes the sweep count,
// not the equilibrium.
func TestSolveMinerEquilibriumWarmStartMatchesCold(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cfg, p := randomHeteroConfig(rng, 6)
	opts := game.NEOptions{Tol: 1e-9}
	cold, err := SolveMinerEquilibriumFrom(cfg, p, opts, cfg.ColdStart(p))
	if err != nil {
		t.Fatalf("cold solve: %v", err)
	}
	warm, err := SolveMinerEquilibriumFrom(cfg, p, opts, cold.Requests)
	if err != nil {
		t.Fatalf("warm solve: %v", err)
	}
	if d := maxProfileDiff(cold.Requests, warm.Requests); d > 1e-6 {
		t.Errorf("warm-started equilibrium drifted %g from cold", d)
	}
	if warm.Iterations > 2 {
		t.Errorf("warm start from the equilibrium took %d sweeps, want ≤ 2", warm.Iterations)
	}
}

// TestSolveMinerEquilibriumFromRejectsBadLength pins the start-profile
// length check.
func TestSolveMinerEquilibriumFromRejectsBadLength(t *testing.T) {
	cfg, p := randomHeteroConfig(rand.New(rand.NewSource(13)), 5)
	if _, err := SolveMinerEquilibriumFrom(cfg, p, game.NEOptions{}, make(miner.Profile, 3)); err == nil {
		t.Fatal("expected error for start profile of wrong length")
	}
}
