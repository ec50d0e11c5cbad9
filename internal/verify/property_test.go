package verify

// Metamorphic property harness: seeded invariants the model must obey
// regardless of solver internals — permutation invariance of the miner
// ordering, scale invariance of the money dimension, degenerate-limit
// agreement with the paper's closed forms, agreement between the
// profile-based and aggregate-based solvers, and monotone comparative
// statics. These complement the point certificates: a solver change
// that keeps every certificate green but breaks a symmetry of the game
// is caught here.

import (
	"math"
	"math/rand"
	"testing"

	"minegame/internal/core"
	"minegame/internal/game"
	"minegame/internal/miner"
	"minegame/internal/netmodel"
	"minegame/internal/numeric"
	"minegame/internal/population"
)

// propSeeds gives every property a fixed set of generator seeds; the
// cases are reproducible and independent of map/run order.
var propSeeds = []int64{1, 7, 42, 1337}

// randomConfig draws a validated heterogeneous config and price pair in
// the sane operating range of the model.
func randomConfig(rng *rand.Rand, mode netmodel.Mode) (core.Config, core.Prices) {
	n := 2 + rng.Intn(6)
	budgets := make([]float64, n)
	for i := range budgets {
		budgets[i] = 50 + 400*rng.Float64()
	}
	cfg := core.Config{
		N:           n,
		Budgets:     budgets,
		Reward:      500 + 1500*rng.Float64(),
		Beta:        0.05 + 0.6*rng.Float64(),
		SatisfyProb: 0.3 + 0.69*rng.Float64(),
		Mode:        mode,
		CostE:       2,
		CostC:       1,
	}
	pc := 2 + 6*rng.Float64()
	pe := pc * (1.2 + 2*rng.Float64())
	if mode == netmodel.Standalone {
		cfg.EdgeCapacity = 20 + 100*rng.Float64()
	}
	return cfg, core.Prices{Edge: pe, Cloud: pc}
}

// TestPropertyPermutationInvariance: the game treats miners
// symmetrically up to their budgets, so permuting the budget vector
// must permute the equilibrium profile the same way.
func TestPropertyPermutationInvariance(t *testing.T) {
	for _, seed := range propSeeds {
		rng := rand.New(rand.NewSource(seed))
		cfg, p := randomConfig(rng, netmodel.Connected)
		eq, err := core.SolveMinerEquilibrium(cfg, p, game.NEOptions{})
		if err != nil {
			t.Fatalf("seed %d: solve: %v", seed, err)
		}
		perm := rng.Perm(cfg.N)
		pcfg := cfg
		pcfg.Budgets = make([]float64, cfg.N)
		for i, j := range perm {
			pcfg.Budgets[i] = cfg.Budget(j)
		}
		peq, err := core.SolveMinerEquilibrium(pcfg, p, game.NEOptions{})
		if err != nil {
			t.Fatalf("seed %d: permuted solve: %v", seed, err)
		}
		for i, j := range perm {
			d := peq.Requests[i].Sub(eq.Requests[j]).Norm()
			if d > 1e-5*(1+eq.Requests[j].Norm()) {
				t.Errorf("seed %d: miner %d→%d moved by %g under budget permutation", seed, j, i, d)
			}
		}
	}
}

// TestPropertyScaleInvariance: money units are arbitrary — scaling
// R, P_e, P_c, costs and every budget by λ leaves the equilibrium
// requests unchanged (utilities scale by λ).
func TestPropertyScaleInvariance(t *testing.T) {
	for _, seed := range propSeeds {
		for _, mode := range []netmodel.Mode{netmodel.Connected, netmodel.Standalone} {
			rng := rand.New(rand.NewSource(seed))
			cfg, p := randomConfig(rng, mode)
			solve := core.SolveMinerEquilibrium
			if mode == netmodel.Standalone {
				solve = core.SolveMinerGNE
			}
			eq, err := solve(cfg, p, game.NEOptions{})
			if err != nil {
				t.Fatalf("seed %d %v: solve: %v", seed, mode, err)
			}
			const lambda = 3.7
			scfg := cfg
			scfg.Reward *= lambda
			scfg.CostE *= lambda
			scfg.CostC *= lambda
			scfg.Budgets = make([]float64, cfg.N)
			for i := range scfg.Budgets {
				scfg.Budgets[i] = cfg.Budget(i) * lambda
			}
			sp := core.Prices{Edge: p.Edge * lambda, Cloud: p.Cloud * lambda}
			seq, err := solve(scfg, sp, game.NEOptions{})
			if err != nil {
				t.Fatalf("seed %d %v: scaled solve: %v", seed, mode, err)
			}
			for i := range eq.Requests {
				d := seq.Requests[i].Sub(eq.Requests[i]).Norm()
				if d > 1e-4*(1+eq.Requests[i].Norm()) {
					t.Errorf("seed %d %v: miner %d moved by %g under λ-scaling", seed, mode, i, d)
				}
				uRel := math.Abs(seq.Utilities[i]-lambda*eq.Utilities[i]) / (1 + math.Abs(lambda*eq.Utilities[i]))
				if uRel > 1e-4 {
					t.Errorf("seed %d %v: miner %d utility scaled by %g, want λ=%g", seed, mode, i, seq.Utilities[i]/eq.Utilities[i], lambda)
				}
			}
		}
	}
}

// TestPropertyConnectedClosedFormLimits: for homogeneous miners the
// iterating solver must land on the Theorem 3 / Corollary 1 closed
// form, including at the h→1 boundary, and the β→0 limit sends all
// edge demand to zero (no transferable block reward to chase).
func TestPropertyConnectedClosedFormLimits(t *testing.T) {
	for _, h := range []float64{0.7, 0.999999, 1} {
		cfg := connectedConfig()
		cfg.SatisfyProb = h
		p := core.Prices{Edge: 8, Cloud: 4}
		eq, err := core.SolveMinerEquilibrium(cfg, p, game.NEOptions{})
		if err != nil {
			t.Fatalf("h=%g: solve: %v", h, err)
		}
		want, err := miner.HomogeneousConnected(cfg.Params(p), cfg.N, cfg.Budget(0))
		if err != nil {
			t.Fatalf("h=%g: closed form: %v", h, err)
		}
		for i, r := range eq.Requests {
			if d := r.Sub(want.Request).Norm(); d > 1e-4*(1+want.Request.Norm()) {
				t.Errorf("h=%g: miner %d at %+v, closed form %+v (|Δ|=%g)", h, i, r, want.Request, d)
			}
		}
	}

	// β→0: the mining contest happens entirely at the full-satisfaction
	// stage, transfer time does not matter, and edge demand vanishes.
	cfg := connectedConfig()
	cfg.Beta = 1e-9
	p := core.Prices{Edge: 8, Cloud: 4}
	eq, err := core.SolveMinerEquilibrium(cfg, p, game.NEOptions{})
	if err != nil {
		t.Fatalf("beta→0: solve: %v", err)
	}
	if eq.EdgeDemand > 1e-3 {
		t.Errorf("beta→0: edge demand %g, want ≈ 0", eq.EdgeDemand)
	}
	if eq.CloudDemand <= 0 {
		t.Errorf("beta→0: cloud demand %g, want > 0", eq.CloudDemand)
	}
}

// TestPropertyProfileAggregateSolverAgreement: the O(N²) profile-based
// reference solver in internal/game and the O(N) aggregate-based hot
// path must agree on the equilibrium they find, connected and
// standalone alike. Certification of both closes the loop.
func TestPropertyProfileAggregateSolverAgreement(t *testing.T) {
	for _, seed := range propSeeds {
		for _, mode := range []netmodel.Mode{netmodel.Connected, netmodel.Standalone} {
			rng := rand.New(rand.NewSource(seed))
			cfg, p := randomConfig(rng, mode)
			params := cfg.Params(p)

			var profA, profB miner.Profile
			if mode == netmodel.Connected {
				// The share-function root vs best-response iteration, both
				// from the same cold start.
				brAgg := func(i int, own, others numeric.Point2) numeric.Point2 {
					return miner.BestResponseConnected(params, cfg.Budget(i),
						miner.Env{EdgeOthers: others.E, CloudOthers: others.C}, own)
				}
				start := cfg.ColdStart(p)
				eq, err := core.SolveMinerEquilibriumFrom(cfg, p, game.NEOptions{}, start.Clone())
				if err != nil {
					t.Fatalf("seed %d: connected solve: %v", seed, err)
				}
				profA = eq.Requests
				profB = game.SolveNEAggregate(start.Clone(), brAgg, game.NEOptions{}).Profile
			} else {
				// The capacity-projected NE solver vs the variational GNEP
				// solver: when capacity does not bind they coincide, and when
				// it binds both must satisfy the same certificate.
				eqA, err := core.SolveMinerEquilibrium(cfg, p, game.NEOptions{})
				if err != nil {
					t.Fatalf("seed %d: standalone solve: %v", seed, err)
				}
				eqB, err := core.SolveMinerGNE(cfg, p, game.NEOptions{})
				if err != nil {
					t.Fatalf("seed %d: standalone GNE solve: %v", seed, err)
				}
				profA, profB = eqA.Requests, eqB.Requests
			}
			for _, prof := range []miner.Profile{profA, profB} {
				cert, err := CertifyProfile(cfg, p, prof, Options{})
				if err != nil {
					t.Fatalf("seed %d %v: certify: %v", seed, mode, err)
				}
				if !cert.OK {
					t.Errorf("seed %d %v: solver output failed certification: %v", seed, mode, cert.Err())
				}
			}
			if mode == netmodel.Connected {
				for i := range profA {
					d := profA[i].Sub(profB[i]).Norm()
					if d > 1e-4*(1+profA[i].Norm()) {
						t.Errorf("seed %d %v: solvers disagree on miner %d by %g", seed, mode, i, d)
					}
				}
			}
		}
	}
}

// TestPropertyMonotoneComparativeStatics: two directional predictions
// of the model — a larger transferable fraction β pulls more demand to
// the fast edge, and (in the population game) a higher expected miner
// count increases total expected demand pressure.
func TestPropertyMonotoneComparativeStatics(t *testing.T) {
	p := core.Prices{Edge: 8, Cloud: 4}
	prevEdge := -1.0
	for _, beta := range []float64{0.1, 0.2, 0.3, 0.4, 0.5} {
		cfg := connectedConfig()
		cfg.Beta = beta
		eq, err := core.SolveMinerEquilibrium(cfg, p, game.NEOptions{})
		if err != nil {
			t.Fatalf("beta=%g: solve: %v", beta, err)
		}
		if eq.EdgeDemand < prevEdge-1e-9 {
			t.Errorf("beta=%g: edge demand %g fell below %g — β↑ must pull demand edge-ward", beta, eq.EdgeDemand, prevEdge)
		}
		prevEdge = eq.EdgeDemand
	}

	params := miner.Params{Reward: 1000, Beta: 0.2, H: 0.7, PriceE: 8, PriceC: 4}
	prevDemand := -1.0
	for _, mu := range []float64{3, 5, 8} {
		pmf, err := population.Model{Mu: mu, Sigma: 1.2, MaxN: 20}.PMF()
		if err != nil {
			t.Fatalf("mu=%g: pmf: %v", mu, err)
		}
		eq, err := population.SymmetricEquilibrium(params, pmf, 200, population.SolveOptions{})
		if err != nil {
			t.Fatalf("mu=%g: solve: %v", mu, err)
		}
		total := eq.ExpectedEdgeDemand + eq.ExpectedCloudDemand
		if total < prevDemand-1e-6 {
			t.Errorf("mu=%g: expected total demand %g fell below %g — E[N]↑ must raise demand", mu, total, prevDemand)
		}
		prevDemand = total
	}
}

// TestPropertyCertificatesAcrossSweep certifies every equilibrium on a
// price sweep — the certificate must be uniformly valid over the
// operating range the experiments exercise, not only at headline
// settings.
func TestPropertyCertificatesAcrossSweep(t *testing.T) {
	for _, mode := range []netmodel.Mode{netmodel.Connected, netmodel.Standalone} {
		cfg := connectedConfig()
		cfg.Mode = mode
		if mode == netmodel.Standalone {
			cfg.EdgeCapacity = 60
		}
		solve := core.SolveMinerEquilibrium
		if mode == netmodel.Standalone {
			solve = core.SolveMinerGNE
		}
		for _, pc := range numeric.Linspace(2, 6.5, 7) {
			p := core.Prices{Edge: 8, Cloud: pc}
			eq, err := solve(cfg, p, game.NEOptions{})
			if err != nil {
				t.Fatalf("%v pc=%g: solve: %v", mode, pc, err)
			}
			cert, err := Certify(cfg, p, eq, Options{})
			if err != nil {
				t.Fatalf("%v pc=%g: certify: %v", mode, pc, err)
			}
			if !cert.OK {
				t.Errorf("%v pc=%g: certificate failed: %v", mode, pc, cert.Err())
			}
		}
	}
}
