package core

import (
	"math"
	"math/rand"
	"testing"

	"minegame/internal/game"
	"minegame/internal/miner"
	"minegame/internal/netmodel"
	"minegame/internal/numeric"
)

// wideConfig is the N = 1000 market of the solve-wide benchmark: no
// budget binds at P_e = 2, P_c = 1, so the equilibrium is symmetric and
// closed-form, E* = σ₁²(N−1)/N and S* = σ₂²(N−1)/N.
func wideConfig(seed int64) (Config, Prices) {
	rng := rand.New(rand.NewSource(seed))
	budgets := make([]float64, 1000)
	for i := range budgets {
		budgets[i] = 8 + 4*rng.Float64()
	}
	cfg := Config{
		N: 1000, Budgets: budgets, Reward: 100, Beta: 0.5, SatisfyProb: 0.9,
		Mode: netmodel.Connected, CostE: 1, CostC: 0.5,
	}
	return cfg, Prices{Edge: 2, Cloud: 1}
}

// TestShareRootClosedForms pins the share root on markets whose
// equilibrium is closed-form (Eqs. 14–15 with no budget binding): the
// solve-wide shape, E* = 0.5·0.9·100/(2−1)·999/1000 = 44.955, and the
// million-miner classed market of the meanfield_scale table,
// E* = 0.2·0.7·1000/(8−4)·(1 − 10⁻⁶) = 34.999965. The first must hold
// to 1e-12 relative and take at most 50 passes. The second holds to
// 1e-9: each share e_k = E(1 − E/σ₁²) cancels to about 1/N of E, so
// the rounding of the weighted sum grows with N.
func TestShareRootClosedForms(t *testing.T) {
	cfg, p := wideConfig(1)
	eq, err := SolveMinerEquilibrium(cfg, p, game.NEOptions{})
	if err != nil || !eq.Converged {
		t.Fatalf("solve-wide shape: converged=%v err=%v", eq.Converged, err)
	}
	rel := func(got, want float64) float64 { return math.Abs(got-want) / want }
	if r := rel(eq.EdgeDemand, 44.955); r > 1e-12 {
		t.Errorf("E = %.15g, want 44.955 (rel err %g)", eq.EdgeDemand, r)
	}
	if r := rel(eq.TotalDemand, 49.95); r > 1e-12 {
		t.Errorf("S = %.15g, want 49.95 (rel err %g)", eq.TotalDemand, r)
	}
	if eq.Iterations > 50 {
		t.Errorf("solve-wide shape took %d passes, want ≤ 50", eq.Iterations)
	}
	if dev := Deviation(cfg, p, eq.Requests); dev > 1e-12 {
		t.Errorf("largest deviation gain %g at the closed-form root", dev)
	}

	const n = 1_000_000
	big := Config{
		N: n, Budgets: []float64{150, 165, 180, 195, 210, 225, 240}, Reward: 1000, Beta: 0.2,
		SatisfyProb: 0.7, Mode: netmodel.Connected, CostE: 2, CostC: 1,
	}
	classes := make([]miner.Class, len(big.Budgets))
	for k, b := range big.Budgets {
		classes[k] = miner.Class{Budget: b, Count: n / 7}
	}
	classes[0].Count += n - 7*(n/7)
	cp, err := miner.FromClasses(classes)
	if err != nil {
		t.Fatal(err)
	}
	big.Budgets = []float64{150}
	ceq, err := SolveMinerEquilibriumClassed(big, cp, Prices{Edge: 8, Cloud: 4}, game.NEOptions{})
	if err != nil || !ceq.Converged {
		t.Fatalf("million-miner classed solve: converged=%v err=%v", ceq.Converged, err)
	}
	if r := rel(ceq.EdgeDemand, 35*(1-1e-6)); r > 1e-9 {
		t.Errorf("million-miner E = %.15g, want 34.999965 (rel err %g)", ceq.EdgeDemand, r)
	}
}

// iterate runs best-response iteration on the exact market of cfg with
// best responses that take no warm hint (so every response is the
// exact KKT point) under the shared-capacity price mu, from start.
func iterate(t *testing.T, cfg Config, p Prices, mu float64, start []numeric.Point2) []numeric.Point2 {
	t.Helper()
	params := cfg.Params(p)
	br := func(i int, _, others numeric.Point2) numeric.Point2 {
		pi := params
		if cfg.Betas != nil {
			pi.Beta = cfg.Betas[i]
		}
		if cfg.Mode == netmodel.Standalone {
			return miner.BestResponseStandalonePenalized(pi, mu, cfg.Budget(i), envFromOthers(others))
		}
		return miner.BestResponseConnected(pi, cfg.Budget(i), envFromOthers(others))
	}
	res := game.SolveNEAggregate(start, br, game.NEOptions{MaxIter: 20000, Tol: 1e-13})
	if !res.Converged {
		t.Fatalf("best-response iteration did not converge in %d sweeps", res.Iterations)
	}
	return res.Profile
}

// TestShareRootMatchesIteration is the differential test of the share
// root against best-response iteration (game.SolveNEAggregate) on small
// markets where the iteration converges: every request must agree to
// 1e-7 relative to the market's largest request. A standalone market
// with a binding capacity is iterated at the root's multiplier, where
// the μ-penalized game must reproduce the root, which clears E_max
// exactly.
func TestShareRootMatchesIteration(t *testing.T) {
	hetero, p := randomHeteroConfig(rand.New(rand.NewSource(5)), 7)
	bound := hetero
	bound.Budgets = []float64{5, 10, 20, 40, 80, 200, 400}
	standalone := bound
	standalone.Mode = netmodel.Standalone
	standalone.EdgeCapacity = 3
	betas := hetero
	betas.Betas = []float64{0.05, 0.1, 0.2, 0.3, 0.4, 0.1, 0.25}
	tests := []struct {
		name string
		cfg  Config
	}{
		{"connected", hetero},
		{"budget bound", bound},
		{"standalone binding capacity", standalone},
		{"per-miner betas", betas},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			eq, err := SolveMinerEquilibrium(tc.cfg, p, game.NEOptions{})
			if err != nil || !eq.Converged {
				t.Fatalf("share solve: converged=%v err=%v", eq.Converged, err)
			}
			if tc.cfg.Mode == netmodel.Standalone {
				if !(eq.Multiplier > 0) || math.Abs(eq.EdgeDemand-tc.cfg.EdgeCapacity) > 1e-12*tc.cfg.EdgeCapacity {
					t.Fatalf("capacity %g should bind and clear exactly: E = %.15g, μ = %g", tc.cfg.EdgeCapacity, eq.EdgeDemand, eq.Multiplier)
				}
			}
			ref := iterate(t, tc.cfg, p, eq.Multiplier, tc.cfg.ColdStart(p))
			assertClose(t, eq.Requests, ref)
		})
	}
	t.Run("classed", func(t *testing.T) {
		cfg := bound
		cfg.N = 14
		cfg.Budgets = append(append([]float64(nil), bound.Budgets...), bound.Budgets...)
		cp := miner.ClassifyExact(cfg.Budgets)
		ceq, err := SolveMinerEquilibriumClassed(cfg, cp, p, game.NEOptions{})
		if err != nil || !ceq.Converged || cp.K() != 7 {
			t.Fatalf("classed share solve: K=%d converged=%v err=%v", cp.K(), ceq.Converged, err)
		}
		assertClose(t, ceq.Expand(), iterate(t, cfg, p, 0, cfg.ColdStart(p)))
	})
}

// assertClose fails unless two profiles agree to 1e-7 relative to the
// largest request coordinate of want.
func assertClose(t *testing.T, got, want []numeric.Point2) {
	t.Helper()
	var scale float64
	for _, r := range want {
		scale = math.Max(scale, math.Max(r.E, r.C))
	}
	for i := range want {
		if d := got[i].Sub(want[i]).Norm(); d > 1e-7*scale {
			t.Errorf("miner %d: share root %v vs iteration %v (dist %g)", i, got[i], want[i], d)
		}
	}
}
