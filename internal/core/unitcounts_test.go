package core_test

import (
	"math"
	"testing"

	"minegame/internal/core"
	"minegame/internal/game"
	"minegame/internal/miner"
	"minegame/internal/netmodel"
	"minegame/internal/numeric"
	"minegame/internal/verify"
)

// TestExactIsClassedWithUnitCounts pins the exact N-miner market as the
// classed market with every count 1: with distinct ascending budgets,
// ClassifyExact keeps miner order, so from the same start the classed
// and exact solvers, deviation certificates and equilibrium
// certificates must agree to rounding (1e-12 relative); both markets
// sum their share passes over the same sorted run. Jacobi updates no longer reach
// the share-function solvers; the Jacobi row checks that best-response
// iteration under that schedule (game.SolveNEAggregate, the paper's
// Algorithm 1 with simultaneous updates) reaches the same equilibrium.
func TestExactIsClassedWithUnitCounts(t *testing.T) {
	base := core.Config{
		N:            5,
		Budgets:      []float64{120, 160, 200, 240, 280},
		Reward:       1000,
		Beta:         0.2,
		SatisfyProb:  0.7,
		Mode:         netmodel.Connected,
		EdgeCapacity: 60,
		CostE:        2,
		CostC:        1,
	}
	standalone := base
	standalone.Mode = netmodel.Standalone
	standalone.EdgeCapacity = 10 // binds: the unconstrained edge demand is far larger
	p := core.Prices{Edge: 8, Cloud: 4}
	tests := []struct {
		name string
		cfg  core.Config
		opts game.NEOptions
	}{
		{"connected", base, game.NEOptions{}},
		{"standalone binding capacity", standalone, game.NEOptions{}},
		{"connected jacobi", base, game.NEOptions{Jacobi: true, Damping: 0.5}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			cp := miner.ClassifyExact(tc.cfg.Budgets)
			if cp.K() != tc.cfg.N {
				t.Fatalf("%d classes for %d distinct budgets", cp.K(), tc.cfg.N)
			}
			start := tc.cfg.ColdStart(p)
			exact, err := core.SolveMinerEquilibriumFrom(tc.cfg, p, tc.opts, start)
			if err != nil {
				t.Fatalf("exact solve: %v", err)
			}
			classed, err := core.SolveMinerEquilibriumClassedFrom(tc.cfg, cp, p, tc.opts, []numeric.Point2(start))
			if err != nil {
				t.Fatalf("classed solve: %v", err)
			}
			if !exact.Converged {
				t.Fatalf("exact solve did not converge in %d sweeps", exact.Iterations)
			}
			if tc.opts.Jacobi {
				params := tc.cfg.Params(p)
				opts := tc.opts
				opts.Tol = 1e-12
				iter := game.SolveNEAggregate(start, func(i int, _, others numeric.Point2) numeric.Point2 {
					env := miner.Env{EdgeOthers: math.Max(others.E, 0), CloudOthers: math.Max(others.C, 0)}
					return miner.BestResponseConnected(params, tc.cfg.Budget(i), env)
				}, opts)
				if !iter.Converged {
					t.Fatalf("Jacobi iteration did not converge in %d sweeps", iter.Iterations)
				}
				for i, r := range iter.Profile {
					if d := r.Sub(exact.Requests[i]).Norm(); d > 1e-7 {
						t.Errorf("miner %d: Jacobi iteration %v vs share root %v", i, r, exact.Requests[i])
					}
				}
			}
			if len(classed.Requests) != len(exact.Requests) {
				t.Fatalf("%d classed requests for %d miners", len(classed.Requests), len(exact.Requests))
			}
			for i, r := range exact.Requests {
				if d := r.Sub(classed.Requests[i]).Norm(); d > 1e-12*r.Norm() {
					t.Errorf("miner %d: exact %v, classed %v", i, r, classed.Requests[i])
				}
			}
			if exact.Iterations != classed.Iterations || exact.Multiplier != classed.Multiplier {
				t.Errorf("exact (iterations %d, mu %g) vs classed (iterations %d, mu %g)",
					exact.Iterations, exact.Multiplier, classed.Iterations, classed.Multiplier)
			}
			if tc.cfg.Mode == netmodel.Standalone && !(exact.Multiplier > 0) {
				t.Errorf("capacity should bind with a positive multiplier, got %g", exact.Multiplier)
			}

			gExact := core.Deviations(tc.cfg, p, exact.Requests)
			gClassed := core.DeviationsClassed(tc.cfg, p, cp, classed.Requests)
			if len(gClassed) != len(gExact) {
				t.Fatalf("%d classed gains for %d miners", len(gClassed), len(gExact))
			}
			for i, g := range gExact {
				if math.Abs(g-gClassed[i]) > 1e-12*math.Abs(exact.Utilities[i]) {
					t.Errorf("miner %d: deviation gain %g exact, %g classed", i, g, gClassed[i])
				}
			}

			cExact, err := verify.Certify(tc.cfg, p, exact, verify.Options{})
			if err != nil {
				t.Fatalf("Certify: %v", err)
			}
			cClassed, err := verify.CertifyClassed(tc.cfg, cp, p, classed, verify.Options{})
			if err != nil {
				t.Fatalf("CertifyClassed: %v", err)
			}
			if !cExact.OK || !cClassed.OK {
				t.Errorf("certificates: exact OK=%v (%v), classed OK=%v (%v)", cExact.OK, cExact.Err(), cClassed.OK, cClassed.Err())
			}
			residuals := make(map[string]float64, len(cClassed.Checks))
			for _, ck := range cClassed.Checks {
				residuals[ck.Name] = ck.Residual
			}
			shared := 0
			for _, ck := range cExact.Checks {
				r, ok := residuals[ck.Name]
				if !ok {
					continue
				}
				shared++
				if math.Abs(r-ck.Residual) > 1e-12 {
					t.Errorf("check %s: exact residual %g, classed residual %g", ck.Name, ck.Residual, r)
				}
			}
			if shared != len(cExact.Checks) {
				t.Errorf("only %d of the exact certificate's %d checks appear in the classed one", shared, len(cExact.Checks))
			}
		})
	}
}

// TestDeviationWrongProfileLength pins that a profile whose length is
// not cfg.N is never mistaken for an equilibrium: Deviations returns
// nil and Deviation +Inf, for longer and shorter profiles alike, on
// markets whose per-miner inputs (budgets, fork rates) are indexed by
// miner.
func TestDeviationWrongProfileLength(t *testing.T) {
	hetero := core.Config{
		N:            3,
		Budgets:      []float64{150, 200, 250},
		Reward:       1000,
		Beta:         0.2,
		SatisfyProb:  0.7,
		Mode:         netmodel.Connected,
		EdgeCapacity: 60,
		CostE:        2,
		CostC:        1,
	}
	betas := hetero
	betas.Budgets = []float64{200}
	betas.Betas = []float64{0.1, 0.2, 0.3}
	p := core.Prices{Edge: 8, Cloud: 4}
	row := numeric.Point2{E: 5, C: 10}
	tests := []struct {
		name string
		cfg  core.Config
		prof miner.Profile
	}{
		{"heterogeneous budgets, longer", hetero, miner.Profile{row, row, row, row}},
		{"heterogeneous budgets, shorter", hetero, miner.Profile{row, row}},
		{"betas, longer", betas, miner.Profile{row, row, row, row}},
		{"betas, shorter", betas, miner.Profile{row, row}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if gains := core.Deviations(tc.cfg, p, tc.prof); gains != nil {
				t.Errorf("gains %v, want nil", gains)
			}
			if dev := core.Deviation(tc.cfg, p, tc.prof); !math.IsInf(dev, 1) {
				t.Errorf("Deviation %g, want +Inf", dev)
			}
		})
	}
}
