package core

import (
	"math"
	"reflect"
	"testing"

	"minegame/internal/game"
	"minegame/internal/miner"
	"minegame/internal/netmodel"
)

func uniformBetas(n int, b float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = b
	}
	return out
}

// withBetas returns cfg carrying the per-miner fork rates.
func withBetas(cfg Config, betas []float64) Config {
	cfg.Betas = betas
	return cfg
}

// TestTopoDegenerateBitIdentical pins the degenerate case: a uniform
// Betas vector must make the solvers reproduce the nil-Betas numeric
// solve bit for bit. A market type with β_k == cfg.Beta gets the
// identical Params struct, and both markets' sorted runs hold one group
// on that β, so they share the share passes, the seed, the anchor warm
// start, and the leader stage; any drift here means the per-miner-β
// path forked the arithmetic.
func TestTopoDegenerateBitIdentical(t *testing.T) {
	cfg := testConfig()
	uniform := withBetas(cfg, uniformBetas(cfg.N, cfg.Beta))
	p := testPrices()

	eqTopo, err := SolveMinerEquilibrium(uniform, p, game.NEOptions{})
	if err != nil {
		t.Fatalf("SolveMinerEquilibrium with Betas: %v", err)
	}
	eqScalar, err := SolveMinerEquilibrium(cfg, p, game.NEOptions{})
	if err != nil {
		t.Fatalf("SolveMinerEquilibrium: %v", err)
	}
	if !reflect.DeepEqual(eqTopo, eqScalar) {
		t.Errorf("uniform-betas NE diverged from scalar NE:\n topo   %+v\n scalar %+v", eqTopo, eqScalar)
	}
	if gT, gS := Deviations(uniform, p, eqTopo.Requests), Deviations(cfg, p, eqScalar.Requests); !reflect.DeepEqual(gT, gS) {
		t.Errorf("uniform-betas deviations %v diverged from scalar %v", gT, gS)
	}

	resTopo, err := SolveStackelberg(uniform, StackelbergOptions{})
	if err != nil {
		t.Fatalf("SolveStackelberg with Betas: %v", err)
	}
	resScalar, err := SolveStackelberg(cfg, StackelbergOptions{})
	if err != nil {
		t.Fatalf("SolveStackelberg: %v", err)
	}
	// Both runs are one entry, so both answer every probe in closed form.
	if !reflect.DeepEqual(resTopo, resScalar) {
		t.Errorf("uniform-betas Stackelberg diverged from scalar solve:\n topo   %+v\n scalar %+v", resTopo, resScalar)
	}
}

// TestTopoHeterogeneousBetasShiftEquilibrium: raising some miners' fork
// rates must move the equilibrium measurably — lower win probabilities
// for the penalized miners at fixed prices, and a different price point
// from the two-stage solve.
func TestTopoHeterogeneousBetasShiftEquilibrium(t *testing.T) {
	cfg := testConfig()
	uniform := withBetas(cfg, uniformBetas(cfg.N, cfg.Beta))
	betas := uniformBetas(cfg.N, cfg.Beta)
	// Miners 3 and 4 sit far from the hashpower: triple their orphan risk.
	betas[3], betas[4] = 3*cfg.Beta, 3*cfg.Beta
	hetero := withBetas(cfg, betas)

	p := testPrices()
	eqU, err := SolveMinerEquilibrium(uniform, p, game.NEOptions{})
	if err != nil {
		t.Fatal(err)
	}
	eqH, err := SolveMinerEquilibrium(hetero, p, game.NEOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !eqH.Converged {
		t.Fatal("heterogeneous NE did not converge")
	}
	// Holding the uniform equilibrium profile fixed, a higher β_i strictly
	// lowers W_i at the symmetric point: e_i/E equals (e_i+c_i)/S there,
	// so ΔW = Δβ·(h·e_i/E − (e_i+c_i)/S) = Δβ·(h−1)·share < 0 for h < 1.
	tot := eqU.Requests.Aggregate()
	r4 := eqU.Requests[4]
	if w4 := miner.WinProbConnected(betas[4], cfg.SatisfyProb, r4, tot.Env(r4)); w4 >= eqU.WinProbs[4] {
		t.Errorf("at the fixed uniform profile, raising beta left W_4 at %g (uniform %g)", w4, eqU.WinProbs[4])
	}
	// At the re-solved equilibrium the comparative static is the edge
	// tilt: only the fork term β·h·e/E rewards edge, so the high-β miner's
	// best response shifts composition toward edge relative to a low-β
	// miner facing the same prices, budget, and aggregate environment.
	frac := func(eq MinerEquilibrium, i int) float64 {
		r := eq.Requests[i]
		return r.E / (r.E + r.C)
	}
	if frac(eqH, 4) <= frac(eqH, 0) {
		t.Errorf("penalized miner edge fraction %g should exceed unpenalized %g", frac(eqH, 4), frac(eqH, 0))
	}

	resU, err := SolveStackelberg(uniform, StackelbergOptions{})
	if err != nil {
		t.Fatal(err)
	}
	resH, err := SolveStackelberg(hetero, StackelbergOptions{})
	if err != nil {
		t.Fatal(err)
	}
	shift := math.Abs(resH.Prices.Edge-resU.Prices.Edge) + math.Abs(resH.Prices.Cloud-resU.Prices.Cloud)
	if shift < 1e-4 {
		t.Errorf("heterogeneous betas left equilibrium prices unmoved: uniform %+v vs hetero %+v", resU.Prices, resH.Prices)
	}
}

func TestTopoDeviationsSmallAtEquilibrium(t *testing.T) {
	cfg := withBetas(testConfig(), []float64{0.05, 0.1, 0.2, 0.3, 0.4})
	p := testPrices()
	eq, err := SolveMinerEquilibrium(cfg, p, game.NEOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range Deviations(cfg, p, eq.Requests) {
		if g > 1e-4*cfg.Reward {
			t.Errorf("miner %d gains %g from unilateral deviation at the solved NE", i, g)
		}
	}
}

// TestTopoValidationErrors: every entry point rejects a malformed Betas
// market through Config.Validate, and the classed path — whose classes
// carry no fork rate — rejects any Betas market instead of dropping it.
func TestTopoValidationErrors(t *testing.T) {
	cfg := withBetas(testConfig(), uniformBetas(testConfig().N, 0.2))

	standalone := cfg
	standalone.Mode = netmodel.Standalone
	standalone.EdgeCapacity = 25
	if _, err := SolveMinerEquilibrium(standalone, testPrices(), game.NEOptions{}); err == nil {
		t.Error("standalone mode must be rejected")
	}
	if _, err := SolveStackelberg(standalone, StackelbergOptions{}); err == nil {
		t.Error("standalone Stackelberg must be rejected")
	}
	short := withBetas(cfg, cfg.Betas[:3])
	if _, err := SolveMinerEquilibrium(short, testPrices(), game.NEOptions{}); err == nil {
		t.Error("short betas vector must be rejected")
	}
	bad := withBetas(cfg, uniformBetas(cfg.N, cfg.Beta))
	bad.Betas[2] = 1.0
	if _, err := SolveStackelberg(bad, StackelbergOptions{}); err == nil {
		t.Error("beta = 1 must be rejected")
	}
	if _, err := SolveMinerEquilibriumFrom(cfg, testPrices(), game.NEOptions{}, make(miner.Profile, cfg.N-1)); err == nil {
		t.Error("wrong-length start profile must be rejected")
	}

	if _, err := cfg.Classes(0); err == nil {
		t.Error("Classes must reject a Betas market")
	}
	cp, err := testConfig().Classes(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SolveMinerEquilibriumClassed(cfg, cp, testPrices(), game.NEOptions{}); err == nil {
		t.Error("classed miner solve must reject a Betas market")
	}
	if _, err := SolveStackelbergClassed(cfg, cp, StackelbergOptions{}); err == nil {
		t.Error("classed Stackelberg must reject a Betas market")
	}
}
