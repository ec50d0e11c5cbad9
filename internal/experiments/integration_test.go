package experiments

import (
	"math"
	"reflect"
	"testing"
)

func TestConvergenceShapes(t *testing.T) {
	res := mustRun(t, "conv", quickCfg())
	tab := res.Tables[0]
	conn := column(t, tab, "delta_connected")
	jacRaw := column(t, tab, "delta_jacobi_undamped")
	jac := column(t, tab, "delta_jacobi_damped")
	gne := column(t, tab, "delta_gne")
	// Deltas must decay overall: the last informative delta is orders of
	// magnitude below the first.
	lastPositive := func(xs []float64) float64 {
		last := math.Inf(1)
		for _, x := range xs {
			if x > 0 {
				last = x
			}
		}
		return last
	}
	if conn[0] <= 0 || lastPositive(conn) > conn[0]*1e-3 {
		t.Errorf("connected deltas did not decay: first %g, last %g", conn[0], lastPositive(conn))
	}
	if gne[0] <= 0 || lastPositive(gne) > gne[0]*1e-3 {
		t.Errorf("GNE deltas did not decay: first %g, last %g", gne[0], lastPositive(gne))
	}
	if jac[0] <= 0 || lastPositive(jac) > jac[0]*1e-3 {
		t.Errorf("damped Jacobi deltas did not decay: first %g, last %g", jac[0], lastPositive(jac))
	}
	// The undamped parallel iteration must NOT decay — that oscillation
	// is the experiment's point.
	if lastPositive(jacRaw) < jacRaw[0]*0.1 {
		t.Errorf("undamped Jacobi unexpectedly converged: first %g, last %g", jacRaw[0], lastPositive(jacRaw))
	}
}

func TestEndToEndShapes(t *testing.T) {
	res := mustRun(t, "e2e", quickCfg())
	tab := res.Tables[0]
	realizedW := column(t, tab, "realized_winprob")
	modelU := column(t, tab, "model_utility")
	realizedU := column(t, tab, "realized_utility")
	var sumW float64
	for i := range realizedW {
		sumW += realizedW[i]
		// Homogeneous miners: every miner's realized utility is in the
		// same ballpark as the model's (the known model-vs-physics gap is
		// bounded; see ablbeta).
		if math.Abs(realizedU[i]-modelU[i]) > 0.6*math.Abs(modelU[i])+25 {
			t.Errorf("miner %d: realized utility %g too far from model %g", i+1, realizedU[i], modelU[i])
		}
	}
	if math.Abs(sumW-1) > 1e-9 {
		t.Errorf("realized winning probabilities sum to %g, want exactly 1", sumW)
	}
	sp := res.Tables[1]
	if len(sp.Rows) != 5 {
		t.Fatalf("provider table rows = %d", len(sp.Rows))
	}
	revE, revC, billed := sp.Rows[0][1], sp.Rows[1][1], sp.Rows[4][1]
	if math.Abs(revE+revC-billed) > 1e-6 {
		t.Errorf("provider revenues %g + %g do not add up to billed %g", revE, revC, billed)
	}
}

func TestAdaptivePricingShapes(t *testing.T) {
	res := mustRun(t, "adaptive", quickCfg())
	tab := res.Tables[0]
	for _, row := range tab.Rows {
		quantity, analytic, learned := row[0], row[1], row[2]
		if learned <= 0 {
			t.Errorf("quantity %g: learned value %g must be positive", quantity, learned)
		}
		// Prices must stay within 50% of the analytic equilibrium
		// they were seeded with: a drift bound, not a fixed-point
		// certificate.
		if quantity <= 2 && math.Abs(learned-analytic) > 0.5*analytic {
			t.Errorf("quantity %g: learned %g drifted far from analytic %g", quantity, learned, analytic)
		}
	}
}

func TestMultiESPShapes(t *testing.T) {
	res := mustRun(t, "multiesp", quickCfg())
	tab := res.Tables[0]
	budget := column(t, tab, "E_budget")
	premium := column(t, tab, "E_premium")
	assertMonotone(t, budget, false, 1e-3, "budget-ESP demand vs its price")
	assertMonotone(t, premium, true, 1e-3, "premium-ESP demand vs the rival's price")
	for i := range budget {
		if budget[i] < 0 || premium[i] < 0 {
			t.Errorf("row %d: negative demand", i)
		}
	}
}

func TestHeterogeneousShapes(t *testing.T) {
	res := mustRun(t, "hetero", quickCfg())
	tab := res.Tables[0]
	budgets := column(t, tab, "budget")
	spend := column(t, tab, "spend")
	utils := column(t, tab, "utility")
	wins := column(t, tab, "winprob")
	for i := range budgets {
		if spend[i] > budgets[i]+1e-6 {
			t.Errorf("miner %d overspends: %g > %g", i+1, spend[i], budgets[i])
		}
		if i > 0 {
			if utils[i] < utils[i-1]-1e-3 {
				t.Errorf("utility not monotone in budget at miner %d", i+1)
			}
			if wins[i] < wins[i-1]-1e-6 {
				t.Errorf("winning probability not monotone in budget at miner %d", i+1)
			}
		}
	}
}

func TestWealthShapes(t *testing.T) {
	res := mustRun(t, "wealth", quickCfg())
	tab := res.Tables[0]
	gini := column(t, tab, "gini")
	minB := column(t, tab, "min_budget")
	if gini[0] != 0 {
		t.Errorf("initial Gini = %g, want 0 (equal budgets)", gini[0])
	}
	if last := gini[len(gini)-1]; last <= 0 {
		t.Errorf("final Gini = %g, want positive (centralization pressure)", last)
	}
	for i, b := range minB {
		if b < 20-1e-9 {
			t.Errorf("row %d: budget %g below the floor", i, b)
		}
	}
}

func TestGossipShapes(t *testing.T) {
	res := mustRun(t, "gossip", quickCfg())
	tab := res.Tables[0]
	d90 := column(t, tab, "d90_s")
	beta := column(t, tab, "beta90")
	edge := column(t, tab, "edge_demand")
	d50 := column(t, tab, "d50_s")
	assertMonotone(t, d90, false, 1e-9, "90% spread vs overlay density")
	assertMonotone(t, beta, false, 1e-9, "fork rate vs overlay density")
	assertMonotone(t, edge, false, 1e-3, "edge demand vs overlay density")
	for i := range d50 {
		if d50[i] > d90[i] {
			t.Errorf("row %d: median spread %g above 90%% spread %g", i, d50[i], d90[i])
		}
	}
}

func TestSensitivityShapes(t *testing.T) {
	res := mustRun(t, "sens", quickCfg())
	tab := res.Tables[0]
	knob := column(t, tab, "knob")
	elasE := column(t, tab, "elasticity_e")
	elasC := column(t, tab, "elasticity_c")
	for i := range knob {
		switch knob[i] {
		case 1: // reward: both requests scale linearly (Corollary 1)
			if math.Abs(elasE[i]-1) > 0.02 || math.Abs(elasC[i]-1) > 0.02 {
				t.Errorf("reward elasticities (%g, %g), want (1, 1)", elasE[i], elasC[i])
			}
		case 4: // budget: interior equilibrium ignores slack budgets
			if math.Abs(elasE[i]) > 1e-3 || math.Abs(elasC[i]) > 1e-3 {
				t.Errorf("budget elasticities (%g, %g), want ≈0", elasE[i], elasC[i])
			}
		case 5: // edge price: e* ∝ 1/(P_e − P_c) ⇒ elasticity ≈ −P_e/(P_e−P_c) = −2
			if math.Abs(elasE[i]+2) > 0.15 {
				t.Errorf("edge-price elasticity %g, want ≈−2", elasE[i])
			}
		}
	}
}

func TestSelfishShapes(t *testing.T) {
	res := mustRun(t, "selfish", quickCfg())
	tab := res.Tables[0]
	alphas := column(t, tab, "alpha")
	simulated := column(t, tab, "simulated_share")
	formula := column(t, tab, "eyal_sirer_share")
	profitable := column(t, tab, "profitable")
	for i := range alphas {
		if math.Abs(simulated[i]-formula[i]) > 0.02 {
			t.Errorf("α=%g: simulated %g vs formula %g", alphas[i], simulated[i], formula[i])
		}
		wantProfit := 0.0
		if alphas[i] > 0.25 {
			wantProfit = 1
		}
		if profitable[i] != wantProfit {
			t.Errorf("α=%g: profitable=%g, want %g (threshold 0.25 at γ=0.5)",
				alphas[i], profitable[i], wantProfit)
		}
	}
	assertMonotone(t, formula, true, 1e-9, "ES revenue vs share")
}

func TestRetargetShapes(t *testing.T) {
	res := mustRun(t, "retarget", quickCfg())
	tab := res.Tables[0]
	epochs := column(t, tab, "epoch")
	intervals := column(t, tab, "mean_interval_s")
	for i, e := range epochs {
		switch {
		case e == 5: // shock epoch: difficulty lags the 4x power jump
			if intervals[i] > 300 {
				t.Errorf("shock epoch interval %g, want ≈150", intervals[i])
			}
		case e >= 8: // recovered (quick mode uses small, noisy windows:
			// each retarget inherits the previous window's ±7% sampling
			// error, so allow a generous band)
			if math.Abs(intervals[i]-600) > 220 {
				t.Errorf("epoch %g: interval %g did not recover to 600", e, intervals[i])
			}
		case e >= 1 && e < 5: // steady state before the shock
			if math.Abs(intervals[i]-600) > 220 {
				t.Errorf("epoch %g: interval %g off target pre-shock", e, intervals[i])
			}
		}
	}
}

func TestDegradedShapes(t *testing.T) {
	res := mustRun(t, "degraded", quickCfg())
	tab := res.Tables[0]
	paper := column(t, tab, "paper_W")
	phys := column(t, tab, "physical_W")
	simulated := column(t, tab, "simulated_W")
	for i := range paper {
		// Simulation must match the exact physical probability.
		if math.Abs(simulated[i]-phys[i]) > 0.015 {
			t.Errorf("row %d: simulated %g vs physical %g", i, simulated[i], phys[i])
		}
		// The paper's constant-β formulas understate the degraded
		// miner's chances (only edge rivals matter physically).
		if paper[i] >= phys[i] {
			t.Errorf("row %d: paper W %g not below physical %g", i, paper[i], phys[i])
		}
		if paper[i] <= 0 || phys[i] >= 1 {
			t.Errorf("row %d: probabilities out of range", i)
		}
	}
	// Rejection is strictly worse than transfer in every accounting.
	if paper[1] >= paper[0] || phys[1] >= phys[0] {
		t.Error("rejection should be worse than transfer")
	}
}

func TestHeadlineAllClaimsHold(t *testing.T) {
	res := mustRun(t, "headline", quickCfg())
	tab := res.Tables[0]
	holds := column(t, tab, "holds")
	claims := column(t, tab, "claim")
	if len(holds) != 8 {
		t.Fatalf("want 8 claims, got %d", len(holds))
	}
	for i, h := range holds {
		if h != 1 {
			t.Errorf("claim %g does not hold (lhs %g, rhs %g)", claims[i], tab.Rows[i][1], tab.Rows[i][2])
		}
	}
}

func TestFig9ReplicatedShapes(t *testing.T) {
	res := mustRun(t, "fig9rep", quickCfg())
	if len(res.Tables) != 2 {
		t.Fatalf("want mean+std tables, got %d", len(res.Tables))
	}
	mean, std := res.Tables[0], res.Tables[1]
	if mean.ID != "fig9rep_mean" || std.ID != "fig9rep_std" {
		t.Errorf("IDs = %s, %s", mean.ID, std.ID)
	}
	// Model columns are deterministic: zero variance across seeds.
	for _, name := range []string{"E_fixed", "E_dynamic"} {
		col := column(t, std, name)
		for i, v := range col {
			if v > 1e-9 {
				t.Errorf("%s row %d: model column has nonzero std %g", name, i, v)
			}
		}
	}
	// RL columns scatter, but their means track the model within grid
	// tolerance in quick mode too.
	fixed := column(t, mean, "E_fixed")
	rlFixed := column(t, mean, "E_rl_fixed")
	for i := range fixed {
		if math.Abs(rlFixed[i]-fixed[i]) > 0.6*fixed[i]+8 {
			t.Errorf("row %d: mean RL %g far from model %g", i, rlFixed[i], fixed[i])
		}
	}
}

// TestGossipPropagationDelayGolden pins the gossip table's spread columns
// bit for bit: the overlay's draw order (ring links, then chords) and the
// per-source quantile mean both feed them, so any change to either moves
// these values.
func TestGossipPropagationDelayGolden(t *testing.T) {
	for _, tc := range []struct {
		cfg      Config
		d50, d90 []float64
	}{
		{
			cfg: Config{Seed: 1},
			d50: []float64{904.7087761407244, 37.154572978418244, 20.925349717998323, 12.707569457299083, 6.241230912421075},
			d90: []float64{1641.896893096391, 55.40278215463805, 30.006320926413434, 17.4089738909348, 8.587821266593439},
		},
		{
			cfg: quickCfg(),
			d50: []float64{872.5326998503233, 37.545975183902144, 22.934227348698343, 13.577613097906802, 7.267239993605972},
			d90: []float64{1539.3256455591438, 54.142240404772046, 33.70887022651884, 21.272944674241757, 9.205979246388065},
		},
	} {
		tab := mustRun(t, "gossip", tc.cfg).Tables[0]
		for name, want := range map[string][]float64{"d50_s": tc.d50, "d90_s": tc.d90} {
			got := column(t, tab, name)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("seed %d quick %v %s = %v, want %v", tc.cfg.Seed, tc.cfg.Quick, name, got, want)
			}
		}
	}
}
