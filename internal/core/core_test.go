package core

import (
	"math"
	"testing"

	"minegame/internal/game"
	"minegame/internal/miner"
	"minegame/internal/netmodel"
)

func testConfig() Config {
	return Config{
		N:            5,
		Budgets:      []float64{200},
		Reward:       1000,
		Beta:         0.2,
		SatisfyProb:  0.7,
		Mode:         netmodel.Connected,
		EdgeCapacity: 60,
		CostE:        2,
		CostC:        1,
	}
}

func testPrices() Prices { return Prices{Edge: 8, Cloud: 4} }

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
		ok     bool
	}{
		{"valid", func(*Config) {}, true},
		{"one miner", func(c *Config) { c.N = 1 }, false},
		{"budget count", func(c *Config) { c.Budgets = []float64{1, 2} }, false},
		{"zero budget", func(c *Config) { c.Budgets = []float64{0} }, false},
		{"zero reward", func(c *Config) { c.Reward = 0 }, false},
		{"beta one", func(c *Config) { c.Beta = 1 }, false},
		{"h out of range", func(c *Config) { c.SatisfyProb = -0.1 }, false},
		{"bad mode", func(c *Config) { c.Mode = 0 }, false},
		{"standalone no capacity", func(c *Config) { c.Mode = netmodel.Standalone; c.EdgeCapacity = 0 }, false},
		{"negative cost", func(c *Config) { c.CostE = -1 }, false},
		{"heterogeneous ok", func(c *Config) { c.Budgets = []float64{10, 20, 30, 40, 50} }, true},
		// Non-finite inputs: NaN satisfies no inequality, so naive x <= 0
		// range checks waved it through (pinned from fuzzing minimizations).
		{"nan budget", func(c *Config) { c.Budgets = []float64{math.NaN()} }, false},
		{"inf budget", func(c *Config) { c.Budgets = []float64{math.Inf(1)} }, false},
		{"nan reward", func(c *Config) { c.Reward = math.NaN() }, false},
		{"inf reward", func(c *Config) { c.Reward = math.Inf(1) }, false},
		{"nan beta", func(c *Config) { c.Beta = math.NaN() }, false},
		{"nan satisfy prob", func(c *Config) { c.SatisfyProb = math.NaN() }, false},
		{"nan cost", func(c *Config) { c.CostC = math.NaN() }, false},
		{"nan capacity standalone", func(c *Config) { c.Mode = netmodel.Standalone; c.EdgeCapacity = math.NaN() }, false},
		// +Inf capacity is the documented uncapacitated-ESP sentinel the
		// standalone leader solver relies on — it must stay valid.
		{"inf capacity standalone", func(c *Config) { c.Mode = netmodel.Standalone; c.EdgeCapacity = math.Inf(1) }, true},
		// Per-miner fork rates: N entries in [0, 1), connected mode only.
		{"betas ok", func(c *Config) { c.Betas = []float64{0, 0.1, 0.2, 0.3, 0.4} }, true},
		{"betas count", func(c *Config) { c.Betas = []float64{0.1, 0.2} }, false},
		{"betas empty", func(c *Config) { c.Betas = []float64{} }, false},
		{"betas one", func(c *Config) { c.Betas = []float64{0.1, 0.1, 1, 0.1, 0.1} }, false},
		{"betas negative", func(c *Config) { c.Betas = []float64{0.1, -0.1, 0.1, 0.1, 0.1} }, false},
		{"betas nan", func(c *Config) { c.Betas = []float64{0.1, 0.1, 0.1, math.NaN(), 0.1} }, false},
		{"betas standalone", func(c *Config) {
			c.Mode = netmodel.Standalone
			c.Betas = []float64{0.1, 0.1, 0.1, 0.1, 0.1}
		}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := testConfig()
			tt.mutate(&c)
			if err := c.Validate(); (err == nil) != tt.ok {
				t.Errorf("Validate() = %v, want ok=%v", err, tt.ok)
			}
		})
	}
}

func TestConfigBudgetAndHomogeneous(t *testing.T) {
	c := testConfig()
	if !c.Homogeneous() || c.Budget(3) != 200 {
		t.Error("single-entry budgets must be homogeneous")
	}
	c.Budgets = []float64{10, 10, 10, 10, 10}
	if !c.Homogeneous() || c.Budget(2) != 10 {
		t.Error("identical budgets must be homogeneous")
	}
	c.Budgets = []float64{10, 20, 10, 10, 10}
	if c.Homogeneous() {
		t.Error("distinct budgets must not be homogeneous")
	}
	if c.Budget(1) != 20 {
		t.Error("per-miner budget lookup")
	}
}

func TestConfigNetwork(t *testing.T) {
	c := testConfig()
	n := c.Network(testPrices(), 600)
	if err := n.Validate(); err != nil {
		t.Fatalf("network invalid: %v", err)
	}
	if math.Abs(n.Beta()-c.Beta) > 1e-9 {
		t.Errorf("network beta = %g, want %g", n.Beta(), c.Beta)
	}
	if n.ESP.Price != 8 || n.CSP.Price != 4 {
		t.Error("prices not propagated")
	}
}

func TestSolveMinerEquilibriumConnectedMatchesClosedForm(t *testing.T) {
	cfg := testConfig()
	p := testPrices()
	// Cold start: the default solve seeds from the very closed form this
	// test cross-checks, which would make the comparison circular.
	eq, err := SolveMinerEquilibriumFrom(cfg, p, game.NEOptions{}, cfg.ColdStart(p))
	if err != nil {
		t.Fatalf("SolveMinerEquilibrium: %v", err)
	}
	if !eq.Converged {
		t.Fatalf("not converged: %+v", eq)
	}
	want, err := miner.HomogeneousConnected(cfg.Params(p), cfg.N, 200)
	if err != nil {
		t.Fatalf("closed form: %v", err)
	}
	for i, r := range eq.Requests {
		if math.Abs(r.E-want.Request.E) > 1e-3 || math.Abs(r.C-want.Request.C) > 1e-3 {
			t.Errorf("miner %d: %+v, closed form %+v", i, r, want.Request)
		}
	}
	if math.Abs(eq.EdgeDemand-5*want.Request.E) > 5e-3 {
		t.Errorf("edge demand = %g", eq.EdgeDemand)
	}
	if dev := Deviation(cfg, p, eq.Requests); dev > 1e-3 {
		t.Errorf("deviation at equilibrium = %g", dev)
	}
	if len(eq.Utilities) != cfg.N || len(eq.WinProbs) != cfg.N {
		t.Error("summary lengths")
	}
}

func TestSolveMinerEquilibriumHeterogeneousBudgets(t *testing.T) {
	cfg := testConfig()
	cfg.Budgets = []float64{20, 60, 100, 150, 200}
	p := testPrices()
	eq, err := SolveMinerEquilibrium(cfg, p, game.NEOptions{})
	if err != nil {
		t.Fatalf("SolveMinerEquilibrium: %v", err)
	}
	if !eq.Converged {
		t.Fatalf("not converged after %d iterations (delta unknown)", eq.Iterations)
	}
	// Budgets bind for the poor miners: spending must not exceed budget,
	// and total requests must be non-decreasing in budget.
	params := cfg.Params(p)
	prevTotal := -1.0
	for i, r := range eq.Requests {
		if spend := params.Spend(r); spend > cfg.Budget(i)+1e-6 {
			t.Errorf("miner %d overspends: %g > %g", i, spend, cfg.Budget(i))
		}
		total := r.E + r.C
		if total < prevTotal-1e-6 {
			t.Errorf("requests not monotone in budget: miner %d total %g < %g", i, total, prevTotal)
		}
		prevTotal = total
	}
	if dev := Deviation(cfg, p, eq.Requests); dev > 1e-3 {
		t.Errorf("deviation = %g", dev)
	}
	// Theorem 1 sanity on the solved profile.
	if err := ValidateWinProbs(cfg.Beta, eq.Requests); err != nil {
		t.Error(err)
	}
}

func TestSolveMinerEquilibriumStandaloneSlackCapacity(t *testing.T) {
	cfg := testConfig()
	cfg.Mode = netmodel.Standalone
	cfg.EdgeCapacity = 60 // unconstrained demand is 40
	p := testPrices()
	// Cold start keeps the cross-check against the closed form honest.
	eq, err := SolveMinerEquilibriumFrom(cfg, p, game.NEOptions{}, cfg.ColdStart(p))
	if err != nil {
		t.Fatalf("SolveMinerEquilibrium: %v", err)
	}
	if eq.Multiplier != 0 {
		t.Errorf("multiplier = %g, want 0 with slack capacity", eq.Multiplier)
	}
	want, err := miner.HomogeneousStandalone(cfg.Params(p), cfg.N, cfg.EdgeCapacity)
	if err != nil {
		t.Fatalf("closed form: %v", err)
	}
	if math.Abs(eq.EdgeDemand-5*want.Request.E) > 0.05 {
		t.Errorf("edge demand = %g, want %g", eq.EdgeDemand, 5*want.Request.E)
	}
	if math.Abs(eq.CloudDemand-5*want.Request.C) > 0.2 {
		t.Errorf("cloud demand = %g, want %g", eq.CloudDemand, 5*want.Request.C)
	}
}

func TestSolveMinerEquilibriumStandaloneBindingCapacity(t *testing.T) {
	cfg := testConfig()
	cfg.Mode = netmodel.Standalone
	cfg.EdgeCapacity = 20 // unconstrained demand is 40
	p := testPrices()
	// Cold start keeps the cross-check against the closed form honest.
	eq, err := SolveMinerEquilibriumFrom(cfg, p, game.NEOptions{}, cfg.ColdStart(p))
	if err != nil {
		t.Fatalf("SolveMinerEquilibrium: %v", err)
	}
	if math.Abs(eq.EdgeDemand-20) > 0.01 {
		t.Errorf("edge demand = %g, want capacity 20", eq.EdgeDemand)
	}
	if eq.Multiplier <= 0 {
		t.Errorf("multiplier = %g, want positive shadow price", eq.Multiplier)
	}
	want, err := miner.HomogeneousStandalone(cfg.Params(p), cfg.N, cfg.EdgeCapacity)
	if err != nil {
		t.Fatalf("closed form: %v", err)
	}
	// The numeric variational solution must agree with Table II's
	// capacity-binding closed form, including the shadow price.
	if math.Abs(eq.Requests[0].E-want.Request.E) > 0.01 {
		t.Errorf("e* = %g, want %g", eq.Requests[0].E, want.Request.E)
	}
	if math.Abs(eq.Requests[0].C-want.Request.C) > 0.2 {
		t.Errorf("c* = %g, want %g", eq.Requests[0].C, want.Request.C)
	}
	if math.Abs(eq.Multiplier-want.Multiplier) > 0.05*want.Multiplier+0.01 {
		t.Errorf("multiplier = %g, closed form %g", eq.Multiplier, want.Multiplier)
	}
}

func TestSolveMinerGNE(t *testing.T) {
	cfg := testConfig()
	cfg.Mode = netmodel.Standalone
	cfg.EdgeCapacity = 20
	p := testPrices()
	eq, err := SolveMinerGNE(cfg, p, game.NEOptions{})
	if err != nil {
		t.Fatalf("SolveMinerGNE: %v", err)
	}
	if !eq.Converged {
		t.Fatalf("GNE iteration did not converge (%d iterations)", eq.Iterations)
	}
	if eq.EdgeDemand > cfg.EdgeCapacity+1e-6 {
		t.Errorf("edge demand %g exceeds capacity", eq.EdgeDemand)
	}
	// A GNE keeps the capacity fully used when it is scarce.
	if eq.EdgeDemand < cfg.EdgeCapacity-0.5 {
		t.Errorf("edge demand %g leaves scarce capacity unused", eq.EdgeDemand)
	}
}

func TestSolveMinerGNEWrongMode(t *testing.T) {
	cfg := testConfig()
	if _, err := SolveMinerGNE(cfg, testPrices(), game.NEOptions{}); err == nil {
		t.Error("want error in connected mode")
	}
}

func TestSolveMinerEquilibriumInvalidInputs(t *testing.T) {
	cfg := testConfig()
	cfg.N = 1
	if _, err := SolveMinerEquilibrium(cfg, testPrices(), game.NEOptions{}); err == nil {
		t.Error("want config error")
	}
	cfg = testConfig()
	if _, err := SolveMinerEquilibrium(cfg, Prices{Edge: 0, Cloud: 4}, game.NEOptions{}); err == nil {
		t.Error("want params error for zero price")
	}
}

func TestValidateWinProbs(t *testing.T) {
	prof := miner.Profile{{E: 1, C: 2}, {E: 3, C: 4}}
	if err := ValidateWinProbs(0.3, prof); err != nil {
		t.Errorf("valid profile rejected: %v", err)
	}
}
