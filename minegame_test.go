package minegame_test

// Integration tests exercising the public facade end to end: the full
// game pipeline, the substrate round trip, and the experiment registry.

import (
	"math"
	"testing"

	"minegame"
)

func TestFacadeFullPipelineConnected(t *testing.T) {
	cfg := defaultBenchConfig()
	res, err := minegame.SolveStackelberg(cfg, minegame.StackelbergOptions{})
	if err != nil {
		t.Fatalf("SolveStackelberg: %v", err)
	}
	if !res.Converged || res.ProfitE <= 0 || res.ProfitC <= 0 {
		t.Fatalf("implausible result: %+v", res)
	}
	// The follower stage must be deviation-free.
	if dev := minegame.Deviation(cfg, res.Prices, res.Follower.Requests); dev > 1e-3 {
		t.Errorf("profitable deviation of %g at equilibrium", dev)
	}
	// A truncated profile is no equilibrium of the market, however small
	// its rows' gains would be.
	if dev := minegame.Deviation(cfg, res.Prices, res.Follower.Requests[1:]); !math.IsInf(dev, 1) {
		t.Errorf("truncated profile: Deviation %g, want +Inf", dev)
	}
	// The closed form must agree with the solved follower stage.
	sol, err := minegame.HomogeneousConnected(cfg.Params(res.Prices), cfg.N, cfg.Budget(0))
	if err != nil {
		t.Fatalf("HomogeneousConnected: %v", err)
	}
	got := res.Follower.Requests[0]
	if math.Abs(got.E-sol.Request.E) > 0.01 || math.Abs(got.C-sol.Request.C) > 0.05 {
		t.Errorf("follower %+v vs closed form %+v", got, sol.Request)
	}
}

func TestFacadeModeComparison(t *testing.T) {
	cfg := defaultBenchConfig()
	cfg.EdgeCapacity = 25
	cfg.Budgets = []float64{1000}
	cmp, err := minegame.CompareModes(cfg, minegame.StackelbergOptions{})
	if err != nil {
		t.Fatalf("CompareModes: %v", err)
	}
	if cmp.Standalone.ProfitE <= cmp.Connected.ProfitE {
		t.Errorf("standalone ESP profit %g should exceed connected %g",
			cmp.Standalone.ProfitE, cmp.Connected.ProfitE)
	}
	if math.Abs(cmp.Standalone.Follower.EdgeDemand-25) > 1.5 {
		t.Errorf("standalone ESP should sell out: E = %g", cmp.Standalone.Follower.EdgeDemand)
	}
}

func TestFacadeChainSubstrate(t *testing.T) {
	race := minegame.RaceConfig{
		Interval:   600,
		CloudDelay: 120,
		Allocations: []minegame.Allocation{
			{MinerID: 1, Edge: 6, Cloud: 4},
			{MinerID: 2, Edge: 2, Cloud: 12},
		},
	}
	stats, err := minegame.SimulateRounds(race, 20000, 5)
	if err != nil {
		t.Fatalf("SimulateRounds: %v", err)
	}
	beta := minegame.BetaEdge(8, 24, 120, 600)
	want := minegame.WinProbsFull(beta, []minegame.Request{{E: 6, C: 4}, {E: 2, C: 12}})
	for i, id := range []int{1, 2} {
		if math.Abs(stats.WinProb(id)-want[i]) > 0.015 {
			t.Errorf("miner %d: empirical W %g vs Eq.6 %g", id, stats.WinProb(id), want[i])
		}
	}
	// Ledger round trip.
	net, err := minegame.NewMiningNetwork(race, 6)
	if err != nil {
		t.Fatalf("NewMiningNetwork: %v", err)
	}
	if _, err := net.Grow(500); err != nil {
		t.Fatalf("Grow: %v", err)
	}
	if net.Ledger().Height() != 500 {
		t.Errorf("height = %d, want 500", net.Ledger().Height())
	}
}

func TestFacadePopulationUncertainty(t *testing.T) {
	p := minegame.MinerParams{Reward: 1000, Beta: 0.2, H: 0.7, PriceE: 8, PriceC: 4}
	fixed, err := minegame.SolvePopulationEquilibrium(p, minegame.FixedPopulation(10), 200, minegame.PopulationOptions{})
	if err != nil {
		t.Fatalf("fixed: %v", err)
	}
	pmf, err := minegame.PopulationModel{Mu: 10, Sigma: 2}.PMF()
	if err != nil {
		t.Fatalf("PMF: %v", err)
	}
	dyn, err := minegame.SolvePopulationEquilibrium(p, pmf, 200, minegame.PopulationOptions{})
	if err != nil {
		t.Fatalf("dynamic: %v", err)
	}
	if dyn.Request.E <= fixed.Request.E {
		t.Errorf("uncertainty should inflate edge demand: %g vs %g", dyn.Request.E, fixed.Request.E)
	}
}

// TestFacadePopulationRejectForm: the reject form (Eq. 8) is reachable
// through the exported constants, the transfer constant is the default,
// and the two forms give different equilibria.
func TestFacadePopulationRejectForm(t *testing.T) {
	p := minegame.MinerParams{Reward: 1000, Beta: 0.2, H: 0.7, PriceE: 8, PriceC: 4}
	pmf, err := minegame.PopulationModel{Mu: 10, Sigma: 2}.PMF()
	if err != nil {
		t.Fatalf("PMF: %v", err)
	}
	solve := func(form minegame.Degraded) minegame.PopulationEquilibrium {
		t.Helper()
		eq, err := minegame.SolvePopulationEquilibrium(p, pmf, 200, minegame.PopulationOptions{Form: form})
		if err != nil {
			t.Fatalf("form %d: %v", form, err)
		}
		if !eq.Converged {
			t.Fatalf("form %d did not converge", form)
		}
		return eq
	}
	def, transfer, reject := solve(0), solve(minegame.DegradedTransfer), solve(minegame.DegradedReject)
	if def != transfer {
		t.Errorf("default form %+v differs from DegradedTransfer %+v", def, transfer)
	}
	if reject.Request == transfer.Request {
		t.Errorf("reject and transfer forms gave the same request %+v", reject.Request)
	}
}

func TestFacadeExperimentRegistry(t *testing.T) {
	if len(minegame.Experiments()) < 12 {
		t.Fatalf("registry lists %d experiments", len(minegame.Experiments()))
	}
	res, err := minegame.RunExperiment("thm1", minegame.ExperimentConfig{Seed: 1, Quick: true})
	if err != nil {
		t.Fatalf("RunExperiment: %v", err)
	}
	if len(res.Tables) == 0 {
		t.Fatal("no tables")
	}
	if _, err := minegame.RunExperiment("bogus", minegame.ExperimentConfig{}); err == nil {
		t.Error("want error for unknown experiment")
	}
}

// TestFacadeTopologyPipeline runs the whole topology feedback loop
// through the public surface: build a peer graph, measure per-miner fork
// rates, solve the two-stage game under them, and certify the result.
func TestFacadeTopologyPipeline(t *testing.T) {
	tp, err := minegame.TopoStar([]minegame.TopoNode{
		{Hashrate: 2, Location: minegame.TopoEdge},
		{Hashrate: 1, Location: minegame.TopoEdge},
		{Hashrate: 1, Location: minegame.TopoCloud},
		{Hashrate: 1, Location: minegame.TopoCloud},
		{Hashrate: 1, Location: minegame.TopoCloud},
	}, []float64{10, 60, 90, 120})
	if err != nil {
		t.Fatalf("TopoStar: %v", err)
	}
	res, err := minegame.EstimateTopoBetas(tp, minegame.TopoConfig{
		Interval: 600, Blocks: 400, Quorum: 0.6,
	}, 3, 2)
	if err != nil {
		t.Fatalf("EstimateTopoBetas: %v", err)
	}
	betas := res.Betas()
	if len(betas) != 5 {
		t.Fatalf("got %d betas, want 5", len(betas))
	}
	// The hub hears everyone fastest; the farthest spoke forks most.
	if betas[0] >= betas[4] {
		t.Errorf("hub beta %g should sit below the far spoke's %g", betas[0], betas[4])
	}
	cfg := defaultBenchConfig()
	cfg.Betas = betas
	sres, err := minegame.SolveStackelberg(cfg, minegame.StackelbergOptions{})
	if err != nil {
		t.Fatalf("SolveStackelberg: %v", err)
	}
	cert, err := minegame.CertifyStackelberg(cfg, sres, minegame.VerifyOptions{})
	if err != nil {
		t.Fatalf("CertifyStackelberg: %v", err)
	}
	if !cert.OK {
		t.Fatalf("certificate failed: %v", cert.Err())
	}
}
