package minegame_test

// Coverage for the facade entry points not exercised by the pipeline
// tests: extensions, substrates and the RL surface.

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"minegame"
)

func TestFacadeSolveMinerGNE(t *testing.T) {
	cfg := defaultBenchConfig()
	cfg.Mode = minegame.Standalone
	cfg.EdgeCapacity = 20
	eq, err := minegame.SolveMinerGNE(cfg, minegame.Prices{Edge: 8, Cloud: 4}, minegame.NEOptions{})
	if err != nil {
		t.Fatalf("SolveMinerGNE: %v", err)
	}
	if eq.EdgeDemand > 20+1e-6 {
		t.Errorf("GNE violates capacity: %g", eq.EdgeDemand)
	}
}

func TestFacadeSelfConsistentBeta(t *testing.T) {
	cfg := defaultBenchConfig()
	res, err := minegame.SolveSelfConsistentBeta(cfg, minegame.Prices{Edge: 8, Cloud: 4}, 134, 600, minegame.NEOptions{})
	if err != nil {
		t.Fatalf("SolveSelfConsistentBeta: %v", err)
	}
	if res.Beta >= res.ExogenousBeta {
		t.Errorf("β* = %g not below exogenous %g", res.Beta, res.ExogenousBeta)
	}
}

func TestFacadeEndogenousTransfer(t *testing.T) {
	cfg := defaultBenchConfig()
	res, err := minegame.SolveEndogenousTransfer(cfg, minegame.Prices{Edge: 8, Cloud: 4}, 30, minegame.NEOptions{})
	if err != nil {
		t.Fatalf("SolveEndogenousTransfer: %v", err)
	}
	if res.SatisfyProb <= 0 || res.SatisfyProb >= 1 {
		t.Errorf("h* = %g outside (0,1)", res.SatisfyProb)
	}
}

func TestFacadeSimulateDifficulty(t *testing.T) {
	stats, err := minegame.SimulateDifficulty(
		minegame.DifficultyConfig{TargetInterval: 600, Window: 200, InitialDifficulty: 600 * 20},
		func(int) float64 { return 20 }, 6, 3)
	if err != nil {
		t.Fatalf("SimulateDifficulty: %v", err)
	}
	if len(stats) != 6 {
		t.Fatalf("epochs = %d", len(stats))
	}
	for _, s := range stats[1:] {
		if math.Abs(s.MeanInterval-600) > 150 {
			t.Errorf("epoch %d: interval %g far from target", s.Epoch, s.MeanInterval)
		}
	}
}

func TestFacadeSolveMultiESP(t *testing.T) {
	eq, err := minegame.SolveMultiESP(minegame.MultiESPConfig{
		N:      5,
		Budget: 200,
		Reward: 1000,
		Beta:   0.2,
		ESPs:   []minegame.MultiESPOffer{{Price: 8, H: 0.7}},
		PriceC: 4,
	})
	if err != nil {
		t.Fatalf("SolveMultiESP: %v", err)
	}
	if !eq.Converged {
		t.Fatal("not converged")
	}
	if math.Abs(eq.Requests[0][0]-5.6) > 0.01 || math.Abs(eq.Requests[0][1]-26.4) > 0.05 {
		t.Errorf("K=1 equilibrium %v, want (5.6, 26.4)", eq.Requests[0])
	}
}

func TestFacadeHomogeneousStandalone(t *testing.T) {
	p := minegame.MinerParams{Reward: 1000, Beta: 0.2, H: 0.7, PriceE: 8, PriceC: 4}
	sol, err := minegame.HomogeneousStandalone(p, 5, 25)
	if err != nil {
		t.Fatalf("HomogeneousStandalone: %v", err)
	}
	if !sol.CapacityBinding || math.Abs(5*sol.Request.E-25) > 1e-9 {
		t.Errorf("solution %+v, want capacity-bound at 25", sol)
	}
}

func TestFacadeDelayForBeta(t *testing.T) {
	d := minegame.DelayForBeta(0.2, 600)
	if got := minegame.CollisionCDF(d, 600); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("round trip β = %g, want 0.2", got)
	}
}

func TestFacadeRLSurface(t *testing.T) {
	grid, err := minegame.NewActionGrid(8, 4, 200, 5, 5)
	if err != nil {
		t.Fatalf("NewActionGrid: %v", err)
	}
	pool := make([]minegame.Learner, 3)
	for i := range pool {
		if pool[i], err = minegame.NewEpsilonGreedy(len(grid.Actions), minegame.EpsilonGreedyConfig{}); err != nil {
			t.Fatalf("NewEpsilonGreedy: %v", err)
		}
	}
	cfg := defaultBenchConfig()
	env := minegame.ModelEnv{Net: cfg.Network(minegame.Prices{Edge: 8, Cloud: 4}, 600), Reward: 1000}
	tr, err := minegame.NewTrainer(grid, env, minegame.FixedPopulation(3), pool, 1)
	if err != nil {
		t.Fatalf("NewTrainer: %v", err)
	}
	if err := tr.Train(200); err != nil {
		t.Fatalf("Train: %v", err)
	}
	mean := tr.MeanGreedy()
	if mean.E < 0 || mean.C < 0 {
		t.Errorf("mean greedy %+v", mean)
	}
}

func TestFacadeLearnerConstructors(t *testing.T) {
	for name, build := range map[string]func() (minegame.Learner, error){
		"gradient": func() (minegame.Learner, error) { return minegame.NewGradientBandit(4, 0.05) },
		"ucb1":     func() (minegame.Learner, error) { return minegame.NewUCB1(4, 2, 10) },
		"exp3":     func() (minegame.Learner, error) { return minegame.NewExp3(4, 0.1, 10) },
	} {
		l, err := build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		l.Update(2, 5)
		if g := l.Greedy(); g < 0 || g > 3 {
			t.Errorf("%s: greedy %d out of range", name, g)
		}
	}
}

func TestFacadeSelfishMining(t *testing.T) {
	stats, err := minegame.SimulateSelfishMining(minegame.SelfishConfig{
		Alpha: 0.35, Gamma: 0.5, Blocks: 50000,
	}, 9)
	if err != nil {
		t.Fatalf("SimulateSelfishMining: %v", err)
	}
	want := minegame.SelfishRevenueShare(0.35, 0.5)
	if math.Abs(stats.RevenueShare()-want) > 0.02 {
		t.Errorf("share %g, formula %g", stats.RevenueShare(), want)
	}
	if minegame.SelfishThreshold(0) != 1.0/3.0 {
		t.Error("threshold(0) != 1/3")
	}
}

func TestFacadeGossip(t *testing.T) {
	g, err := minegame.NewGossipNetwork(minegame.GossipConfig{Nodes: 50, Degree: 3, MeanLatency: 2}, 4)
	if err != nil {
		t.Fatalf("NewGossipNetwork: %v", err)
	}
	d, err := g.PropagationDelay(0.9, 10, minegame.GossipRNG(4))
	if err != nil {
		t.Fatalf("PropagationDelay: %v", err)
	}
	if d <= 0 {
		t.Errorf("delay %g", d)
	}
	// Golden value: the overlay's draw order and the quantile mean are
	// both pinned bit for bit.
	if want := 2.1966480503860644; d != want { //lint:allow floateq golden value recorded from the seeded overlay
		t.Errorf("delay %v, want golden %v", d, want)
	}
}

func TestFacadeServingExports(t *testing.T) {
	// A resident DemandCache shared across repeat solves of the same
	// market turns the second solve into pure cache hits without
	// changing a single field of the result.
	cache := minegame.NewDemandCache(0, nil)
	cfg := defaultBenchConfig()
	opts := minegame.StackelbergOptions{Workers: 1, DemandCache: cache}
	first, err := minegame.SolveStackelberg(cfg, opts)
	if err != nil {
		t.Fatalf("cold solve: %v", err)
	}
	second, err := minegame.SolveStackelberg(cfg, opts)
	if err != nil {
		t.Fatalf("warm solve: %v", err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Error("warm-start repeat changed the result")
	}
	if stats := cache.Stats(); stats.Hits == 0 || stats.Entries == 0 {
		t.Errorf("resident cache never hit: %+v", stats)
	}

	// A pre-canceled context surfaces the exported sentinel.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := minegame.SolveStackelberg(cfg, minegame.StackelbergOptions{Ctx: ctx}); !errors.Is(err, minegame.ErrSolveCanceled) {
		t.Errorf("canceled solve error = %v, want ErrSolveCanceled", err)
	}

	// The daemon constructor wires up a ready server.
	s, err := minegame.NewServer(minegame.ServeConfig{})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	if !s.Ready() || s.Handler() == nil {
		t.Error("fresh server not ready")
	}
}
