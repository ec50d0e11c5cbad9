package minegame_test

// One benchmark per paper artifact (tables AND figures), each regenerating
// the corresponding evaluation output through the experiment harness,
// plus micro-benchmarks of the core solver operations. The RL-backed
// artifacts (fig9a/fig9b) run at the reduced Quick scale so a -bench=.
// sweep completes in minutes; every other artifact runs at full scale.

import (
	"io"
	"testing"

	"minegame"
)

func benchExperiment(b *testing.B, id string, quick bool) {
	b.Helper()
	cfg := minegame.ExperimentConfig{Seed: 1, Quick: quick}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := minegame.RunExperiment(id, cfg)
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if len(res.Tables) == 0 {
			b.Fatalf("%s produced no tables", id)
		}
	}
}

func BenchmarkFig2Collision(b *testing.B)    { benchExperiment(b, "fig2", false) }
func BenchmarkFig3Population(b *testing.B)   { benchExperiment(b, "fig3", false) }
func BenchmarkFig4MinerNE(b *testing.B)      { benchExperiment(b, "fig4", false) }
func BenchmarkFig5Revenue(b *testing.B)      { benchExperiment(b, "fig5", false) }
func BenchmarkFig6Standalone(b *testing.B)   { benchExperiment(b, "fig6", false) }
func BenchmarkFig7Budget(b *testing.B)       { benchExperiment(b, "fig7", false) }
func BenchmarkFig8Pricing(b *testing.B)      { benchExperiment(b, "fig8", false) }
func BenchmarkFig9aUncertainty(b *testing.B) { benchExperiment(b, "fig9a", true) }
func BenchmarkFig9bVariance(b *testing.B)    { benchExperiment(b, "fig9b", true) }
func BenchmarkTable2ClosedForm(b *testing.B) { benchExperiment(b, "tab2", false) }
func BenchmarkTheorem1Validity(b *testing.B) { benchExperiment(b, "thm1", false) }
func BenchmarkSimWinProb(b *testing.B)       { benchExperiment(b, "simw", true) }

// Ablations of the reproduction's design choices (DESIGN.md §2).

func BenchmarkAblationBeta(b *testing.B)           { benchExperiment(b, "ablbeta", false) }
func BenchmarkAblationErlangH(b *testing.B)        { benchExperiment(b, "ablh", false) }
func BenchmarkAblationDiscretization(b *testing.B) { benchExperiment(b, "abldisc", false) }
func BenchmarkAblationGNEConcept(b *testing.B)     { benchExperiment(b, "ablgne", false) }
func BenchmarkAblationLeaderStage(b *testing.B)    { benchExperiment(b, "abllead", false) }
func BenchmarkAblationLearners(b *testing.B)       { benchExperiment(b, "ablrl", true) }
func BenchmarkAblationEnvironments(b *testing.B)   { benchExperiment(b, "ablenv", true) }

// Integration-grade experiments.

func BenchmarkConvergenceDiagnostics(b *testing.B) { benchExperiment(b, "conv", false) }
func BenchmarkEndToEnd(b *testing.B)               { benchExperiment(b, "e2e", true) }
func BenchmarkAdaptivePricing(b *testing.B)        { benchExperiment(b, "adaptive", true) }
func BenchmarkHeterogeneousStackelberg(b *testing.B) {
	benchExperiment(b, "hetero", false)
}

// Micro-benchmarks of the building blocks.

func defaultBenchConfig() minegame.Config {
	return minegame.Config{
		N:            5,
		Budgets:      []float64{200},
		Reward:       1000,
		Beta:         0.2,
		SatisfyProb:  0.7,
		Mode:         minegame.Connected,
		EdgeCapacity: 60,
		CostE:        2,
		CostC:        1,
	}
}

func BenchmarkMinerEquilibriumConnected(b *testing.B) {
	cfg := defaultBenchConfig()
	p := minegame.Prices{Edge: 8, Cloud: 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := minegame.SolveMinerEquilibrium(cfg, p, minegame.NEOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMinerEquilibriumStandalone(b *testing.B) {
	cfg := defaultBenchConfig()
	cfg.Mode = minegame.Standalone
	cfg.EdgeCapacity = 20
	p := minegame.Prices{Edge: 8, Cloud: 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := minegame.SolveMinerEquilibrium(cfg, p, minegame.NEOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStackelbergConnected(b *testing.B) {
	cfg := defaultBenchConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := minegame.SolveStackelberg(cfg, minegame.StackelbergOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStackelbergStandalone(b *testing.B) {
	cfg := defaultBenchConfig()
	cfg.Mode = minegame.Standalone
	cfg.EdgeCapacity = 25
	cfg.Budgets = []float64{1000}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := minegame.SolveStackelberg(cfg, minegame.StackelbergOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkChainRound(b *testing.B) {
	race := minegame.RaceConfig{
		Interval:   600,
		CloudDelay: 120,
		Allocations: []minegame.Allocation{
			{MinerID: 1, Edge: 4, Cloud: 16},
			{MinerID: 2, Edge: 2, Cloud: 20},
			{MinerID: 3, Edge: 6, Cloud: 10},
		},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := minegame.SimulateRounds(race, 100, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// Instrumented-vs-uninstrumented pairs: the same solver and mining-race
// workloads with an enabled observer (trace to io.Discard) installed as
// the process default. Compared against the uninstrumented benchmarks
// above, they bound the observability overhead; with no observer the
// instrumentation must be within noise (see results/obs_overhead.md).

// withEnabledObserver installs an enabled default observer tracing to
// io.Discard for the duration of the benchmark.
func withEnabledObserver(b *testing.B) {
	b.Helper()
	o := minegame.NewObserver()
	o.SetTrace(io.Discard)
	prev := minegame.SetDefaultObserver(o)
	b.Cleanup(func() { minegame.SetDefaultObserver(prev) })
}

func BenchmarkMinerEquilibriumConnectedObserved(b *testing.B) {
	withEnabledObserver(b)
	cfg := defaultBenchConfig()
	p := minegame.Prices{Edge: 8, Cloud: 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := minegame.SolveMinerEquilibrium(cfg, p, minegame.NEOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkChainRoundObserved(b *testing.B) {
	withEnabledObserver(b)
	race := minegame.RaceConfig{
		Interval:   600,
		CloudDelay: 120,
		Allocations: []minegame.Allocation{
			{MinerID: 1, Edge: 4, Cloud: 16},
			{MinerID: 2, Edge: 2, Cloud: 20},
			{MinerID: 3, Edge: 6, Cloud: 10},
		},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := minegame.SimulateRounds(race, 100, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHomogeneousClosedForm(b *testing.B) {
	p := minegame.MinerParams{Reward: 1000, Beta: 0.2, H: 0.7, PriceE: 8, PriceC: 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := minegame.HomogeneousConnected(p, 5, 200); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPopulationEquilibrium(b *testing.B) {
	p := minegame.MinerParams{Reward: 1000, Beta: 0.2, H: 0.7, PriceE: 8, PriceC: 4}
	pmf, err := minegame.PopulationModel{Mu: 10, Sigma: 2}.PMF()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := minegame.SolvePopulationEquilibrium(p, pmf, 200, minegame.PopulationOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// Extension experiments.

func BenchmarkMultiESPCompetition(b *testing.B) { benchExperiment(b, "multiesp", false) }
func BenchmarkWealthDynamics(b *testing.B)      { benchExperiment(b, "wealth", true) }
func BenchmarkGossipTopology(b *testing.B)      { benchExperiment(b, "gossip", true) }
func BenchmarkSensitivity(b *testing.B)         { benchExperiment(b, "sens", false) }

// Fine-grained micro-benchmarks.

func BenchmarkWinProbsFull(b *testing.B) {
	profile := []minegame.Request{
		{E: 5.6, C: 26.4}, {E: 2, C: 40}, {E: 10, C: 5}, {E: 0, C: 20}, {E: 4, C: 15},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ws := minegame.WinProbsFull(0.2, profile); len(ws) != 5 {
			b.Fatal("bad result")
		}
	}
}

func BenchmarkErlangB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := minegame.ErlangB(30, 25); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMultiESPSolve(b *testing.B) {
	cfg := minegame.MultiESPConfig{
		N:      5,
		Budget: 200,
		Reward: 1000,
		Beta:   0.2,
		ESPs:   []minegame.MultiESPOffer{{Price: 9, H: 0.9}, {Price: 6, H: 0.4}},
		PriceC: 4,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := minegame.SolveMultiESP(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCollisionCDF(b *testing.B) {
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += minegame.CollisionCDF(float64(i%600), 600)
	}
	_ = sink
}
func BenchmarkSelfishMining(b *testing.B)   { benchExperiment(b, "selfish", true) }
func BenchmarkRetargeting(b *testing.B)     { benchExperiment(b, "retarget", false) }
func BenchmarkDegradedForms(b *testing.B)   { benchExperiment(b, "degraded", true) }
func BenchmarkAblationBilling(b *testing.B) { benchExperiment(b, "ablbill", true) }
func BenchmarkHeadlineClaims(b *testing.B)  { benchExperiment(b, "headline", false) }
func BenchmarkFig9aReplicated(b *testing.B) { benchExperiment(b, "fig9rep", true) }

// Sequential-vs-parallel pairs (results/parallel_speedup.md). Each pair
// runs the identical workload with the worker pool pinned to one worker
// and at the process default (GOMAXPROCS); outputs are byte-identical,
// so the pairs measure pure scheduling cost or gain.

// benchReplicate replicates the stochastic simulator experiment across
// four seeds — the seed fan-out path in experiments.Replicate.
func benchReplicate(b *testing.B, workers int) {
	b.Helper()
	cfg := minegame.ExperimentConfig{Seed: 1, Quick: true, Parallel: workers}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := minegame.ReplicateExperiment("simw", cfg, 4)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Tables) == 0 {
			b.Fatal("no tables")
		}
	}
}

func BenchmarkReplicateSequential(b *testing.B) { benchReplicate(b, 1) }
func BenchmarkReplicateParallel(b *testing.B)   { benchReplicate(b, 0) }

// benchStackelbergGrid solves the two-stage game with heterogeneous
// budgets, so every leader-grid probe runs a full follower
// equilibrium — the price-grid fan-out path.
func benchStackelbergGrid(b *testing.B, workers int) {
	b.Helper()
	cfg := defaultBenchConfig()
	cfg.Budgets = []float64{150, 180, 200, 220, 250}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := minegame.SolveStackelberg(cfg, minegame.StackelbergOptions{Workers: workers}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStackelbergGridSequential(b *testing.B) { benchStackelbergGrid(b, 1) }
func BenchmarkStackelbergGridParallel(b *testing.B)   { benchStackelbergGrid(b, 0) }
