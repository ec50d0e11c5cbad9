package core

// Hot-path micro-benchmarks backing results/hotpath_speedup.md: the
// follower Gauss–Seidel solve and the Stackelberg demand oracle at
// N ∈ {10, 100, 1000} miners. Run with -benchmem; the allocation budget
// is asserted separately in hotpath_test.go.
//
// BenchmarkSolveNE pins the sweep budget (MaxIter=40) instead of
// requiring convergence: at N ≥ 100 the undamped Gauss–Seidel map
// contracts too slowly for a tol-terminated solve to fit a benchmark
// iteration, and the quantity this PR optimizes is the per-sweep cost.

import (
	"fmt"
	"testing"

	"minegame/internal/game"
	"minegame/internal/netmodel"
)

// hotpathConfig builds a heterogeneous connected-mode instance (so no
// closed form applies anywhere) with budgets spread around 200.
func hotpathConfig(n int) Config {
	budgets := make([]float64, n)
	for i := range budgets {
		budgets[i] = 150 + float64(i%11)*10
	}
	return Config{
		N:           n,
		Budgets:     budgets,
		Reward:      1000,
		Beta:        0.2,
		SatisfyProb: 0.7,
		Mode:        netmodel.Connected,
		CostE:       2,
		CostC:       1,
	}
}

var hotpathPrices = Prices{Edge: 8, Cloud: 4}

// BenchmarkSolveNE measures a 40-sweep follower solve (cold start)
// through the production path at increasing populations.
func BenchmarkSolveNE(b *testing.B) {
	for _, n := range []int{10, 100, 1000} {
		cfg := hotpathConfig(n)
		opts := game.NEOptions{MaxIter: 40, Tol: 1e-8}
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := SolveMinerEquilibrium(cfg, hotpathPrices, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSolveNEWarm measures the same 40-sweep-capped solve seeded
// from a near-equilibrium profile: the cost a warm-started grid probe
// pays, dominated by the KKT acceptance check instead of full sweeps.
func BenchmarkSolveNEWarm(b *testing.B) {
	for _, n := range []int{10, 100, 1000} {
		cfg := hotpathConfig(n)
		opts := game.NEOptions{MaxIter: 40, Tol: 1e-8}
		seed, err := SolveMinerEquilibrium(cfg, hotpathPrices, opts)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := SolveMinerEquilibriumFrom(cfg, hotpathPrices, opts, seed.Requests); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDemandOracleCold measures one converged cold-start
// demand-oracle probe: the follower solve a leader grid point pays
// without any warm-start information.
func BenchmarkDemandOracleCold(b *testing.B) {
	cfg := hotpathConfig(10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eq, err := SolveMinerEquilibrium(cfg, Prices{Edge: 9, Cloud: 4.5}, game.NEOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if !eq.Converged {
			b.Fatal("did not converge")
		}
	}
}

// BenchmarkDemandOracleWarm measures the same converged probe
// warm-started from a neighboring price point's equilibrium — the cost
// the anchor-seeded oracle pays per grid probe.
func BenchmarkDemandOracleWarm(b *testing.B) {
	cfg := hotpathConfig(10)
	anchor, err := SolveMinerEquilibrium(cfg, Prices{Edge: 8.5, Cloud: 4.25}, game.NEOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eq, err := SolveMinerEquilibriumFrom(cfg, Prices{Edge: 9, Cloud: 4.5}, game.NEOptions{}, anchor.Requests)
		if err != nil {
			b.Fatal(err)
		}
		if !eq.Converged {
			b.Fatal("did not converge")
		}
	}
}

// BenchmarkStackelbergHeteroGrid measures the full two-stage solve with
// the numeric demand oracle — the leader price grid end to end.
func BenchmarkStackelbergHeteroGrid(b *testing.B) {
	cfg := hotpathConfig(5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := SolveStackelberg(cfg, StackelbergOptions{Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
