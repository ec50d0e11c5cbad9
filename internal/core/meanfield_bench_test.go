package core

// Mean-field benchmarks backing results/meanfield_speedup.md: the
// class-compressed follower solve and the full classed Stackelberg
// game at N ∈ {10³, 10⁵, 10⁶} miners, and one classed demand probe at
// K ∈ {16, 256, 4096} classes. Population construction and
// classification are hoisted out of the measured loop: what is measured
// is the per-solve cost. A share pass over a classed market's sorted
// run costs O(log K) and the final solve's per-class points O(K), so
// the solves are flat in N (the residual per-op growth is the O(N)
// config validation at the solve boundary) and a probe nearly flat in
// K. Run with -benchmem; BENCH_2.json is the committed snapshot CI
// gates the first two against.

import (
	"fmt"
	"testing"

	"minegame/internal/game"
	"minegame/internal/miner"
)

// meanfieldBenchSizes spans feasible-exact to far-beyond-exact scale.
var meanfieldBenchSizes = []int{1_000, 100_000, 1_000_000}

// meanfieldBenchConfig builds the heterogeneous connected market used
// by the classed benchmarks: n miners over seven budget levels, the
// same shape as the "meanfield" experiment.
func meanfieldBenchConfig(b *testing.B, n int) (Config, miner.ClassedPopulation) {
	b.Helper()
	budgets := make([]float64, n)
	for i := range budgets {
		budgets[i] = 150 + 15*float64(i%7)
	}
	cfg := hotpathConfig(n)
	cfg.Budgets = budgets
	cfg.EdgeCapacity = 60
	cp, err := cfg.Classes(0)
	if err != nil {
		b.Fatal(err)
	}
	return cfg, cp
}

// BenchmarkSolveNEClassed measures the classed follower solve from the
// closed-form seed at fixed prices.
func BenchmarkSolveNEClassed(b *testing.B) {
	for _, n := range meanfieldBenchSizes {
		cfg, cp := meanfieldBenchConfig(b, n)
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				eq, err := SolveMinerEquilibriumClassed(cfg, cp, hotpathPrices, game.NEOptions{})
				if err != nil {
					b.Fatal(err)
				}
				if !eq.Converged {
					b.Fatal("classed solve did not converge")
				}
			}
		})
	}
}

// BenchmarkStackelbergClassed measures the full two-stage game over
// the compressed market: the leader price grids (GridN matching the
// "meanfield" experiment) anticipate an N-miner follower market at
// every probe.
func BenchmarkStackelbergClassed(b *testing.B) {
	for _, n := range meanfieldBenchSizes {
		cfg, cp := meanfieldBenchConfig(b, n)
		opts := StackelbergOptions{Leader: game.LeaderOptions{GridN: 24}, Workers: 1}
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := SolveStackelbergClassed(cfg, cp, opts)
				if err != nil {
					b.Fatal(err)
				}
				if !res.Converged {
					b.Fatal("classed Stackelberg did not converge")
				}
			}
		})
	}
}

// BenchmarkClassedProbe measures one cold leader-stage demand probe (a
// share root from the closed-form seed, returning totals) over a
// connected market of K budget classes. Its name stays outside the
// classed gate's pattern, so BENCH_2.json does not cover it.
func BenchmarkClassedProbe(b *testing.B) {
	for _, k := range []int{16, 256, 4096} {
		classes := make([]miner.Class, k)
		for i := range classes {
			classes[i] = miner.Class{Budget: 8 + 4*float64(i)/float64(k), Count: 1 + i%8}
		}
		cp, err := miner.FromClasses(classes)
		if err != nil {
			b.Fatal(err)
		}
		cfg := hotpathConfig(cp.N())
		cfg.Budgets = []float64{10}
		m := classedMarket(cfg, cp)
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := m.probe(hotpathPrices, game.NEOptions{}, warmStart{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
