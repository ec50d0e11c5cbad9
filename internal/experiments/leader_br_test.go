package experiments

import (
	"fmt"
	"math"
	"testing"

	"minegame/internal/core"
	"minegame/internal/game"
	"minegame/internal/miner"
	"minegame/internal/netmodel"
	"minegame/internal/sim"
)

// serviceMarket is the small market of the serving benchmark's price
// requests (R = 100, β = 0.5, h = 0.9, C_e = 1, C_c = 0.5) with n miners
// whose budgets are stratified over [8, 12].
func serviceMarket(seed int64, n int) core.Config {
	rng := sim.NewRNG(seed, "leader-br")
	budgets := make([]float64, n)
	for i := range budgets {
		budgets[i] = 8 + 4*(float64(i)+rng.Float64())/float64(n)
	}
	return core.Config{
		N: n, Budgets: budgets, Reward: 100, Beta: 0.5, SatisfyProb: 0.9,
		Mode: netmodel.Connected, EdgeCapacity: math.Inf(1), CostE: 1, CostC: 0.5,
	}
}

// scanBest is the best of f over points+1 evenly spaced prices in
// [lo, hi], with the price it is reached at.
func scanBest(f func(float64) (float64, bool), lo, hi float64, points int) (bestP, bestV float64) {
	bestV = math.Inf(-1)
	for i := 0; i <= points; i++ {
		p := lo + (hi-lo)*float64(i)/float64(points)
		if v, ok := f(p); ok && v > bestV {
			bestP, bestV = p, v
		}
	}
	return bestP, bestV
}

// maxPriceC is the top of the CSP's price bracket in core's leader stage.
func maxPriceC(cfg core.Config) float64 {
	return 40 * math.Max(1, math.Max(cfg.CostE, cfg.CostC))
}

// checkCSPBestResponse fails the test unless the returned CSP profit is
// at least (1 − 1e-6) of the best scan profit.
func checkCSPBestResponse(t *testing.T, p core.Prices, profitC, bestP, bestV float64) {
	t.Helper()
	if profitC < (1-1e-6)*bestV {
		t.Errorf("at P_e = %.6g the CSP earns %.8g at P_c = %.6g, but %.8g at P_c = %.6g (scan)",
			p.Edge, profitC, p.Cloud, bestV, bestP)
	}
}

// TestLeaderCSPBestResponse: under the Theorem 4 commitment the CSP
// plays its best response to the ESP's price, so at the returned P_e no
// CSP price on a 2,000-point scan of [C_c, maxPriceC] may earn more than
// the returned P_c, beyond 1e-6 relative. Standalone markets run the same
// check along the market-clearing curve of the Algorithm 2 bargain, with
// 400 points.
func TestLeaderCSPBestResponse(t *testing.T) {
	if testing.Short() {
		t.Skip("scans the CSP profit with thousands of follower solves")
	}
	connected := func(t *testing.T, cfg core.Config) {
		res, err := core.SolveStackelberg(cfg, core.StackelbergOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		profit := func(pc float64) (float64, bool) {
			eq, err := core.SolveMinerEquilibrium(cfg, core.Prices{Edge: res.Prices.Edge, Cloud: pc}, game.NEOptions{})
			return (pc - cfg.CostC) * eq.CloudDemand, err == nil && eq.Converged
		}
		bestP, bestV := scanBest(profit, cfg.CostC, maxPriceC(cfg), 2000)
		checkCSPBestResponse(t, res.Prices, res.ProfitC, bestP, bestV)
	}
	for _, n := range []int{5, 6} {
		t.Run(fmt.Sprintf("connected N=%d", n), func(t *testing.T) { connected(t, serviceMarket(int64(n), n)) })
	}
	t.Run("headline", func(t *testing.T) { connected(t, baseConfig()) })
	for _, sc := range topoScenarios() {
		t.Run("topo "+sc.name, func(t *testing.T) {
			betas, err := sc.betas(Config{Seed: 1, Parallel: 1})
			if err != nil {
				t.Fatal(err)
			}
			cfg := baseConfig()
			cfg.Betas = betas
			connected(t, cfg)
		})
	}

	t.Run("classed K=256", func(t *testing.T) {
		cfg := serviceMarket(256, 1)
		rng := sim.NewRNG(256, "leader-br-classes")
		classes := make([]miner.Class, 256)
		for i := range classes {
			classes[i] = miner.Class{Budget: 8 + 4*(float64(i)+rng.Float64())/256, Count: 1 + rng.Intn(8)}
		}
		cp, err := miner.FromClasses(classes)
		if err != nil {
			t.Fatal(err)
		}
		cfg.N, cfg.Budgets = cp.N(), []float64{10}
		res, err := core.SolveStackelbergClassed(cfg, cp, core.StackelbergOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		profit := func(pc float64) (float64, bool) {
			eq, err := core.SolveMinerEquilibriumClassed(cfg, cp, core.Prices{Edge: res.Prices.Edge, Cloud: pc}, game.NEOptions{})
			return (pc - cfg.CostC) * eq.CloudDemand, err == nil && eq.Converged
		}
		bestP, bestV := scanBest(profit, cfg.CostC, maxPriceC(cfg), 2000)
		checkCSPBestResponse(t, res.Prices, res.ProfitC, bestP, bestV)
	})

	for _, n := range []int{7, 8} {
		t.Run(fmt.Sprintf("standalone N=%d", n), func(t *testing.T) {
			cfg := serviceMarket(int64(n), n)
			cfg.Mode = netmodel.Standalone
			cfg.EdgeCapacity = float64(n)
			res, err := core.SolveStackelberg(cfg, core.StackelbergOptions{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			if res.Follower.EdgeDemand < cfg.EdgeCapacity*(1-1e-6) {
				t.Fatalf("E = %g does not sell out E_max = %g", res.Follower.EdgeDemand, cfg.EdgeCapacity)
			}
			profit := func(pc float64) (float64, bool) {
				pe, ok := clearingEdgePrice(cfg, pc)
				if !ok {
					return 0, false
				}
				eq, err := core.SolveMinerEquilibrium(cfg, core.Prices{Edge: pe, Cloud: pc}, game.NEOptions{})
				return (pc - cfg.CostC) * eq.CloudDemand, err == nil && eq.Converged
			}
			bestP, bestV := scanBest(profit, cfg.CostC, maxPriceC(cfg), 400)
			checkCSPBestResponse(t, res.Prices, res.ProfitC, bestP, bestV)
		})
	}
}

// clearingEdgePrice bisects the capacity-unconstrained edge demand of a
// standalone market, decreasing in P_e, for the edge price that just
// sells out E_max at CSP price pc.
func clearingEdgePrice(cfg core.Config, pc float64) (float64, bool) {
	free := cfg
	free.EdgeCapacity = math.Inf(1)
	excess := func(pe float64) float64 {
		eq, err := core.SolveMinerEquilibrium(free, core.Prices{Edge: pe, Cloud: pc}, game.NEOptions{})
		if err != nil {
			return math.NaN()
		}
		return eq.EdgeDemand - cfg.EdgeCapacity
	}
	lo := math.Max(pc*(1+1e-6), cfg.CostE+1e-9)
	hi := 40 * math.Max(1, math.Max(cfg.CostE, cfg.CostC))
	if !(excess(lo) >= 0) || !(excess(hi) < 0) {
		return 0, false
	}
	for hi-lo > 1e-10*hi {
		mid := (lo + hi) / 2
		if excess(mid) >= 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, true
}
