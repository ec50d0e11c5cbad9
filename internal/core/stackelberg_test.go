package core

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"minegame/internal/game"
	"minegame/internal/miner"
	"minegame/internal/netmodel"
	"minegame/internal/numeric"
	"minegame/internal/obs"
)

func TestSolveStackelbergConnected(t *testing.T) {
	cfg := testConfig()
	ob := obs.New()
	res, err := SolveStackelberg(cfg, StackelbergOptions{Observer: ob})
	if err != nil {
		t.Fatalf("SolveStackelberg: %v", err)
	}
	if !res.Converged {
		t.Fatalf("leader stage did not converge: %+v", res)
	}
	// One budget, one fork rate: every probe is the closed form, and the
	// leader stage solves no follower market.
	if probes, solves := ob.Counter("core.demand_probes_total").Value(), ob.Histogram("core.warm_start_distance").Stat().Count; probes == 0 || solves != 0 {
		t.Errorf("homogeneous config: %d probes, %d follower solves; want every probe in closed form", probes, solves)
	}
	if res.Prices.Edge <= res.Prices.Cloud {
		t.Errorf("P_e = %g should exceed P_c = %g (edge has no delay and limited capacity)",
			res.Prices.Edge, res.Prices.Cloud)
	}
	if res.Prices.Edge <= cfg.CostE || res.Prices.Cloud <= cfg.CostC {
		t.Errorf("prices (%g, %g) must exceed costs (%g, %g)",
			res.Prices.Edge, res.Prices.Cloud, cfg.CostE, cfg.CostC)
	}
	if res.ProfitE <= 0 || res.ProfitC <= 0 {
		t.Errorf("profits (%g, %g) must be positive", res.ProfitE, res.ProfitC)
	}
	if !res.Follower.Converged {
		t.Error("follower equilibrium at leader prices did not converge")
	}
	// The CSP plays a best response to the committed ESP price: no
	// unilateral CSP deviation may improve its profit.
	probe := func(pe, pc float64) (float64, float64) {
		eq, err := SolveMinerEquilibrium(cfg, Prices{Edge: pe, Cloud: pc}, StackelbergOptions{}.Follower)
		if err != nil {
			return math.Inf(-1), math.Inf(-1)
		}
		return (pe - cfg.CostE) * eq.EdgeDemand, (pc - cfg.CostC) * eq.CloudDemand
	}
	for _, f := range []float64{0.8, 0.9, 1.1, 1.25} {
		_, vc := probe(res.Prices.Edge, res.Prices.Cloud*f)
		if vc > res.ProfitC*1.02+1 {
			t.Errorf("CSP deviation to %g improves profit: %g > %g", res.Prices.Cloud*f, vc, res.ProfitC)
		}
	}
	// The ESP commits first, anticipating the CSP's reaction: deviations
	// evaluated along the CSP's best-response curve must not improve.
	cspBR := func(pe float64) float64 {
		best, bestV := 0.0, math.Inf(-1)
		for pc := cfg.CostC + 0.05; pc < 20; pc += 0.05 {
			if _, vc := probe(pe, pc); vc > bestV {
				best, bestV = pc, vc
			}
		}
		return best
	}
	for _, f := range []float64{0.7, 0.85, 1.2, 1.5} {
		pe := res.Prices.Edge * f
		ve, _ := probe(pe, cspBR(pe))
		if ve > res.ProfitE*1.03+1 {
			t.Errorf("ESP commitment deviation to %g improves profit: %g > %g", pe, ve, res.ProfitE)
		}
	}
}

func TestSolveStackelbergStandalone(t *testing.T) {
	cfg := testConfig()
	cfg.Mode = netmodel.Standalone
	cfg.EdgeCapacity = 25
	cfg.Budgets = []float64{1000} // Table II's sufficient-budget regime
	res, err := SolveStackelberg(cfg, StackelbergOptions{})
	if err != nil {
		t.Fatalf("SolveStackelberg: %v", err)
	}
	if !res.Converged {
		t.Fatalf("not converged: %+v", res)
	}
	// Problem 2c: at the SP equilibrium the ESP sells out its capacity.
	if math.Abs(res.Follower.EdgeDemand-cfg.EdgeCapacity) > 0.05*cfg.EdgeCapacity {
		t.Errorf("edge demand = %g, want ≈E_max %g", res.Follower.EdgeDemand, cfg.EdgeCapacity)
	}
	// And its price should sit at the market-clearing level for the
	// equilibrium CSP price.
	wantPe := miner.ClearingPriceEdge(cfg.Reward, cfg.Beta, res.Prices.Cloud, cfg.N, cfg.EdgeCapacity)
	if math.Abs(res.Prices.Edge-wantPe) > 0.05*wantPe {
		t.Errorf("P_e = %g, want clearing price %g", res.Prices.Edge, wantPe)
	}
	// The CSP best response has the closed form √(A·C_c/E_max).
	wantPc := miner.OptimalPriceCloudStandalone(cfg.Reward, cfg.Beta, cfg.CostC, cfg.N, cfg.EdgeCapacity)
	if math.Abs(res.Prices.Cloud-wantPc) > 0.05*wantPc {
		t.Errorf("P_c = %g, want closed form %g", res.Prices.Cloud, wantPc)
	}
}

// seedAndRoot returns the seed of cfg's exact market at p, whether it
// is exact, and the totals of a cold solve's root there.
func seedAndRoot(t *testing.T, cfg Config, p Prices) (seed numeric.Point2, exact bool, root numeric.Point2) {
	t.Helper()
	m := exactMarket(cfg)
	seed, exact = m.seed(p)
	eq, err := SolveMinerEquilibrium(cfg, p, game.NEOptions{})
	if err != nil {
		t.Fatalf("solve at %+v: %v", p, err)
	}
	return seed, exact, numeric.Point2{E: eq.EdgeDemand, C: eq.CloudDemand}
}

// TestSeedAgreesWithRoot pins the closed form a homogeneous market
// answers its probes with: its seed is flagged exact and lands on the
// numeric root, on the interior and on the budget face.
func TestSeedAgreesWithRoot(t *testing.T) {
	for _, budget := range []float64{200, 20} {
		cfg := testConfig()
		cfg.Budgets = []float64{budget}
		for _, p := range []Prices{{Edge: 8, Cloud: 4}, {Edge: 12, Cloud: 3}, {Edge: 6, Cloud: 5}} {
			seed, exact, root := seedAndRoot(t, cfg, p)
			if !exact {
				t.Fatalf("budget %g: seed at %+v not exact", budget, p)
			}
			if d := seed.Sub(root).Norm(); !(d <= 1e-9*root.Norm()) {
				t.Errorf("budget %g at %+v: seed %+v vs root %+v", budget, p, seed, root)
			}
		}
	}
}

// TestSeedPureEdgeRegime covers a standalone market whose cloud is
// priced out, P_c ≥ (1−β)·P_e: with its capacity slack the seed is the
// all-edge contest, exact, with no cloud demand, on the free and the
// budget face alike. With the capacity binding the seed is not exact:
// the root sells the capacity at the edge, and its scarcity price
// sends the rest of the demand to the cloud.
func TestSeedPureEdgeRegime(t *testing.T) {
	p := Prices{Edge: 5, Cloud: 4.5}
	for _, budget := range []float64{200, 100} {
		cfg := testConfig()
		cfg.Mode = netmodel.Standalone
		cfg.EdgeCapacity = 200
		cfg.Budgets = []float64{budget}
		seed, exact, root := seedAndRoot(t, cfg, p)
		if !exact || seed.C != 0 {
			t.Errorf("budget %g: seed %+v (exact %v), want exact with no cloud demand", budget, seed, exact)
		}
		if d := seed.Sub(root).Norm(); !(d <= 1e-9*root.Norm()) {
			t.Errorf("budget %g: seed %+v vs root %+v", budget, seed, root)
		}
		if seed.E <= 0 || seed.E > cfg.EdgeCapacity {
			t.Errorf("budget %g: edge demand = %g, want in (0, %g]", budget, seed.E, cfg.EdgeCapacity)
		}
	}
	cfg := testConfig()
	cfg.Mode = netmodel.Standalone
	_, exact, root := seedAndRoot(t, cfg, p)
	if exact {
		t.Error("binding capacity: seed flagged exact")
	}
	if math.Abs(root.E-cfg.EdgeCapacity) > 1e-9*cfg.EdgeCapacity || !(root.C > 0) {
		t.Errorf("binding capacity: root %+v, want E = %g and C > 0", root, cfg.EdgeCapacity)
	}
}

func TestCompareModes(t *testing.T) {
	cfg := testConfig()
	cfg.EdgeCapacity = 25
	cfg.Budgets = []float64{1000}
	cmp, err := CompareModes(cfg, StackelbergOptions{})
	if err != nil {
		t.Fatalf("CompareModes: %v", err)
	}
	// §IV-C: the standalone ESP charges a higher price and earns more;
	// the connected mode discourages edge purchases.
	if cmp.Standalone.Prices.Edge <= cmp.Connected.Prices.Edge {
		t.Errorf("standalone P_e %g should exceed connected P_e %g",
			cmp.Standalone.Prices.Edge, cmp.Connected.Prices.Edge)
	}
	if cmp.Standalone.ProfitE <= cmp.Connected.ProfitE {
		t.Errorf("standalone ESP profit %g should exceed connected %g",
			cmp.Standalone.ProfitE, cmp.Connected.ProfitE)
	}
	if cmp.Standalone.ProfitC >= cmp.Connected.ProfitC {
		t.Errorf("standalone CSP profit %g should fall below connected %g",
			cmp.Standalone.ProfitC, cmp.Connected.ProfitC)
	}
}

func TestSolveStackelbergInvalidConfig(t *testing.T) {
	cfg := testConfig()
	cfg.N = 0
	if _, err := SolveStackelberg(cfg, StackelbergOptions{}); err == nil {
		t.Error("want config error")
	}
}

// TestStackelbergBitIdenticalAcrossWorkerCounts pins the parallel
// layer's contract at the solver level: the two-stage solve — including
// the heterogeneous numeric-oracle path, where every price probe runs a
// full follower solve through the single-flight memo — returns exactly
// the same result at any worker count.
func TestStackelbergBitIdenticalAcrossWorkerCounts(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		opts StackelbergOptions
	}{
		{name: "homogeneous connected", cfg: testConfig()},
		{name: "numeric oracle", cfg: func() Config {
			c := testConfig()
			c.Budgets = []float64{150, 180, 200, 220, 250}
			return c
		}()},
		{name: "standalone", cfg: func() Config {
			c := testConfig()
			c.Mode = netmodel.Standalone
			c.EdgeCapacity = 25
			c.Budgets = []float64{1000}
			return c
		}()},
		{name: "per-miner betas", cfg: func() Config {
			c := testConfig()
			c.Betas = []float64{0.05, 0.1, 0.2, 0.3, 0.4}
			return c
		}()},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			opts := tc.opts
			opts.Workers = 1
			want, err := SolveStackelberg(tc.cfg, opts)
			if err != nil {
				t.Fatalf("sequential: %v", err)
			}
			for _, workers := range []int{2, runtime.GOMAXPROCS(0) + 2} {
				opts.Workers = workers
				opts.Leader.Pool = nil // force re-resolution from Workers
				got, err := SolveStackelberg(tc.cfg, opts)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("workers=%d: result %+v differs from sequential %+v", workers, got, want)
				}
			}
		})
	}
}

// TestCompareModesBitIdenticalAcrossWorkerCounts does the same for the
// concurrent two-mode comparison.
func TestCompareModesBitIdenticalAcrossWorkerCounts(t *testing.T) {
	cfg := testConfig()
	cfg.EdgeCapacity = 25
	cfg.Budgets = []float64{1000}
	want, err := CompareModes(cfg, StackelbergOptions{Workers: 1})
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	got, err := CompareModes(cfg, StackelbergOptions{Workers: 4})
	if err != nil {
		t.Fatalf("workers=4: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("workers=4: comparison differs from sequential")
	}
}
