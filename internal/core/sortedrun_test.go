package core

import (
	"math"
	"math/rand"
	"testing"

	"minegame/internal/game"
	"minegame/internal/miner"
	"minegame/internal/netmodel"
	"minegame/internal/numeric"
)

// perTypeSums is the sorted run's oracle: one miner.Share per type in
// the caller's order, at the type's own fork rate, weighted by its
// count.
func perTypeSums(m *market, p miner.Params, mu, e, s float64) (float64, float64) {
	var sumE, sumS float64
	for k := 0; k < m.k; k++ {
		r := miner.Share(m.params(p, k), mu, m.budget(k), e, s)
		n := m.count(k)
		sumE += n * r.E
		sumS += n * (r.E + r.C)
	}
	return sumE, sumS
}

// perClassSeed is the seed's oracle, type by type in the caller's
// order: each type at the closed-form homogeneous equilibrium of all n
// miners at its own budget and fork rate, falling back to the spread
// B/(4P_e), B/(4P_c). A standalone market takes the connected form at
// h = 1 while its edge total fits the capacity, and the standalone
// closed form otherwise; a standalone seed still over the capacity,
// beyond rounding, scales its edge requests to 0.9 of it.
func perClassSeed(m *market, p Prices) numeric.Point2 {
	sum := func(connected bool, h, scale float64) numeric.Point2 {
		var t numeric.Point2
		for k := 0; k < m.k; k++ {
			params := m.params(m.cfg.Params(p), k)
			params.H = h
			b := m.budget(k)
			r := numeric.Point2{E: b / (4 * p.Edge), C: b / (4 * p.Cloud)}
			if connected {
				if sol, err := miner.HomogeneousConnected(params, m.n, b); err == nil {
					r = sol.Request
				}
			} else if sol, err := miner.HomogeneousStandalone(params, m.n, m.cfg.EdgeCapacity); err == nil && params.Spend(sol.Request) <= b {
				r = sol.Request
			}
			t.E += m.count(k) * r.E * scale
			t.C += m.count(k) * r.C
		}
		return t
	}
	if m.cfg.Mode == netmodel.Connected {
		return sum(true, m.cfg.SatisfyProb, 1)
	}
	if t := sum(true, 1, 1); t.E <= m.cfg.EdgeCapacity {
		return t
	}
	t := sum(false, m.cfg.SatisfyProb, 1)
	if t.E > m.cfg.EdgeCapacity*(1+1e-9) {
		t = sum(false, m.cfg.SatisfyProb, m.cfg.EdgeCapacity/t.E*0.9)
	}
	return t
}

// checkClassedSums compares the market's sorted-run pass at (μ, E, S)
// and its seed at p with their per-type oracles. Each sum agrees to
// 1e-12 relative to the larger of its size and its budget bound
// Σ n_k·B_k/P (P_e for the edge sum, the lower price for the total):
// near a clamp breakpoint both sides round an edge request of nearly
// zero, each its own way.
func checkClassedSums(t *testing.T, m *market, p Prices, mu, e, s float64) {
	t.Helper()
	params := m.cfg.Params(p)
	if m.cfg.Mode == netmodel.Standalone {
		params.H = 1
	}
	bound := m.run.weight(0, len(m.run.entries)-1)
	agree := func(what string, got, want, scale float64) {
		t.Helper()
		if d := math.Abs(got - want); !(d <= 1e-12*math.Max(math.Abs(want), scale)) {
			t.Errorf("%s: sorted run %.17g, per type %.17g (scale %g) at μ=%g E=%g S=%g, params %+v, budgets %v, counts %v, betas %v",
				what, got, want, scale, mu, e, s, params, m.budgets, m.counts, m.betas)
		}
	}
	gotE, gotS := m.run.sums(params, mu, e, s)
	wantE, wantS := perTypeSums(m, params, mu, e, s)
	agree("Σn·e", gotE, wantE, bound/params.PriceE)
	agree("Σn·s", gotS, wantS, bound/math.Min(params.PriceE, params.PriceC))
	got, _ := m.seed(p)
	want := perClassSeed(m, p)
	agree("seed E", got.E, want.E, bound/params.PriceE)
	agree("seed C", got.C, want.C, bound/params.PriceC)
}

// shareBreakpoints returns the budgets at which miner.Share changes
// form at (μ, E, S): the budget-relaxed point's spend and both clamps
// of the budget face, where they are positive and finite.
func shareBreakpoints(cfg Config, p Prices, mu, e, s float64) []float64 {
	params := cfg.Params(p)
	if cfg.Mode == netmodel.Standalone {
		params.H = 1
	}
	line := miner.ShareLineAt(params, mu, e, s)
	var out []float64
	for _, b := range []float64{
		line.FreeSpend,
		-line.Num / line.Slope,
		line.Num / (line.Den/params.PriceE - line.Slope),
	} {
		if b > 0 && !math.IsInf(b, 0) {
			out = append(out, b)
		}
	}
	return out
}

// sortedMarket builds the classed market of the given classes, plus
// three miners on each of the extra budgets.
func sortedMarket(t testing.TB, cfg Config, budgets []float64, counts []int, extra []float64) *market {
	t.Helper()
	classes := make([]miner.Class, 0, len(budgets)+len(extra))
	for k, b := range budgets {
		classes = append(classes, miner.Class{Budget: b, Count: counts[k]})
	}
	for _, b := range extra {
		classes = append(classes, miner.Class{Budget: b, Count: 3})
	}
	cp, err := miner.FromClasses(classes)
	if err != nil {
		t.Fatal(err)
	}
	cfg.N = cp.N()
	return classedMarket(cfg, cp)
}

// typedMarket builds the market of the given types in the given order:
// counts nil gives every type one miner, betas nil puts every type on
// cfg.Beta.
func typedMarket(cfg Config, budgets []float64, counts []int, betas []float64) *market {
	n := len(budgets)
	if counts != nil {
		n = 0
		for _, c := range counts {
			n += c
		}
	}
	cfg.N = n
	return newMarket(marketTypes{cfg: cfg, budgets: budgets, counts: counts, betas: betas, k: len(budgets), n: n})
}

// TestClassedSumsMatchPerType pins the sorted run's share pass and seed
// to their per-type oracles over both price orders, a flat edge
// (β = 0), a capacity price μ > 0, budgets on every breakpoint of
// miner.Share, a single class, counts in the billions, and an
// unsorted market of single miners on three fork rates with repeated
// (β, budget) pairs.
func TestClassedSumsMatchPerType(t *testing.T) {
	budgets := []float64{2, 5, 9, 10, 14, 30, 80, 200}
	counts := []int{3, 1, 7, 2, 5, 1, 4, 2}
	big := []int{1e9, 1, 3e8, 7, 1, 2e9, 5, 1}
	for _, mode := range []netmodel.Mode{netmodel.Connected, netmodel.Standalone} {
		for _, beta := range []float64{0.2, 0} {
			for _, p := range []Prices{{Edge: 8, Cloud: 4}, {Edge: 3, Cloud: 4}, {Edge: 4, Cloud: 4}} {
				cfg := Config{Mode: mode, Budgets: []float64{10}, Reward: 1000, Beta: beta, SatisfyProb: 0.7, EdgeCapacity: 30}
				for _, pt := range []struct{ mu, e, s float64 }{
					{0, 10, 60}, {0, 1, 5}, {0, 50, 60}, {1.5, 10, 60}, {0.5, 30, 40}, {0, 0, 60}, {0, 200, 400},
				} {
					breaks := shareBreakpoints(cfg, p, pt.mu, pt.e, pt.s)
					for _, cs := range [][]int{counts, big} {
						checkClassedSums(t, sortedMarket(t, cfg, budgets, cs, breaks), p, pt.mu, pt.e, pt.s)
					}
					for _, b := range append(breaks, budgets[3]) { // K = 1
						checkClassedSums(t, sortedMarket(t, cfg, []float64{b}, counts[:1], nil), p, pt.mu, pt.e, pt.s)
					}
					mixed := append([]float64{30, 2, 200, 9, 2, 14, 80, 5, 10, 9}, breaks...)
					betas := make([]float64, len(mixed))
					for k := range betas {
						betas[k] = []float64{beta, 0.35, 0.05}[k%3]
					}
					// Types 1 and 4, and 3 and 9, share (β, budget).
					checkClassedSums(t, typedMarket(cfg, mixed, nil, betas), p, pt.mu, pt.e, pt.s)
				}
			}
		}
	}
}

// TestSortedSeedMatchesPerClass pins the connected seed of a classed
// market to Σ counts·miner.HomogeneousConnected class by class, across
// the interior, budget-bound and pure-edge faces, and its fallback to
// the spread when no closed form applies (n < 2).
func TestSortedSeedMatchesPerClass(t *testing.T) {
	budgets := []float64{0.5, 5, 50, 500}
	counts := []int{3, 1, 4, 2}
	for _, p := range []Prices{{Edge: 8, Cloud: 4}, {Edge: 1, Cloud: 2}} {
		for _, cs := range [][]int{counts, {1}} {
			classes := make([]miner.Class, len(cs))
			for k := range cs {
				classes[k] = miner.Class{Budget: budgets[k], Count: cs[k]}
			}
			cp, err := miner.FromClasses(classes)
			if err != nil {
				t.Fatal(err)
			}
			cfg := Config{Mode: netmodel.Connected, N: cp.N(), Budgets: []float64{1}, Reward: 100, Beta: 0.3, SatisfyProb: 0.8}
			m := classedMarket(cfg, cp)
			got, _ := m.seed(p)
			want := perClassSeed(m, p)
			if d := got.Sub(want).Norm(); !(d <= 1e-12*want.Norm()) {
				t.Errorf("prices %+v, counts %v: seed %+v, per class %+v", p, cs, got, want)
			}
		}
	}
	if _, _, _, err := miner.HomogeneousConnectedLine(miner.Params{Reward: 0, PriceE: 1, PriceC: 1}, 5); err == nil {
		t.Error("want an error for invalid params")
	}
}

// TestSeedExactOnOneFace pins seed's exact flag, which lets a probe
// take the seed over its warm start, and a market of one (β, budget)
// entry take it as the root: a market on one fork rate whose miners all
// afford the free point, or whose one budget binds, is seeded at its
// root, which one outer pass clears; so is a standalone market whose
// capacity stays slack. Markets of several budgets that all bind, with
// miners on both faces, on two fork rates or against a binding
// capacity are not flagged.
func TestSeedExactOnOneFace(t *testing.T) {
	bound := priceMissConnected(5, 9, 9, 9, 9, 9)
	bounds := priceMissConnected(5)
	free := priceMissConnected(5, 400, 500, 600, 700, 800)
	mixed := priceMissConnected(5, 8, 9, 10, 11, 800)
	betas := priceMissConnected(5)
	betas.Betas = []float64{0.5, 0.5, 0.5, 0.4, 0.4}
	slack := free
	slack.Mode, slack.EdgeCapacity = netmodel.Standalone, 1e6
	tight := slack
	tight.EdgeCapacity = 0.5
	p := Prices{Edge: 3.1, Cloud: 1.7}
	for _, tc := range []struct {
		name  string
		cfg   Config
		exact bool
	}{
		{"budget-bound, one budget", bound, true},
		{"budget-bound, several budgets", bounds, false},
		{"free", free, true},
		{"mixed", mixed, false},
		{"two fork rates", betas, false},
		{"standalone, slack capacity", slack, true},
		{"standalone, binding capacity", tight, false},
	} {
		m := exactMarket(tc.cfg)
		seed, exact := m.seed(p)
		if exact != tc.exact {
			t.Errorf("%s: exact = %v, want %v", tc.name, exact, tc.exact)
		}
		if !exact {
			continue
		}
		r, err := m.root(p, game.NEOptions{}, warmStart{})
		if err != nil {
			t.Fatal(err)
		}
		root := m.run.totals(r.params, r.res, r.split)
		if d := seed.Sub(root).Norm(); d > 1e-12*root.Norm() || r.res.Passes > 2 {
			t.Errorf("%s: seed %+v, root %+v after %d passes", tc.name, seed, root, r.res.Passes)
		}
	}
}

// checkSeedExact checks that cfg's exact market, where its seed at p
// claims to be exact, is seeded at its root: a cold solve lands within
// 1e-9 relative of the seed. A probe takes an exact seed of a single
// (β, budget) entry as its answer, so a false claim there is a wrong
// demand. Markets whose root does not converge are skipped.
func checkSeedExact(t *testing.T, cfg Config, p Prices) {
	t.Helper()
	m := exactMarket(cfg)
	seed, exact := m.seed(p)
	if !exact {
		return
	}
	r, err := m.root(p, game.NEOptions{}, warmStart{})
	if err != nil || !r.res.Converged {
		return
	}
	root := m.run.totals(r.params, r.res, r.split)
	if d := seed.Sub(root).Norm(); !(d <= 1e-9*root.Norm()) {
		t.Errorf("seed %+v claims exact, root %+v (relative distance %.3g): %v mode, budgets %v, E_max %v, prices %+v",
			seed, root, d/root.Norm(), cfg.Mode, cfg.Budgets, cfg.EdgeCapacity, p)
	}
}

// seedExactConfig is the market checkSeedExact sweeps: testConfig's
// constants with the given budgets and capacity.
func seedExactConfig(standalone bool, budgets []float64, capacity float64) Config {
	cfg := testConfig()
	cfg.N, cfg.Budgets, cfg.EdgeCapacity = len(budgets), budgets, capacity
	if standalone {
		cfg.Mode = netmodel.Standalone
	}
	return cfg
}

// TestSeedExactIsRoot sweeps exact markets of 2 to 13 miners with
// budgets log-uniform over e^-2..e^6, in both modes, through
// checkSeedExact. Several budgets that all bind used to be flagged
// exact, though the largest need not bind at the root.
func TestSeedExactIsRoot(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	logU := func(lo, hi float64) float64 { return math.Exp(lo + (hi-lo)*rng.Float64()) }
	for i := 0; i < 2000; i++ {
		budgets := make([]float64, 2+rng.Intn(12))
		for k := range budgets {
			budgets[k] = logU(-2, 6)
		}
		cfg := seedExactConfig(i%2 == 1, budgets, logU(0, 5))
		checkSeedExact(t, cfg, Prices{Edge: logU(0, 4), Cloud: logU(0, 4)})
	}
}

// FuzzSeedExact runs checkSeedExact over fuzzed prices, capacity and
// budgets: b0 and b1, then one budget e^(8·x/255 − 2) per extra byte x.
// Inputs outside [1e-3, 1e6] are skipped. The first seed is a
// standalone market whose two budgets the all-bound face flagged exact
// although the large miner does not spend its budget at the root.
func FuzzSeedExact(f *testing.F) {
	// standalone, P_e, P_c, E_max, b0, b1, extra
	f.Add(true, 31.376857694989145, 10.151689525561624, 7.308657576595453, 3.5291709151710737, 195.99521783913679, []byte(nil))
	f.Add(false, 8.0, 4.0, 60.0, 200.0, 200.0, []byte{200, 200, 200})
	f.Add(false, 8.0, 4.0, 60.0, 5.0, 5.0, []byte(nil))
	f.Add(false, 3.1, 1.7, 60.0, 400.0, 500.0, []byte{250, 255})
	f.Add(true, 5.0, 4.5, 200.0, 100.0, 100.0, []byte(nil))
	f.Add(false, 20.0, 3.0, 60.0, 10.0, 12.0, []byte{60, 70, 80})
	f.Fuzz(func(t *testing.T, standalone bool, pe, pc, capacity, b0, b1 float64, extra []byte) {
		sane := func(x float64) bool { return x >= 1e-3 && x <= 1e6 }
		if !sane(pe) || !sane(pc) || !sane(capacity) || !sane(b0) || !sane(b1) || len(extra) > 12 {
			return
		}
		budgets := []float64{b0, b1}
		for _, x := range extra {
			budgets = append(budgets, math.Exp(8*float64(x)/255-2))
		}
		checkSeedExact(t, seedExactConfig(standalone, budgets, capacity), Prices{Edge: pe, Cloud: pc})
	})
}

// perTypeSolve is the reference solve of m at p: m's share system with
// each pass summing one miner.Share per type (perTypeSums) instead of
// reading the sorted run, and the types' points at its root.
func perTypeSolve(m *market, p Prices, start numeric.Point2) (game.ShareResult, []numeric.Point2) {
	params, capacity := m.cfg.Params(p), math.Inf(1)
	if m.cfg.Mode == netmodel.Standalone {
		params.H, capacity = 1, m.cfg.EdgeCapacity
	}
	sys := m.system(params, capacity)
	sys.Sums = func(mu, e, s float64) (float64, float64) { return perTypeSums(m, params, mu, e, s) }
	res := game.SolveShares(sys, start, game.NEOptions{})
	d := params.PriceE - params.PriceC
	split := sys.FlatEdge && d < 0 && res.Mu > 0 && !res.Converged
	if split {
		sys.Sums = func(_, e, s float64) (float64, float64) { return perTypeSums(m, params, -d, e, s) }
		res = m.splitCapacity(sys, res, -d, game.NEOptions{})
	}
	return res, m.points(shareRoot{res: res, params: params, split: split})
}

// TestClassedSolveMatchesPerType solves markets once over the sorted
// run and once type by type (perTypeSolve) from the same start, in both
// modes, with a flat edge whose binding capacity splits at
// μ = P_c − P_e (budgets large enough that none binds), and on an
// unsorted exact market on two fork rates: the roots and points agree
// to the share solver's tolerance.
func TestClassedSolveMatchesPerType(t *testing.T) {
	classes := []miner.Class{{Budget: 40, Count: 5}, {Budget: 90, Count: 2}, {Budget: 150, Count: 9}, {Budget: 400, Count: 1}}
	for _, tc := range []struct {
		name  string
		cfg   Config
		p     Prices
		scale float64 // of the budgets
		betas []float64
	}{
		{"connected", Config{Mode: netmodel.Connected, Beta: 0.2}, Prices{Edge: 8, Cloud: 4}, 1, nil},
		{"standalone binding", Config{Mode: netmodel.Standalone, Beta: 0.2, EdgeCapacity: 10}, Prices{Edge: 8, Cloud: 4}, 1, nil},
		{"standalone flat split", Config{Mode: netmodel.Standalone, EdgeCapacity: 10}, Prices{Edge: 3, Cloud: 4}, 10, nil},
		{"connected betas", Config{Mode: netmodel.Connected, Beta: 0.2}, Prices{Edge: 8, Cloud: 4}, 1, []float64{0.3, 0.1, 0.3, 0.1, 0.3, 0.1}},
	} {
		cfg := tc.cfg
		cfg.Reward, cfg.SatisfyProb = 1000, 0.7
		var m *market
		if tc.betas != nil {
			m = typedMarket(cfg, []float64{150, 40, 90, 400, 40, 150}, nil, tc.betas)
		} else {
			scaled := make([]miner.Class, len(classes))
			for k, cl := range classes {
				scaled[k] = miner.Class{Budget: cl.Budget * tc.scale, Count: cl.Count}
			}
			cp, err := miner.FromClasses(scaled)
			if err != nil {
				t.Fatal(err)
			}
			cfg.N, cfg.Budgets = cp.N(), []float64{100}
			m = classedMarket(cfg, cp)
		}
		seed, _ := m.seed(tc.p)
		start := warmStart{totals: seed, ok: true}
		got, err := m.solve(tc.p, game.NEOptions{}, start)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		res, want := perTypeSolve(m, tc.p, start.totals)
		if !got.Converged || !res.Converged {
			t.Fatalf("%s: converged %v sorted, %v per type", tc.name, got.Converged, res.Converged)
		}
		if split := tc.p.Cloud - tc.p.Edge; tc.scale > 1 && (got.Multiplier != split || res.Mu != split) {
			t.Errorf("%s: μ = %g sorted, %g per type; the split clears at %g", tc.name, got.Multiplier, res.Mu, split)
		}
		for k, r := range want {
			if d := r.Sub(got.Requests[k]).Norm(); d > 1e-9*r.Norm() {
				t.Errorf("%s: type %d plays %v over the sorted run, %v per type", tc.name, k, got.Requests[k], r)
			}
		}
		wantT := m.totals(want)
		d, err := m.probe(tc.p, game.NEOptions{}, start)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(d.E-wantT.E) > 1e-9*wantT.E || math.Abs(d.C-wantT.C) > 1e-9*wantT.C {
			t.Errorf("%s: probe demand (%g, %g), per type (%g, %g)", tc.name, d.E, d.C, wantT.E, wantT.C)
		}
		// Short of convergence a probe reports its points' own sums, split
		// at the root's edge fraction when the capacity split.
		params, capacity, split := m.cfg.Params(tc.p), math.Inf(1), tc.scale > 1
		if m.cfg.Mode == netmodel.Standalone {
			params.H, capacity = 1, m.cfg.EdgeCapacity
		}
		res = m.shares(params, capacity, start.totals, game.NEOptions{}).res
		res.Converged = false
		sumE, sumS := perTypeSums(m, params, res.Mu, res.Edge, res.Total)
		if split {
			sumE = sumS * res.Edge / res.Total
		}
		if got := m.run.totals(params, res, split); got.Sub(numeric.Point2{E: sumE, C: sumS - sumE}).Norm() > 1e-12*sumS {
			t.Errorf("%s: unconverged totals %+v, per type (%g, %g)", tc.name, got, sumE, sumS-sumE)
		}
	}
}

// FuzzClassedSums checks the sorted run's share pass and seed against
// their per-type oracles (checkClassedSums) over fuzzed prices, fork
// rate, reward, capacity price and trial totals. Each byte pair of
// classes is one type, in the given order: a budget over six decades
// and a count (zero drops the type from the totals), scaled by a
// billion when big is set; unit gives every type one miner, as the
// exact market does. A non-empty forks puts type k on fork rate
// forks[k mod len]/256, splitting the run into groups. The three
// breakpoint budgets of miner.Share join them on cfg.Beta. Inputs
// outside [1e-6, 1e6] are skipped.
func FuzzClassedSums(f *testing.F) {
	sorted := []byte{10, 3, 90, 1, 140, 7, 200, 2}
	unsorted := []byte{200, 2, 10, 3, 140, 0, 90, 1, 10, 4}
	// standalone, R, β, P_e, P_c, μ, E, S, big, classes, unit, forks
	f.Add(false, 1000.0, 0.2, 8.0, 4.0, 0.0, 10.0, 60.0, false, sorted, false, []byte(nil))
	f.Add(false, 1000.0, 0.2, 3.0, 4.0, 0.0, 10.0, 60.0, false, sorted, false, []byte(nil))
	f.Add(true, 1000.0, 0.2, 8.0, 4.0, 1.5, 10.0, 60.0, true, sorted, false, []byte(nil))
	f.Add(true, 1000.0, 0.0, 3.0, 4.0, 1.0, 30.0, 40.0, false, []byte{120, 5}, false, []byte(nil))
	f.Add(false, 1000.0, 0.0, 8.0, 4.0, 0.0, 60.0, 60.0, true, []byte{0, 255, 255, 0}, false, []byte(nil))
	f.Add(false, 1000.0, 0.2, 8.0, 4.0, 0.0, 10.0, 60.0, false, unsorted, false, []byte(nil))
	f.Add(false, 1000.0, 0.2, 8.0, 4.0, 0.0, 10.0, 60.0, false, unsorted, true, []byte(nil))
	f.Add(false, 1000.0, 0.2, 8.0, 4.0, 0.0, 10.0, 60.0, false, unsorted, false, []byte{51, 102})
	f.Add(true, 1000.0, 0.2, 8.0, 4.0, 1.5, 10.0, 60.0, false, unsorted, true, []byte{0, 90, 51})
	f.Add(true, 1000.0, 0.0, 3.0, 4.0, 1.0, 30.0, 40.0, true, unsorted, false, []byte{0, 0, 64})
	f.Fuzz(func(t *testing.T, standalone bool, reward, beta, pe, pc, mu, e, s float64, big bool, raw []byte, unit bool, forks []byte) {
		sane := func(x float64) bool { return x >= 1e-6 && x <= 1e6 }
		if !sane(reward) || !sane(pe) || !sane(pc) || !sane(s) || !(beta >= 0 && beta < 1) ||
			!(mu == 0 || sane(mu)) || !(e == 0 || sane(e)) || len(raw) < 2 || len(raw) > 64 || len(forks) > 8 {
			return
		}
		cfg := Config{Mode: netmodel.Connected, Budgets: []float64{1}, Reward: reward, Beta: beta, SatisfyProb: 0.7, EdgeCapacity: e + 1}
		if standalone {
			cfg.Mode = netmodel.Standalone
		}
		p := Prices{Edge: pe, Cloud: pc}
		var budgets, betas []float64
		var counts []int
		for i := 0; i+1 < len(raw); i += 2 {
			budgets = append(budgets, math.Pow(10, float64(raw[i])/255*6-3))
			n := int(raw[i+1])
			if big {
				n *= 1e9
			}
			counts = append(counts, n)
			if len(forks) > 0 {
				betas = append(betas, float64(forks[len(betas)%len(forks)])/256)
			}
		}
		for _, b := range shareBreakpoints(cfg, p, mu, e, s) {
			budgets, counts = append(budgets, b), append(counts, 3)
			if betas != nil {
				betas = append(betas, beta)
			}
		}
		if unit {
			counts = nil
		}
		checkClassedSums(t, typedMarket(cfg, budgets, counts, betas), p, mu, e, s)
	})
}
