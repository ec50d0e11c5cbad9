package core

import (
	"math"
	"math/rand"
	"testing"

	"minegame/internal/game"
	"minegame/internal/netmodel"
	"minegame/internal/numeric"
)

// oracleClearing is the standalone clearing price at pc found the way
// the bargain found it before the share system took P_e as an unknown:
// a Brent root over the clearingBracket of the capacity-free market's
// edge demand less the capacity, each probe seeded at its own prices.
// ok is false when the capacity does not bind at the bracket's floor;
// a demand that still covers the capacity at the ceiling gives hi.
func oracleClearing(m *market, pc float64) (float64, bool) {
	free := *m
	free.cfg.EdgeCapacity = math.Inf(1)
	capacity := m.cfg.EdgeCapacity
	demand := func(pe float64) float64 {
		t, err := free.probe(Prices{Edge: pe, Cloud: pc}, game.NEOptions{}, warmStart{})
		if err != nil {
			return 0
		}
		return t.E
	}
	lo, hi := m.cfg.clearingBracket(pc)
	if demand(lo) < capacity {
		return 0, false
	}
	if demand(hi) >= capacity {
		return hi, true
	}
	pe, err := numeric.BrentRoot(func(pe float64) float64 { return demand(pe) - capacity }, lo, hi, 1e-6*(1+hi))
	return pe, err == nil
}

// checkClearingRoot compares market.clearing at pc with oracleClearing:
// the same verdict, prices within the oracle's 1e-6·(1 + hi) tolerance,
// and a C that a fresh probe of the capacity-bound market at the root's
// price reproduces to 1e-9 of its total S. The verdicts may differ
// only where the capacity equals the demand at the bracket's floor
// within that tolerance: clearing at lo and not clearing are then the
// same answer. It returns the root's verdict: "slack", "binding", or
// "saturated" at hi.
func checkClearingRoot(t *testing.T, cfg Config, pc float64) string {
	t.Helper()
	m := exactMarket(cfg)
	pe, got, ok, err := m.clearing(pc, game.NEOptions{})
	if err != nil {
		t.Fatalf("clearing at P_c = %v: %v (config %+v)", pc, err, cfg)
	}
	want, wantOK := oracleClearing(m, pc)
	lo, hi := cfg.clearingBracket(pc)
	tol := 1e-6 * (1 + hi)
	if ok != wantOK && !(ok && pe-lo <= tol || wantOK && want-lo <= tol) {
		t.Fatalf("clearing at P_c = %v: ok %v (P_e %v), oracle ok %v (P_e %v); config %+v", pc, ok, pe, wantOK, want, cfg)
	}
	if !ok || !wantOK {
		return "slack"
	}
	if d := math.Abs(pe - want); !(d <= tol) {
		t.Errorf("clearing at P_c = %v: P_e %v, oracle %v (|Δ| %.3g > %.3g); config %+v", pc, pe, want, d, tol, cfg)
	}
	fresh, err := m.probe(Prices{Edge: pe, Cloud: pc}, game.NEOptions{}, warmStart{})
	if err != nil {
		t.Fatalf("probe at (%v, %v): %v", pe, pc, err)
	}
	// The root's E is the capacity; its C is the difference S − E, so
	// it is accurate to the rounding of S. Where every miner buys edge
	// alone the share system is ill-conditioned in E at E = S, and the
	// probe's edge demand meets the capacity only to about 1e-9.
	scale := fresh.E + fresh.C
	if d := math.Abs(got.C - fresh.C); !(d <= 1e-9*scale) {
		t.Errorf("clearing at P_c = %v: root C = %v, probe at P_e %v reads %v (%.3g of S); config %+v",
			pc, got.C, pe, fresh.C, d/scale, cfg)
	}
	if d := math.Abs(got.E - fresh.E); !(d <= 1e-6*scale) {
		t.Errorf("clearing at P_c = %v: root E = %v, probe at P_e %v reads %v (%.3g of S); config %+v",
			pc, got.E, pe, fresh.E, d/scale, cfg)
	}
	if pe >= hi {
		return "saturated"
	}
	return "binding"
}

// clearingConfig is a standalone market of the given budgets whose
// capacity sits at the fraction capFrac of the way between the
// capacity-free edge demand at the clearing bracket's ceiling (capFrac
// 0) and at its floor (capFrac 1), measured at pc: capFrac in (0, 1)
// binds, capFrac > 1 leaves the capacity slack, and capFrac < 0 sells
// it out even at the ceiling.
func clearingConfig(reward, beta, costE, costC float64, budgets []float64, pc, capFrac float64) Config {
	cfg := Config{
		Mode: netmodel.Standalone, N: len(budgets), Budgets: budgets,
		Reward: reward, Beta: beta, SatisfyProb: 0.7, EdgeCapacity: math.Inf(1),
		CostE: costE, CostC: costC,
	}
	m := exactMarket(cfg)
	lo, hi := cfg.clearingBracket(pc)
	at := func(pe float64) float64 {
		t, _ := m.probe(Prices{Edge: pe, Cloud: pc}, game.NEOptions{}, warmStart{})
		return t.E
	}
	dLo, dHi := at(lo), at(hi)
	cfg.EdgeCapacity = dHi + capFrac*(dLo-dHi)
	if capFrac < 0 {
		cfg.EdgeCapacity = dHi * (1 + capFrac/2)
	}
	// A market that buys no edge at the ceiling cannot sell out there,
	// and one that buys none at the floor (a flat edge above P_c) leaves
	// any capacity slack.
	cfg.EdgeCapacity = math.Max(cfg.EdgeCapacity, 1e-3*(1+dLo))
	return cfg
}

// TestClearingRootMatchesBrent compares the one-solve clearing price
// with the nested Brent search over 600 random standalone markets of 2
// to 12 miners: budgets log-uniform over 0.5–500, so that miners sit on
// both faces of the closed form, a flat edge (β = 0) in one market of
// four, and capacities that bind, stay slack or still sell out at the
// bracket's ceiling. A flat edge priced above the cloud sells nothing,
// so its capacity never binds.
func TestClearingRootMatchesBrent(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	logU := func(lo, hi float64) float64 {
		return math.Exp(math.Log(lo) + (math.Log(hi)-math.Log(lo))*rng.Float64())
	}
	verdicts := map[string]int{}
	for i := 0; i < 600; i++ {
		budgets := make([]float64, 2+rng.Intn(11))
		for k := range budgets {
			budgets[k] = logU(0.5, 500)
		}
		beta := 0.9 * rng.Float64()
		if i%4 == 0 {
			beta = 0
		}
		costE, costC := logU(0.1, 5), logU(0.1, 5)
		capFrac := rng.Float64()
		switch i % 10 {
		case 8:
			capFrac = 1 + rng.Float64()
		case 9:
			capFrac = -rng.Float64()
		}
		reward := logU(50, 2000)
		pc := costC + logU(0.05, 20)
		verdicts[checkClearingRoot(t, clearingConfig(reward, beta, costE, costC, budgets, pc, capFrac), pc)]++
	}
	for _, v := range []string{"slack", "binding", "saturated"} {
		if verdicts[v] < 30 {
			t.Errorf("%d of 600 markets %s, want ≥ 30 (verdicts %v)", verdicts[v], v, verdicts)
		}
	}
}

// FuzzClearingRoot runs checkClearingRoot on fuzzed standalone markets:
// reward, fork rate, costs, the CSP price, the capacity's place between
// the bracket's demands (clearingConfig) and up to 12 budgets, two
// given and the rest from bytes log-spaced over e^-2..e^6.
func FuzzClearingRoot(f *testing.F) {
	// R, β, C_e, C_c, P_c, capFrac, b0, b1, extra
	f.Add(100.0, 0.5, 1.0, 0.5, 3.0, 0.5, 8.5, 11.5, []byte{120, 140, 160, 180, 200})
	f.Add(1000.0, 0.2, 2.0, 1.0, 6.0, 0.3, 200.0, 190.0, []byte{240, 250})
	f.Add(1000.0, 0.0, 2.0, 1.0, 4.0, 0.7, 5.0, 400.0, []byte{10, 90})
	f.Add(100.0, 0.5, 1.0, 0.5, 2.0, 1.5, 8.0, 12.0, []byte(nil))
	f.Add(100.0, 0.5, 1.0, 0.5, 2.0, -0.5, 8.0, 12.0, []byte{0, 255})
	f.Add(500.0, 0.8, 0.2, 3.0, 9.0, 0.05, 1.0, 30.0, []byte{30, 60, 90, 120, 150, 180, 210, 240, 255, 5})
	f.Fuzz(func(t *testing.T, reward, beta, costE, costC, pc, capFrac, b0, b1 float64, extra []byte) {
		sane := func(x, lo, hi float64) bool { return x >= lo && x <= hi }
		if !sane(reward, 1, 1e4) || !sane(beta, 0, 0.95) || !sane(costE, 0.01, 10) || !sane(costC, 0.01, 10) ||
			!sane(pc, costC+1e-3, 40*math.Max(1, math.Max(costE, costC))) || !sane(capFrac, -0.99, 3) ||
			!sane(b0, 0.1, 1e3) || !sane(b1, 0.1, 1e3) || len(extra) > 10 {
			return
		}
		budgets := []float64{b0, b1}
		for _, x := range extra {
			budgets = append(budgets, math.Exp(8*float64(x)/255-2))
		}
		checkClearingRoot(t, clearingConfig(reward, beta, costE, costC, budgets, pc, capFrac), pc)
	})
}
