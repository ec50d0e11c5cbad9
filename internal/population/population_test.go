package population

import (
	"math"
	"testing"

	"minegame/internal/core"
	"minegame/internal/game"
	"minegame/internal/miner"
	"minegame/internal/netmodel"
	"minegame/internal/numeric"
)

func testParams() miner.Params {
	return miner.Params{Reward: 1000, Beta: 0.2, H: 0.7, PriceE: 8, PriceC: 4}
}

func TestModelValidateAndPMF(t *testing.T) {
	m := Model{Mu: 10, Sigma: 2}
	pmf, err := m.PMF()
	if err != nil {
		t.Fatalf("PMF: %v", err)
	}
	var total float64
	for _, p := range pmf.P {
		total += p
	}
	if math.Abs(total-1) > 1e-12 {
		t.Errorf("PMF mass = %.15f", total)
	}
	if pmf.Lo != 1 {
		t.Errorf("support starts at %d, want 1 (paper truncates at k ≥ 1)", pmf.Lo)
	}
	for _, bad := range []Model{
		{Mu: 0, Sigma: 2}, {Mu: 10, Sigma: 0}, {Mu: 10, Sigma: 2, MaxN: -1},
		// Non-finite parameters must be rejected, not discretized: a NaN
		// mean satisfies neither Mu < 1 nor Mu ≥ 1 and used to slip
		// through the range checks (found by FuzzPopulationPMF).
		{Mu: math.NaN(), Sigma: 2}, {Mu: 10, Sigma: math.NaN()},
		{Mu: math.Inf(1), Sigma: 2}, {Mu: 10, Sigma: math.Inf(1)},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("model %+v should be invalid", bad)
		}
	}
}

func TestDegenerate(t *testing.T) {
	d := Degenerate(5)
	if d.Prob(5) != 1 || d.Prob(4) != 0 || d.Mean() != 5 {
		t.Errorf("degenerate PMF = %+v", d)
	}
}

// TestExpectedUtilityDegenerateEqualsConnected verifies the structural
// identity: with a point distribution at k = n the dynamic objective is
// exactly the connected-mode utility (h·W^h + (1−h)·W^{1−h} = Eq. 9).
func TestExpectedUtilityDegenerateEqualsConnected(t *testing.T) {
	p := testParams()
	pmf := Degenerate(5)
	peer := numeric.Point2{E: 5, C: 20}
	for _, own := range []numeric.Point2{{E: 2, C: 10}, {E: 8, C: 1}, {E: 0, C: 15}} {
		env := miner.Env{EdgeOthers: 4 * peer.E, CloudOthers: 4 * peer.C}
		want := miner.UtilityConnected(p, own, env)
		got := ExpectedUtility(p, pmf, own, peer)
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("own %+v: dynamic %g != connected %g", own, got, want)
		}
	}
}

// grad2 is a central finite-difference gradient of f in the own request.
func grad2(f func(numeric.Point2) float64, x numeric.Point2) numeric.Point2 {
	const h = 1e-5
	return numeric.Point2{
		E: (f(numeric.Point2{E: x.E + h, C: x.C}) - f(numeric.Point2{E: x.E - h, C: x.C})) / (2 * h),
		C: (f(numeric.Point2{E: x.E, C: x.C + h}) - f(numeric.Point2{E: x.E, C: x.C - h})) / (2 * h),
	}
}

// TestExpectedGradMatchesFiniteDifferences checks the identity the
// transfer-form closed form rests on: at own = peer = (e, c) the
// expected-utility gradient in (e, c) is
// (R[(1−β)m/s + hβm/e] − P_e, R(1−β)m/s − P_c) with m = E[(N−1)/N²].
func TestExpectedGradMatchesFiniteDifferences(t *testing.T) {
	p := testParams()
	pmf, err := Model{Mu: 6, Sigma: 2}.PMF()
	if err != nil {
		t.Fatalf("PMF: %v", err)
	}
	m := rivalry(pmf)
	for _, x := range []numeric.Point2{{E: 3, C: 12}, {E: 7, C: 2}, {E: 1, C: 30}} {
		s := x.E + x.C
		want := numeric.Point2{
			E: p.Reward*((1-p.Beta)*m/s+p.H*p.Beta*m/x.E) - p.PriceE,
			C: p.Reward*(1-p.Beta)*m/s - p.PriceC,
		}
		fd := grad2(func(r numeric.Point2) float64 { return ExpectedUtility(p, pmf, r, x) }, x)
		if !numeric.AlmostEqual(want.E, fd.E, 1e-4) || !numeric.AlmostEqual(want.C, fd.C, 1e-4) {
			t.Errorf("own = peer = %+v: formula %+v, fd %+v", x, want, fd)
		}
	}
}

// TestSymmetricEquilibriumDegenerateMatchesClosedForm pins the fixed
// population to the connected-mode game: at Degenerate(n) the symmetric
// equilibrium is miner.HomogeneousConnected, and the share engine's
// core.SolveMinerEquilibrium lands on the same point, on interior,
// budget-bound and all-edge price pairs.
func TestSymmetricEquilibriumDegenerateMatchesClosedForm(t *testing.T) {
	cases := []struct {
		name           string
		pe, pc, budget float64
	}{
		{"interior", 8, 4, 200},
		{"budget-bound", 8, 4, 10},
		{"all-edge", 3, 4, 200},
	}
	for _, tc := range cases {
		for _, n := range []int{2, 5, 10, 100} {
			p := testParams()
			p.PriceE, p.PriceC = tc.pe, tc.pc
			eq, err := SymmetricEquilibrium(p, Degenerate(n), tc.budget, SolveOptions{})
			if err != nil {
				t.Fatalf("%s n=%d: %v", tc.name, n, err)
			}
			if !eq.Converged {
				t.Fatalf("%s n=%d: not converged: %+v", tc.name, n, eq)
			}
			want, err := miner.HomogeneousConnected(p, n, tc.budget)
			if err != nil {
				t.Fatalf("%s n=%d: closed form: %v", tc.name, n, err)
			}
			cfg := core.Config{
				N: n, Budgets: []float64{tc.budget}, Reward: p.Reward, Beta: p.Beta,
				SatisfyProb: p.H, Mode: netmodel.Connected, EdgeCapacity: math.Inf(1),
			}
			engine, err := core.SolveMinerEquilibrium(cfg, core.Prices{Edge: tc.pe, Cloud: tc.pc}, game.NEOptions{})
			if err != nil {
				t.Fatalf("%s n=%d: share engine: %v", tc.name, n, err)
			}
			for _, ref := range []struct {
				name string
				x    numeric.Point2
			}{{"closed form", want.Request}, {"share engine", engine.Requests[0]}} {
				if !close12(eq.Request.E, ref.x.E) || !close12(eq.Request.C, ref.x.C) {
					t.Errorf("%s n=%d: %+v != %s %+v", tc.name, n, eq.Request, ref.name, ref.x)
				}
			}
		}
	}
}

// close12 reports agreement to 1e-12, relative above magnitude 1.
func close12(a, b float64) bool {
	return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b))
}

// TestLoneMinerPopulation: with all mass at N = 1 (m = 0) no rival ever
// shows up, so the supremum R·(h + (1−h)(1−β)) is approached as the
// request shrinks; the answer is the smallest counted request, finite,
// and converged.
func TestLoneMinerPopulation(t *testing.T) {
	p := testParams()
	sup := p.Reward * (p.H + (1-p.H)*(1-p.Beta))
	for _, form := range []Degraded{DegradedTransfer, DegradedReject} {
		eq, err := SymmetricEquilibrium(p, Degenerate(1), 200, SolveOptions{Form: form})
		if err != nil {
			t.Fatalf("form %d: %v", form, err)
		}
		if !eq.Converged || math.IsNaN(eq.Utility) || eq.Request.E+eq.Request.C > 2*miner.Quantum {
			t.Fatalf("form %d: %+v", form, eq)
		}
		if math.Abs(eq.Utility-sup) > 1e-9*sup {
			t.Errorf("form %d: utility %g, want the supremum %g", form, eq.Utility, sup)
		}
	}
}

// TestUncertaintyInflatesEdgeDemand is the paper's §V headline: population
// uncertainty renders miners more aggressive at the ESP, and a larger
// variance amplifies the effect (Fig. 9(a)/(b)). μ = 10 matches the
// paper's Fig. 3 example and keeps the k ≥ 1 truncation negligible, so
// the comparison isolates pure uncertainty at a matched mean.
func TestUncertaintyInflatesEdgeDemand(t *testing.T) {
	p := testParams()
	const budget = 200.0
	fixed, err := SymmetricEquilibrium(p, Degenerate(10), budget, SolveOptions{})
	if err != nil {
		t.Fatalf("fixed: %v", err)
	}
	prevE := fixed.Request.E
	for _, sigma := range []float64{1, 2, 3} {
		pmf, err := Model{Mu: 10, Sigma: sigma}.PMF()
		if err != nil {
			t.Fatalf("PMF σ=%g: %v", sigma, err)
		}
		if math.Abs(pmf.Mean()-10) > 0.05 {
			t.Fatalf("σ=%g: PMF mean %g drifted from 10", sigma, pmf.Mean())
		}
		dyn, err := SymmetricEquilibrium(p, pmf, budget, SolveOptions{})
		if err != nil {
			t.Fatalf("dynamic σ=%g: %v", sigma, err)
		}
		if !dyn.Converged {
			t.Fatalf("dynamic σ=%g not converged", sigma)
		}
		if dyn.Request.E <= prevE {
			t.Errorf("σ=%g: e* = %g did not increase over %g (uncertainty should inflate ESP demand)",
				sigma, dyn.Request.E, prevE)
		}
		prevE = dyn.Request.E
	}
}

// TestMeanPreservingSpreadInflatesDemand checks the pure effect with a
// two-point spread that holds the mean at exactly 5: both the edge and
// the total demand grow with the spread.
func TestMeanPreservingSpreadInflatesDemand(t *testing.T) {
	p := testParams()
	const budget = 200.0
	fixed, err := SymmetricEquilibrium(p, Degenerate(5), budget, SolveOptions{})
	if err != nil {
		t.Fatalf("fixed: %v", err)
	}
	spread := numeric.DiscretePMF{Lo: 3, P: []float64{0.5, 0, 0, 0, 0.5}} // {3, 7} w.p. ½ each
	dyn, err := SymmetricEquilibrium(p, spread, budget, SolveOptions{})
	if err != nil {
		t.Fatalf("spread: %v", err)
	}
	if dyn.Request.E <= fixed.Request.E {
		t.Errorf("edge demand %g did not grow over fixed %g", dyn.Request.E, fixed.Request.E)
	}
	if total, fixedTotal := dyn.Request.E+dyn.Request.C, fixed.Request.E+fixed.Request.C; total <= fixedTotal {
		t.Errorf("total demand %g did not grow over fixed %g", total, fixedTotal)
	}
}

func TestSymmetricEquilibriumErrors(t *testing.T) {
	p := testParams()
	if _, err := SymmetricEquilibrium(p, Degenerate(5), 0, SolveOptions{}); err == nil {
		t.Error("want error for zero budget")
	}
	if _, err := SymmetricEquilibrium(p, numeric.DiscretePMF{}, 100, SolveOptions{}); err == nil {
		t.Error("want error for empty PMF")
	}
	if _, err := SymmetricEquilibrium(p, numeric.DiscretePMF{Lo: 0, P: []float64{1}}, 100, SolveOptions{}); err == nil {
		t.Error("want error for a miner count of zero")
	}
	bad := p
	bad.Reward = 0
	if _, err := SymmetricEquilibrium(bad, Degenerate(5), 100, SolveOptions{}); err == nil {
		t.Error("want error for invalid params")
	}
}

// TestDegradedRejectFormIsHarsherOnEdge: when failure means outright
// rejection (the edge request and its power vanish, Eq. 8) instead of a
// cloud transfer (Eq. 7), miners hedge by buying fewer edge units.
func TestDegradedRejectFormIsHarsherOnEdge(t *testing.T) {
	p := testParams()
	pmf, err := Model{Mu: 10, Sigma: 2}.PMF()
	if err != nil {
		t.Fatalf("PMF: %v", err)
	}
	transfer, err := SymmetricEquilibrium(p, pmf, 200, SolveOptions{Form: DegradedTransfer})
	if err != nil {
		t.Fatalf("transfer form: %v", err)
	}
	reject, err := SymmetricEquilibrium(p, pmf, 200, SolveOptions{Form: DegradedReject})
	if err != nil {
		t.Fatalf("reject form: %v", err)
	}
	if !transfer.Converged || !reject.Converged {
		t.Fatal("equilibria did not converge")
	}
	if reject.Request.E >= transfer.Request.E {
		t.Errorf("reject-form e* = %g should fall below transfer-form %g",
			reject.Request.E, transfer.Request.E)
	}
	if reject.Utility >= transfer.Utility {
		t.Errorf("reject-form utility %g should fall below transfer-form %g",
			reject.Utility, transfer.Utility)
	}
}

// TestExpectedGradRejectFormMatchesFiniteDifferences checks
// rejectGradient, the reject form's own-gradient at own = peer, against
// finite differences of the expected utility.
func TestExpectedGradRejectFormMatchesFiniteDifferences(t *testing.T) {
	p := testParams()
	pmf, err := Model{Mu: 6, Sigma: 2}.PMF()
	if err != nil {
		t.Fatalf("PMF: %v", err)
	}
	grad := rejectGradient(p, pmf, rivalry(pmf))
	for _, x := range []numeric.Point2{{E: 3, C: 12}, {E: 7, C: 2}, {E: 0.5, C: 20}} {
		ge, gc := grad(x.E, x.C)
		fd := grad2(func(r numeric.Point2) float64 { return ExpectedUtilityForm(p, pmf, r, x, DegradedReject) }, x)
		if !numeric.AlmostEqual(ge, fd.E, 1e-4) || !numeric.AlmostEqual(gc, fd.C, 1e-4) {
			t.Errorf("own = peer = %+v: gradient (%g, %g), fd %+v", x, ge, gc, fd)
		}
	}
}

// dampedReject is the fixed-point iteration the closed forms replaced,
// peer ← 0.75·peer + 0.25·BR(peer), with the best response found by
// nested golden-section search over the budget polygon.
func dampedReject(p miner.Params, pmf numeric.DiscretePMF, budget float64) numeric.Point2 {
	peer := numeric.Point2{E: budget / (4 * p.PriceE), C: budget / (4 * p.PriceC)}
	for it := 0; it < 2000; it++ {
		f := func(r numeric.Point2) float64 { return ExpectedUtilityForm(p, pmf, r, peer, DegradedReject) }
		inner := func(e float64) (float64, float64) {
			return numeric.MaximizeGolden(func(c float64) float64 {
				return f(numeric.Point2{E: e, C: c})
			}, 0, math.Max((budget-p.PriceE*e)/p.PriceC, 0), 1e-12)
		}
		e, _ := numeric.MaximizeGolden(func(e float64) float64 { _, v := inner(e); return v }, 0, budget/p.PriceE, 1e-12)
		c, _ := inner(e)
		next := peer.Scale(0.75).Add(numeric.Point2{E: e, C: c}.Scale(0.25))
		done := next.Sub(peer).Norm() < 1e-8
		peer = next
		if done {
			break
		}
	}
	return peer
}

// TestRejectFormMatchesDampedIteration checks each face of the reject
// form's closed form against the damped iteration.
func TestRejectFormMatchesDampedIteration(t *testing.T) {
	pmf, err := Model{Mu: 10, Sigma: 2}.PMF()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name      string
		edit      func(*miner.Params)
		budget    float64
		wantC0    bool // the c = 0 face (c → 0⁺ when P(1) > 0)
		wantSpent bool // the budget face
	}{
		{"interior", func(*miner.Params) {}, 200, false, false},
		{"budget face", func(*miner.Params) {}, 40, false, true},
		{"c = 0 face", func(p *miner.Params) { p.PriceC = 40; p.H = 0.95 }, 200, true, false},
		{"budget corner c = 0", func(p *miner.Params) { p.PriceC = 40; p.H = 0.95 }, 5, true, true},
		{"h = 0", func(p *miner.Params) { p.H = 0 }, 200, false, false},
	}
	for _, tc := range cases {
		p := testParams()
		tc.edit(&p)
		eq, err := SymmetricEquilibrium(p, pmf, tc.budget, SolveOptions{Form: DegradedReject})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		x := eq.Request
		if (x.C <= miner.Quantum) != tc.wantC0 || (math.Abs(p.Spend(x)-tc.budget) < 1e-9*tc.budget) != tc.wantSpent {
			t.Errorf("%s: %+v (spend %g of %g) is not on the expected face", tc.name, x, p.Spend(x), tc.budget)
		}
		ref := dampedReject(p, pmf, tc.budget)
		if math.Abs(x.E-ref.E) > 1e-6*math.Max(1, ref.E) || math.Abs(x.C-ref.C) > 1e-6*math.Max(1, ref.C) {
			t.Errorf("%s: closed form %+v, damped iteration %+v", tc.name, x, ref)
		}
	}
}
