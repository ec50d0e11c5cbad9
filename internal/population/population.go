// Package population implements the paper's dynamic-miner-number scenario
// (§V): the miner count N is a random variable N ~ 𝒩(μ, σ²), discretized
// as P(k) = Φ(k) − Φ(k−1) and truncated to k ≥ 1. Homogeneous miners
// maximize their EXPECTED utility over the realized population
// (Problem 1d). The symmetric equilibrium has closed forms: see
// SymmetricEquilibrium.
//
// The expected utility follows the law of total expectation the paper
// invokes (its Eq. 26 prints the h = 0.5 special case, with an evident
// sign typo on the cost terms):
//
//	U(e, c) = h·Σ_k P(k)·R·W^h_k + (1−h)·Σ_k P(k)·R·W^{1−h}_k − (P_e·e + P_c·c)
//
// where, with k−1 peers playing the common strategy,
// W^h_k is the fully satisfied probability (Eq. 6) and
// W^{1−h}_k = (1−β)(e+c)/S_k the degraded one (Eq. 7).
package population

import (
	"fmt"
	"math"

	"minegame/internal/miner"
	"minegame/internal/numeric"
)

// Model is the random miner count.
type Model struct {
	Mu    float64 // mean μ of the underlying Gaussian
	Sigma float64 // standard deviation σ (> 0)
	// MaxN truncates the support above. Zero picks μ + 8σ.
	MaxN int
}

// Validate reports model errors. Non-finite parameters are rejected
// explicitly: a NaN mean satisfies neither m.Mu < 1 nor m.Mu ≥ 1, so
// without these checks it would slip through and poison the PMF.
func (m Model) Validate() error {
	if !(m.Mu >= 1) || math.IsInf(m.Mu, 0) {
		return fmt.Errorf("population: mean %g must be finite and at least 1", m.Mu)
	}
	if !(m.Sigma > 0) || math.IsInf(m.Sigma, 0) {
		return fmt.Errorf("population: sigma %g must be positive and finite", m.Sigma)
	}
	if m.MaxN < 0 {
		return fmt.Errorf("population: max miners %d must be non-negative", m.MaxN)
	}
	return nil
}

// PMF returns the discretized, truncated miner-count distribution using
// the round-to-nearest convention P(k) = Φ(k+½) − Φ(k−½), which keeps the
// discrete mean at μ (up to the k ≥ 1 truncation). The paper's printed
// formula P(k) = Φ(k) − Φ(k−1) is a ceiling that silently shifts the mean
// up by one half, which would confound "uncertainty" with "more rivals on
// average" when comparing against the fixed scenario N = μ; PMFCeil
// provides that literal form for reference.
func (m Model) PMF() (numeric.DiscretePMF, error) {
	if err := m.Validate(); err != nil {
		return numeric.DiscretePMF{}, err
	}
	// DiscretizedGaussian assigns k the mass of (k−1, k] (a ceiling);
	// shifting the underlying mean down by one half turns that into the
	// rounding convention P(k) = Φ(k+½) − Φ(k−½) around μ.
	return numeric.DiscretizedGaussian(m.Mu-0.5, m.Sigma, 1, m.hi())
}

// PMFCeil is the paper's literal discretization P(k) = Φ(k) − Φ(k−1),
// truncated to [1, MaxN] and renormalized.
func (m Model) PMFCeil() (numeric.DiscretePMF, error) {
	if err := m.Validate(); err != nil {
		return numeric.DiscretePMF{}, err
	}
	return numeric.DiscretizedGaussian(m.Mu, m.Sigma, 1, m.hi())
}

func (m Model) hi() int {
	hi := m.MaxN
	if hi == 0 {
		hi = int(math.Ceil(m.Mu + 8*m.Sigma))
	}
	if hi < 1 {
		hi = 1
	}
	return hi
}

// Degenerate returns the point distribution at exactly n miners — the
// fixed-population baseline evaluated through the same expected-utility
// machinery, so comparisons isolate the effect of uncertainty alone.
func Degenerate(n int) numeric.DiscretePMF {
	return numeric.DiscretePMF{Lo: n, P: []float64{1}}
}

// Degraded selects the failure branch of the expected utility: what
// happens to the (1−h) share of rounds where the ESP cannot serve the
// edge request.
type Degraded int

const (
	// DegradedTransfer uses Eq. 7 (connected ESP: the request mines in
	// the cloud) — the form the paper's Eq. 26 prints.
	DegradedTransfer Degraded = iota + 1
	// DegradedReject uses Eq. 8 (standalone ESP: the edge request and
	// its computing power vanish from the network) — §V's stated mode.
	DegradedReject
)

// ExpectedUtility evaluates Problem 1d's objective for a focal miner
// playing own while every peer plays peer, under miner-count PMF pmf
// (counts include the focal miner, so k−1 peers participate). It uses
// the transfer degraded form; ExpectedUtilityForm selects the branch.
func ExpectedUtility(p miner.Params, pmf numeric.DiscretePMF, own, peer numeric.Point2) float64 {
	return ExpectedUtilityForm(p, pmf, own, peer, DegradedTransfer)
}

// ExpectedUtilityForm is ExpectedUtility with an explicit degraded form.
func ExpectedUtilityForm(p miner.Params, pmf numeric.DiscretePMF, own, peer numeric.Point2, form Degraded) float64 {
	var wFull, wDeg float64
	for i, prob := range pmf.P {
		if prob == 0 {
			continue
		}
		k := pmf.Lo + i
		env := miner.Env{
			EdgeOthers:  float64(k-1) * peer.E,
			CloudOthers: float64(k-1) * peer.C,
		}
		wFull += prob * miner.WinProbFull(p.Beta, own, env)
		if form == DegradedReject {
			wDeg += prob * miner.WinProbRejected(p.Beta, own, env)
		} else {
			wDeg += prob * miner.WinProbTransferred(p.Beta, own, env)
		}
	}
	return p.Reward*(p.H*wFull+(1-p.H)*wDeg) - p.Spend(own)
}

// Equilibrium is a symmetric equilibrium of the dynamic-population game.
type Equilibrium struct {
	Request numeric.Point2 // the common strategy (e*, c*)
	// ExpectedEdgeDemand is E[N]·e*, the ESP demand the SPs anticipate.
	ExpectedEdgeDemand float64
	// ExpectedCloudDemand is E[N]·c*.
	ExpectedCloudDemand float64
	Utility             float64 // symmetric expected utility
	// Converged is false only when the common request is positive but
	// too small for the win probabilities to count (rewards far below
	// prices): there the closed form is not an equilibrium of the
	// utility as evaluated.
	Converged bool
}

// SolveOptions selects the expected utility's degraded branch.
type SolveOptions struct {
	// Form selects the degraded branch of the expected utility; the zero
	// value means DegradedTransfer (the paper's Eq. 26 printing).
	Form Degraded
}

// SymmetricEquilibrium solves the homogeneous dynamic-population game in
// closed form. With every peer on the common strategy x, the focal
// miner's expected-utility gradient at own = x is the fixed-n gradient
// with (n−1)/n² replaced by the expected rivalry m = Σ_k P(k)(k−1)/k²:
//
//   - the transfer form (Eq. 7) is miner.HomogeneousConnectedExpected;
//   - the reject form (Eq. 8) keeps the e-equation, which gives e(c) in
//     closed form, so each face is a 1-D root (rejectForm).
//
// When P(1) > 0 the rounds without a rival make the utility jump where
// the request starts to count, so the answer is at least the smallest
// counted request. At m = 0 (all mass at N = 1) that is all there is:
// the lone miner's supremum is approached as its request shrinks.
func SymmetricEquilibrium(p miner.Params, pmf numeric.DiscretePMF, budget float64, opts SolveOptions) (Equilibrium, error) {
	if err := p.Validate(); err != nil {
		return Equilibrium{}, err
	}
	if !(budget > 0) || math.IsInf(budget, 0) {
		return Equilibrium{}, fmt.Errorf("population: budget %g must be positive and finite", budget)
	}
	if len(pmf.P) == 0 {
		return Equilibrium{}, fmt.Errorf("population: empty miner-count distribution")
	}
	if pmf.Lo < 1 {
		return Equilibrium{}, fmt.Errorf("population: miner counts start at %d, must be at least 1", pmf.Lo)
	}
	form := opts.Form
	if form == 0 {
		form = DegradedTransfer
	}
	var x numeric.Point2
	if m := rivalry(pmf); form == DegradedReject {
		x = rejectForm(p, pmf, m, budget)
	} else {
		sol, err := miner.HomogeneousConnectedExpected(p, m, budget)
		if err != nil {
			return Equilibrium{}, err
		}
		x = sol.Request
	}
	if pmf.Prob(1) > 0 {
		// A round with no rival pays out for any request the win
		// probabilities count, and in the reject form its degraded
		// branch for any counted cloud request: below miner.Quantum the
		// closed form's point is the s → 0⁺ (c → 0⁺) limit point.
		need := miner.Quantum - x.E
		if form == DegradedReject {
			need = miner.Quantum
		}
		if x.C < need && p.PriceC*need < budget {
			x.C = need
			x.E = math.Min(x.E, (budget-p.PriceC*x.C)/p.PriceE)
		}
	}
	mean := pmf.Mean()
	s := x.E + x.C
	return Equilibrium{
		Request:             x,
		ExpectedEdgeDemand:  mean * x.E,
		ExpectedCloudDemand: mean * x.C,
		Utility:             ExpectedUtilityForm(p, pmf, x, x, form),
		Converged:           !(s > 0 && s < miner.Quantum),
	}, nil
}

// rivalry is m = E[(N−1)/N²], the expected-utility stand-in for the
// fixed-n factor (n−1)/n² of Corollary 1.
func rivalry(pmf numeric.DiscretePMF) float64 {
	var m float64
	for i, prob := range pmf.P {
		k := float64(pmf.Lo + i)
		m += prob * (k - 1) / (k * k)
	}
	return m
}

// rejectForm solves the reject form's symmetric KKT system (the
// gradient is rejectGradient's). G_e falls in e, so G_e = 0 fixes e(c)
// as the positive root of P_e·e² + (P_e·c − A)·e − Aβc = 0 with
// A = R·h·m, and the unbudgeted point is the c = 0 face when
// G_c(e(0), 0) ≤ 0 and otherwise the root of G_c(e(c), c) by Brent. If
// that point overspends, the budget face solves G_e/P_e = G_c/P_c along
// P_e·e + P_c·c = B the same way.
func rejectForm(p miner.Params, pmf numeric.DiscretePMF, m, budget float64) numeric.Point2 {
	cMax := budget / p.PriceC
	a := p.Reward * p.H * m
	if !(a > 0) {
		// The edge never serves (h = 0): only the cloud term is left,
		// and at e = 0 it is G_c = (1−β)R·m/c − P_c.
		return numeric.Point2{C: math.Min((1-p.Beta)*p.Reward*m/p.PriceC, cMax)}
	}
	gradient := rejectGradient(p, pmf, m)
	edge := func(c float64) float64 {
		b := p.PriceE*c - a
		disc := math.Sqrt(b*b + 4*p.PriceE*a*p.Beta*c)
		if b <= 0 {
			return (disc - b) / (2 * p.PriceE)
		}
		return 2 * a * p.Beta * c / (b + disc)
	}
	cloudSlope := func(c float64) float64 {
		_, gc := gradient(edge(c), c)
		return gc
	}
	x := numeric.Point2{E: edge(0)}
	if cloudSlope(0) > 0 {
		if !(cloudSlope(cMax) < 0) {
			return rejectBudget(p, budget, gradient)
		}
		c := root(cloudSlope, 0, cMax)
		x = numeric.Point2{E: edge(c), C: c}
	}
	if p.Spend(x) > budget {
		return rejectBudget(p, budget, gradient)
	}
	return x
}

// rejectGradient returns the reject form's own-gradient at
// own = peer = (e, c). With s = e + c, A = R·h·m and
// D = Σ_k P(k)(k−1)s/(c+(k−1)s)²,
//
//	G_e = A[(1−β)/s + β/e] − P_e
//	G_c = A(1−β)/s + R(1−h)(1−β)·D − P_c.
func rejectGradient(p miner.Params, pmf numeric.DiscretePMF, m float64) func(e, c float64) (ge, gc float64) {
	a := p.Reward * p.H * m
	return func(e, c float64) (ge, gc float64) {
		s := e + c
		var d float64
		for i, prob := range pmf.P {
			if k := float64(pmf.Lo + i); k > 1 {
				u := c + (k-1)*s
				d += prob * (k - 1) * s / (u * u)
			}
		}
		ge = a*((1-p.Beta)/s+p.Beta/e) - p.PriceE
		gc = a*(1-p.Beta)/s + p.Reward*(1-p.H)*(1-p.Beta)*d - p.PriceC
		return ge, gc
	}
}

// rejectBudget solves the reject form on the budget line: e ∈ [0, B/P_e]
// with c = (B − P_e·e)/P_c, and the multiplier λ = G_e/P_e = G_c/P_c.
// G_e grows without bound as e → 0 when β > 0, so the search starts
// just above it.
func rejectBudget(p miner.Params, budget float64, gradient func(e, c float64) (float64, float64)) numeric.Point2 {
	eMax := budget / p.PriceE
	along := func(e float64) float64 {
		ge, gc := gradient(e, math.Max((budget-p.PriceE*e)/p.PriceC, 0))
		return ge/p.PriceE - gc/p.PriceC
	}
	if along(eMax) >= 0 {
		return numeric.Point2{E: eMax}
	}
	lo := eMax * 1e-15
	if !(along(lo) > 0) {
		return numeric.Point2{C: budget / p.PriceC}
	}
	e := root(along, lo, eMax)
	return numeric.Point2{E: e, C: math.Max((budget-p.PriceE*e)/p.PriceC, 0)}
}

// root is numeric.BrentRoot on a bracket the callers have checked.
func root(f func(float64) float64, lo, hi float64) float64 {
	x, err := numeric.BrentRoot(f, lo, hi, 1e-15*hi)
	if err != nil {
		return hi
	}
	return x
}
