package miner

import (
	"math"
	"testing"

	"minegame/internal/numeric"
)

// FuzzShare checks the replacement kernel against the best-response
// kernel: at totals (E, S), Share's point (e, s) must be what
// bestResponseKKT returns against the others' totals (E−e, S−s), to
// 1e-9 relative to the point's size (plus the best response's own
// rounding at the totals' scale). The inputs are FuzzBestResponse's:
// E₋ᵢ and C₋ᵢ are read once as the totals E and C, and once as the
// others' totals, whose best response r must then be Share's point at
// totals (E₋ᵢ + r_e, S₋ᵢ + r_s). mode 0 is connected mode, 1
// standalone (h = 1) and 2 standalone with the capacity price μ = x.
// Totals the point would exceed, and others' totals at which the
// utility's vanishing-aggregate conventions make the program
// degenerate, are skipped: no equilibrium has them.
func FuzzShare(f *testing.F) {
	// mode, R, β, h, P_e, P_c, budget, E, C, x
	f.Add(uint8(0), 1000.0, 0.2, 0.7, 8.0, 4.0, 200.0, 10.0, 20.0, 0.0)     // interior
	f.Add(uint8(0), 1000.0, 0.2, 0.7, 8.0, 4.0, 10.0, 10.0, 20.0, 0.0)      // budget binds
	f.Add(uint8(0), 1000.0, 0.2, 0.7, 3.0, 4.0, 200.0, 10.0, 20.0, 0.0)     // P_e < P_c
	f.Add(uint8(0), 1000.0, 0.2, 0.7, 4.0, 4.0, 200.0, 10.0, 20.0, 0.0)     // P_e = P_c
	f.Add(uint8(0), 1000.0, 0.0, 0.7, 4.0, 4.0, 200.0, 10.0, 20.0, 0.0)     // P_e = P_c, β = 0: tie
	f.Add(uint8(1), 1000.0, 0.0, 1.0, 4.0, 4.0, 200.0, 10.0, 20.0, 5.0)     // tie, standalone
	f.Add(uint8(0), 1000.0, 0.2, 0.0, 8.0, 4.0, 200.0, 10.0, 20.0, 0.0)     // h = 0
	f.Add(uint8(0), 1000.0, 0.2, 0.7, 8.0, 4.0, 200.0, 0.0, 20.0, 0.0)      // E = 0
	f.Add(uint8(1), 1000.0, 0.2, 1.0, 8.0, 4.0, 200.0, 0.0, 20.0, 60.0)     // E = 0, standalone
	f.Add(uint8(2), 1000.0, 0.2, 1.0, 8.0, 4.0, 200.0, 0.0, 20.0, 1.0)      // E = 0, penalized
	f.Add(uint8(1), 1000.0, 0.2, 1.0, 8.0, 4.0, 200.0, 0.0, 20.0, 0.0)      // E = 0, no capacity
	f.Add(uint8(0), 1000.0, 0.2, 0.7, 8.0, 4.0, 200.0, 0.0, 0.0, 0.0)       // S = 0
	f.Add(uint8(1), 1000.0, 0.2, 1.0, 8.0, 4.0, 200.0, 10.0, 20.0, 0.0)     // standalone
	f.Add(uint8(1), 1000.0, 0.2, 1.0, 8.0, 4.0, 200.0, 10.0, 20.0, -3.0)    // standalone
	f.Add(uint8(1), 1000.0, 0.2, 1.0, 8.0, 4.0, 1000.0, 10.0, 20.0, 2.0)    // standalone, rich
	f.Add(uint8(1), 1000.0, 0.2, 1.0, 3.0, 4.0, 200.0, 10.0, 20.0, 4.0)     // standalone, P_e < P_c
	f.Add(uint8(2), 1000.0, 0.2, 1.0, 8.0, 4.0, 200.0, 10.0, 20.0, 1.5)     // μ > 0
	f.Add(uint8(2), 1000.0, 0.2, 1.0, 8.0, 4.0, 30.0, 10.0, 20.0, 1.5)      // μ > 0, budget binds
	f.Add(uint8(2), 1000.0, 0.2, 1.0, 3.0, 4.0, 30.0, 10.0, 20.0, 0.5)      // μ > 0, P_e + μ < P_c
	f.Add(uint8(0), 1e300, 0.2, 0.7, 1e-300, 1e-300, 1e300, 1e-9, 0.0, 0.0) // huge magnitudes
	f.Add(uint8(0), 1e300, 0.2, 0.7, 1e-300, 1e-300, 1e300, 1.0, 1.0, 0.0)
	f.Add(uint8(2), 1e300, 0.2, 1.0, 1e-300, 1e-300, 1e300, 1.0, 1.0, 1e-300)
	f.Fuzz(func(t *testing.T, mode uint8, reward, beta, h, pe, pc, budget, e, c, x float64) {
		p := Params{Reward: reward, Beta: beta, H: h, PriceE: pe, PriceC: pc}
		if p.Validate() != nil || !finiteNonNeg(budget) || !finiteNonNeg(e) || !finiteNonNeg(c) ||
			math.IsNaN(x) || math.IsInf(x, 0) {
			return
		}
		var mu float64
		standalone := mode%3 != 0
		if standalone {
			p.H = 1
		}
		if mode%3 == 2 {
			if x < 0 {
				return
			}
			mu = x
		}
		b := p.H * p.Beta * p.Reward
		degenerate := func(env Env) bool {
			return env.EdgeOthers < 0 || env.CloudOthers < 0 || env.SumOthers() <= tiny || b > 0 && env.EdgeOthers <= tiny
		}
		// same fails unless x and y agree to 1e-9 of x's size; the
		// absolute part is bestResponseKKT's rounding, which subtracts the
		// others' totals from σ√(others) at the scale of total.
		same := func(x, y numeric.Point2, total float64, what string) {
			tol := 1e-9*(x.E+x.C) + 1e-14*total
			if d := math.Max(math.Abs(x.E-y.E), math.Abs(x.C-y.C)); !(d <= tol) {
				t.Fatalf("%s: %+v vs %+v differ by %g > %g", what, x, y, d, tol)
			}
		}

		// Forward: (e, c) read as the totals E and C.
		got := Share(p, mu, budget, e, e+c)
		if !finiteNonNeg(got.E) || !finiteNonNeg(got.C) {
			t.Fatalf("share point %+v is not finite and non-negative", got)
		}
		if p.Spend(got) > budget*(1+1e-12) {
			t.Fatalf("share point %+v overspends: spend %g, budget %g", got, p.Spend(got), budget)
		}
		if env := (Env{EdgeOthers: e - got.E, CloudOthers: c - got.C}); !degenerate(env) && got.E+got.C <= maxRequest {
			same(got, bestResponseKKT(p, mu, budget, math.Inf(1), standalone, env), e+c, "share point vs best response to the others")
		}

		// Backward: (e, c) read as the others' totals, whose best response
		// adds up to totals at which Share must return it.
		if env := (Env{EdgeOthers: e, CloudOthers: c}); !degenerate(env) {
			br := bestResponseKKT(p, mu, budget, math.Inf(1), standalone, env)
			if br.E+br.C <= maxRequest {
				total := e + c + br.E + br.C
				same(br, Share(p, mu, budget, e+br.E, total), total, "best response vs share point at its totals")
			}
		}
	})
}
