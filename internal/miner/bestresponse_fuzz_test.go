package miner

import (
	"math"
	"testing"

	"minegame/internal/numeric"
)

// FuzzBestResponse checks the KKT kernel against the multi-start
// projected-gradient ascent it replaced (pga_reference_test.go). For
// every valid input the kernel's point must be finite and feasible, and
// its utility must be at least the oracle's minus 1e-9 relative to the
// size of the utility's terms (R·W_i and the spend, the larger at the
// two points), the scale of its rounding. mode picks the program: 0 connected with satisfy
// probability h, 1 standalone with edge capacity x, 2 standalone with
// capacity price μ = x.
func FuzzBestResponse(f *testing.F) {
	// mode, R, β, h, P_e, P_c, budget, E₋ᵢ, C₋ᵢ, x
	f.Add(uint8(0), 1000.0, 0.2, 0.7, 8.0, 4.0, 200.0, 10.0, 20.0, 0.0)     // interior
	f.Add(uint8(0), 1000.0, 0.2, 0.7, 8.0, 4.0, 10.0, 10.0, 20.0, 0.0)      // budget binds
	f.Add(uint8(0), 1000.0, 0.2, 0.7, 3.0, 4.0, 200.0, 10.0, 20.0, 0.0)     // P_e < P_c
	f.Add(uint8(0), 1000.0, 0.2, 0.7, 4.0, 4.0, 200.0, 10.0, 20.0, 0.0)     // P_e = P_c
	f.Add(uint8(0), 1000.0, 0.0, 0.7, 4.0, 4.0, 200.0, 10.0, 20.0, 0.0)     // P_e = P_c, β = 0: tie
	f.Add(uint8(1), 1000.0, 0.0, 1.0, 4.0, 4.0, 200.0, 10.0, 20.0, 5.0)     // tie, capped
	f.Add(uint8(0), 1000.0, 0.2, 0.0, 8.0, 4.0, 200.0, 10.0, 20.0, 0.0)     // h = 0
	f.Add(uint8(0), 1000.0, 0.2, 0.7, 8.0, 4.0, 200.0, 0.0, 20.0, 0.0)      // E₋ᵢ = 0
	f.Add(uint8(1), 1000.0, 0.2, 1.0, 8.0, 4.0, 200.0, 0.0, 20.0, 60.0)     // E₋ᵢ = 0, standalone
	f.Add(uint8(2), 1000.0, 0.2, 1.0, 8.0, 4.0, 200.0, 0.0, 20.0, 1.0)      // E₋ᵢ = 0, penalized
	f.Add(uint8(1), 1000.0, 0.2, 1.0, 8.0, 4.0, 200.0, 0.0, 20.0, 0.0)      // E₋ᵢ = 0, no capacity
	f.Add(uint8(0), 1000.0, 0.2, 0.7, 8.0, 4.0, 200.0, 0.0, 0.0, 0.0)       // S₋ᵢ = 0
	f.Add(uint8(1), 1000.0, 0.2, 1.0, 8.0, 4.0, 200.0, 10.0, 20.0, 0.0)     // cap = 0
	f.Add(uint8(1), 1000.0, 0.2, 1.0, 8.0, 4.0, 200.0, 10.0, 20.0, -3.0)    // cap < 0
	f.Add(uint8(1), 1000.0, 0.2, 1.0, 8.0, 4.0, 1000.0, 10.0, 20.0, 2.0)    // cap binds
	f.Add(uint8(1), 1000.0, 0.2, 1.0, 3.0, 4.0, 200.0, 10.0, 20.0, 4.0)     // cap binds, P_e < P_c
	f.Add(uint8(2), 1000.0, 0.2, 1.0, 8.0, 4.0, 200.0, 10.0, 20.0, 1.5)     // μ > 0
	f.Add(uint8(2), 1000.0, 0.2, 1.0, 8.0, 4.0, 30.0, 10.0, 20.0, 1.5)      // μ > 0, budget binds
	f.Add(uint8(2), 1000.0, 0.2, 1.0, 3.0, 4.0, 30.0, 10.0, 20.0, 0.5)      // μ > 0, P_e + μ < P_c
	f.Add(uint8(0), 1e300, 0.2, 0.7, 1e-300, 1e-300, 1e300, 1e-9, 0.0, 0.0) // huge magnitudes
	f.Add(uint8(0), 1e300, 0.2, 0.7, 1e-300, 1e-300, 1e300, 1.0, 1.0, 0.0)
	f.Add(uint8(2), 1e300, 0.2, 1.0, 1e-300, 1e-300, 1e300, 1.0, 1.0, 1e-300)
	f.Fuzz(func(t *testing.T, mode uint8, reward, beta, h, pe, pc, budget, eOth, cOth, x float64) {
		p := Params{Reward: reward, Beta: beta, H: h, PriceE: pe, PriceC: pc}
		if p.Validate() != nil || !finiteNonNeg(budget) || !finiteNonNeg(eOth) || !finiteNonNeg(cOth) ||
			math.IsNaN(x) || math.IsInf(x, 0) {
			return
		}
		env := Env{EdgeOthers: eOth, CloudOthers: cOth}
		edgeCap, mu := math.Inf(1), 0.0
		var got, ref numeric.Point2
		switch mode % 3 {
		case 0:
			got = BestResponseConnected(p, budget, env)
			ref = pgaBestResponseConnected(p, budget, env)
		case 1:
			p.H = 1
			edgeCap = math.Max(x, 0)
			got = BestResponseStandalone(p, budget, x, env)
			ref = pgaBestResponsePenalized(p, 0, budget, x, env)
		default:
			if x < 0 {
				return
			}
			p.H, mu = 1, x
			got = BestResponseStandalonePenalized(p, mu, budget, env)
			ref = pgaBestResponsePenalized(p, mu, budget, math.Inf(1), env)
		}
		// utility returns the program's objective and the size of its
		// terms.
		utility := func(r numeric.Point2) (float64, float64) {
			w := WinProbConnected(p.Beta, p.H, r, env)
			if mode%3 != 0 {
				w = WinProbFull(p.Beta, r, env)
			}
			cost := p.Spend(r) + mu*r.E
			return p.Reward*w - cost, p.Reward*w + cost
		}

		if !finiteNonNeg(got.E) || !finiteNonNeg(got.C) {
			t.Fatalf("best response %+v is not finite and non-negative", got)
		}
		if got.E > edgeCap || p.Spend(got) > budget*(1+1e-12) {
			t.Fatalf("best response %+v infeasible: spend %g, budget %g, edge cap %g", got, p.Spend(got), budget, edgeCap)
		}
		uGot, sizeGot := utility(got)
		uRef, sizeRef := utility(ref)
		if math.IsNaN(uGot) {
			t.Fatalf("utility at %+v is NaN", got)
		}
		if uGot < uRef-1e-9*math.Max(sizeGot, sizeRef) {
			t.Fatalf("kernel %+v utility %.17g below reference %+v utility %.17g", got, uGot, ref, uRef)
		}
	})
}

func finiteNonNeg(v float64) bool { return v >= 0 && !math.IsInf(v, 1) }
