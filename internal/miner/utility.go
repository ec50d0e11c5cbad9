package miner

// Utilities (Eq. 1a / 10a / 24a) and their analytic gradients with respect
// to the miner's own request, used by the best-response solvers. The
// gradients are validated against finite differences in tests.

import "minegame/internal/numeric"

// UtilityConnected is U_i = R·W_i − (P_e·e_i + P_c·c_i) with the
// connected-mode W_i of Eq. 9.
func UtilityConnected(p Params, own numeric.Point2, env Env) float64 {
	return p.Reward*WinProbConnected(p.Beta, p.H, own, env) - p.Spend(own)
}

// GradConnected is ∇U_i for the connected mode:
//
//	∂U/∂e_i = R[(1−β)(S−s_i)/S² + β·h·E_{-i}/E²] − P_e
//	∂U/∂c_i = R[(1−β)(S−s_i)/S²] − P_c
//
// At E = 0 the edge bonus β·h·e_i/E jumps discontinuously (the first edge
// unit claims the whole bonus); the gradient treats the denominator as a
// small positive number so ascent methods are pushed toward e > 0.
func GradConnected(p Params, own numeric.Point2, env Env) numeric.Point2 {
	e := env.EdgeOthers + own.E
	s := env.SumOthers() + own.E + own.C
	if s <= tiny {
		s = tiny
	}
	sOth := s - own.E - own.C
	shared := p.Reward * (1 - p.Beta) * sOth / (s * s)
	ge := shared - p.PriceE
	if p.Beta > 0 && p.H > 0 {
		den := e
		if den <= tiny {
			den = tiny
		}
		ge += p.Reward * p.Beta * p.H * env.EdgeOthers / (den * den)
	}
	return numeric.Point2{E: ge, C: shared - p.PriceC}
}

// UtilityStandalone is U_i = R·W_i − (P_e·e_i + P_c·c_i) with the fully
// satisfied W_i of Eq. 23 (identical to Eq. 6); the capacity coupling
// E ≤ E_max is enforced by the feasible set, not the objective.
func UtilityStandalone(p Params, own numeric.Point2, env Env) float64 {
	return p.Reward*WinProbFull(p.Beta, own, env) - p.Spend(own)
}
