package miner

// This file implements the individual winning probabilities of §III of
// the paper. All functions take the miner's own request and the aggregate
// of the others (Env); profile-level convenience wrappers are provided.

import "minegame/internal/numeric"

// WinProbFull is W_i^h (Eq. 6): the winning probability when the request
// is fully satisfied by both providers,
//
//	W_i = (e_i+c_i)/S + β·(e_i·C − c_i·E)/(E·S).
//
// When no miner buys edge units the fork term vanishes (every block pays
// the same propagation delay) and the expression degenerates to unit
// share s_i/S.
func WinProbFull(beta float64, own numeric.Point2, env Env) float64 {
	e := env.EdgeOthers + own.E
	c := env.CloudOthers + own.C
	s := e + c
	if s <= tiny {
		return 0
	}
	w := (own.E + own.C) / s
	if e > tiny {
		w += beta * (own.E*c - own.C*e) / (e * s)
	}
	return w
}

// WinProbTransferred is W_i^{1−h} in connected mode (Eq. 7): the ESP
// transferred the edge request to the CSP, so the whole request mines
// behind the cloud delay: W_i = (1−β)(e_i+c_i)/S.
func WinProbTransferred(beta float64, own numeric.Point2, env Env) float64 {
	s := env.SumOthers() + own.E + own.C
	if s <= tiny {
		return 0
	}
	return (1 - beta) * (own.E + own.C) / s
}

// WinProbRejected is W_i^{1−h} in standalone mode (Eq. 8): the ESP
// rejected the edge request, removing those units from the network:
// W_i = (1−β)·c_i/(S − e_i).
func WinProbRejected(beta float64, own numeric.Point2, env Env) float64 {
	s := env.SumOthers() + own.C
	if s <= tiny {
		return 0
	}
	return (1 - beta) * own.C / s
}

// WinProbConnected is the connected-mode expected winning probability
// (Eq. 9): the law of total expectation over the satisfy/transfer coin,
//
//	W_i = h·W_i^h + (1−h)·W_i^{1−h} = (1−β)(e_i+c_i)/S + β·h·e_i/E.
//
// The closed combination is used directly; the identity with the convex
// combination of Eqs. 6–7 is verified in tests.
func WinProbConnected(beta, h float64, own numeric.Point2, env Env) float64 {
	e := env.EdgeOthers + own.E
	s := env.SumOthers() + own.E + own.C
	if s <= tiny {
		return 0
	}
	w := (1 - beta) * (own.E + own.C) / s
	if e > tiny {
		w += beta * h * own.E / e
	}
	return w
}

// WinProbFullGrad is the gradient of WinProbFull with respect to the
// miner's own request. Writing N = e_i·C − c_i·E:
//
//	∂W/∂e_i = (S−s_i)/S² + β[(C−c_i)·E·S − N·(S+E)]/(E·S)²
//	∂W/∂c_i = (S−s_i)/S² + β[−(E−e_i)·S − N]/(E·S²)
func WinProbFullGrad(beta float64, own numeric.Point2, env Env) numeric.Point2 {
	if env.SumOthers() <= tiny {
		// A lone miner wins with probability 1 for any positive request:
		// W is constant, so its gradient vanishes (the E denominator in
		// the general formula would otherwise blow up at own.E = 0).
		return numeric.Point2{}
	}
	e := env.EdgeOthers + own.E
	c := env.CloudOthers + own.C
	s := e + c
	if s <= tiny {
		s = tiny
	}
	shared := env.SumOthers() / (s * s)
	ge, gc := shared, shared
	if beta > 0 {
		den := e
		if den <= tiny {
			den = tiny
		}
		n := own.E*c - own.C*e
		ge += beta * ((c-own.C)*den*s - n*(s+den)) / (den * den * s * s)
		gc += beta * (-(den-own.E)*s - n) / (den * s * s)
	}
	return numeric.Point2{E: ge, C: gc}
}

// WinProbTransferredGrad is the gradient of WinProbTransferred:
// ∂W/∂e_i = ∂W/∂c_i = (1−β)·S_{-i}/S².
func WinProbTransferredGrad(beta float64, own numeric.Point2, env Env) numeric.Point2 {
	s := env.SumOthers() + own.E + own.C
	if s <= tiny {
		s = tiny
	}
	g := (1 - beta) * env.SumOthers() / (s * s)
	return numeric.Point2{E: g, C: g}
}

// WinProbRejectedGrad is the gradient of WinProbRejected: the rejected
// edge request contributes nothing, so ∂W/∂e = 0 and
// ∂W/∂c = (1−β)·S_{-i}/(S_{-i}+c)².
func WinProbRejectedGrad(beta float64, own numeric.Point2, env Env) numeric.Point2 {
	s := env.SumOthers() + own.C
	if s <= tiny {
		s = tiny
	}
	return numeric.Point2{C: (1 - beta) * env.SumOthers() / (s * s)}
}

// WinProbsFull evaluates Eq. 6 for every miner in the profile. The
// aggregates are summed once, so the whole profile costs O(N).
func WinProbsFull(beta float64, p Profile) []float64 {
	ws := make([]float64, len(p))
	t := p.Aggregate()
	for i, r := range p {
		ws[i] = WinProbFull(beta, r, t.Env(r))
	}
	return ws
}
