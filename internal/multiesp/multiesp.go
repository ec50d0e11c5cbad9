// Package multiesp extends the paper's model to MULTIPLE edge service
// providers — the natural next step the single-ESP game suggests: K edge
// providers with distinct prices and reliabilities compete alongside the
// cloud for the miners' budgets.
//
// The connected-mode winning probability generalizes Eq. 9 by the same
// law of total expectation: ESP k serves a request locally with
// probability h_k and transfers it otherwise, so with e_i = (e_i^1, …,
// e_i^K) and total edge demand E = Σ_j Σ_k e_j^k,
//
//	W_i = (1−β)·s_i/S + β·(Σ_k h_k·e_i^k)/E,
//
// which reduces exactly to Eq. 9 at K = 1. Each miner maximizes
// R·W_i − Σ_k P_k·e_i^k − P_c·c_i over its budget polytope. That program
// is not concave for K ≥ 2, but at a fixed own edge total it is linear
// in how the total is split across ESPs, so every best response buys
// edge from a single ESP, and on ESP k it is the single-ESP connected
// program at (h_k, P_k). Solve builds on that corner argument.
package multiesp

import (
	"fmt"
	"math"

	"minegame/internal/miner"
	"minegame/internal/numeric"
)

// ESP is one edge provider's offer.
type ESP struct {
	Price float64 // unit price P_k
	H     float64 // satisfy probability h_k in [0, 1]
}

// Config describes a multi-ESP mining game instance.
type Config struct {
	N      int     // miners
	Budget float64 // common budget (homogeneous population)
	Reward float64 // R
	Beta   float64 // fork rate β
	ESPs   []ESP   // K ≥ 1 edge providers
	PriceC float64 // CSP unit price
}

// Validate reports configuration errors. Every scalar is checked in its
// affirmative range (¬(x > 0) rather than x ≤ 0) so NaN inputs are
// rejected instead of flowing into the best-response arithmetic, and
// infinities are refused explicitly.
func (c Config) Validate() error {
	if c.N < 2 {
		return fmt.Errorf("multiesp: need at least 2 miners, got %d", c.N)
	}
	if !(c.Budget > 0) || !(c.Reward > 0) || !(c.PriceC > 0) ||
		math.IsInf(c.Budget, 0) || math.IsInf(c.Reward, 0) || math.IsInf(c.PriceC, 0) {
		return fmt.Errorf("multiesp: budget %g, reward %g and cloud price %g must be positive and finite", c.Budget, c.Reward, c.PriceC)
	}
	if !(c.Beta >= 0 && c.Beta < 1) {
		return fmt.Errorf("multiesp: beta %g outside [0, 1)", c.Beta)
	}
	if len(c.ESPs) == 0 {
		return fmt.Errorf("multiesp: need at least one edge provider")
	}
	for k, e := range c.ESPs {
		if !(e.Price > 0) || math.IsInf(e.Price, 0) {
			return fmt.Errorf("multiesp: ESP %d price %g must be positive and finite", k, e.Price)
		}
		if !(e.H >= 0 && e.H <= 1) {
			return fmt.Errorf("multiesp: ESP %d satisfy probability %g outside [0, 1]", k, e.H)
		}
	}
	return nil
}

// params returns the single-ESP connected game on ESP k: the program
// a miner solves when it buys edge from k alone.
func (c Config) params(k int) miner.Params {
	return miner.Params{Reward: c.Reward, Beta: c.Beta, H: c.ESPs[k].H, PriceE: c.ESPs[k].Price, PriceC: c.PriceC}
}

// prices returns the full price vector (P_1, …, P_K, P_c).
func (c Config) prices() numeric.Vec {
	p := make(numeric.Vec, len(c.ESPs)+1)
	for k, e := range c.ESPs {
		p[k] = e.Price
	}
	p[len(c.ESPs)] = c.PriceC
	return p
}

const tiny = 1e-12

// WinProb evaluates the K-ESP generalization of Eq. 9 for a miner
// playing own against the aggregate of the others.
func (c Config) WinProb(own numeric.Vec, others numeric.Vec) float64 {
	K := len(c.ESPs)
	var sOwn, sOth, eOwn, eOth, bonus float64
	for d := 0; d < K; d++ {
		eOwn += own[d]
		eOth += others[d]
		bonus += c.ESPs[d].H * own[d]
	}
	sOwn = eOwn + own[K]
	sOth = eOth + others[K]
	s := sOwn + sOth
	if s <= tiny {
		return 0
	}
	w := (1 - c.Beta) * sOwn / s
	if e := eOwn + eOth; e > tiny {
		w += c.Beta * bonus / e
	}
	return w
}

// Utility is R·W − prices·own.
func (c Config) Utility(own, others numeric.Vec) float64 {
	return c.Reward*c.WinProb(own, others) - c.prices().Dot(own)
}

// Equilibrium is a solved multi-ESP miner subgame.
type Equilibrium struct {
	Requests []numeric.Vec // per miner: (e^1, …, e^K, c)
	// Demands aggregates per coordinate: K edge demands then cloud.
	Demands   numeric.Vec
	Utilities []float64
	WinProbs  []float64
	// Converged reports that no miner gains by a best response on any
	// ESP; it is false only when no single-ESP candidate passes.
	Converged bool
}

// Solve returns a symmetric pure equilibrium of the homogeneous
// subgame. By the corner argument, each ESP k gives a candidate: every
// miner plays miner.HomogeneousConnected on (h_k, P_k). The candidate is
// an equilibrium when no miner.BestResponseConnected on any ESP's
// (h, P) against the other N−1 miners gains. A marginal test such as
// Rβh_k/E − P_k ≥ Rβh_j/E − P_j is not enough: it checks small moves,
// and a full switch of the edge spend to another ESP can still gain.
//
// Where several candidates pass, the one with the highest per-miner
// utility wins, ties going to the lowest index; where none does, the
// one with the smallest gain is returned with Converged false.
func Solve(cfg Config) (Equilibrium, error) {
	if err := cfg.Validate(); err != nil {
		return Equilibrium{}, err
	}
	var best candidate
	found := false
	rivals := float64(cfg.N - 1)
	for k := range cfg.ESPs {
		pk := cfg.params(k)
		sol, err := miner.HomogeneousConnected(pk, cfg.N, cfg.Budget)
		if err != nil {
			return Equilibrium{}, fmt.Errorf("multiesp: ESP %d: %w", k, err)
		}
		x := sol.Request
		env := miner.Env{EdgeOthers: rivals * x.E, CloudOthers: rivals * x.C}
		c := candidate{k: k, x: x, u: miner.UtilityConnected(pk, x, env), w: miner.WinProbConnected(pk.Beta, pk.H, x, env)}
		for j := range cfg.ESPs {
			pj := cfg.params(j)
			br := miner.BestResponseConnected(pj, cfg.Budget, env)
			c.gain = math.Max(c.gain, miner.UtilityConnected(pj, br, env)-c.u)
		}
		holds := c.gain <= 1e-9*cfg.Reward
		switch {
		case holds && (!found || c.u > best.u):
			best, found = c, true
		case !found && (k == 0 || c.gain < best.gain):
			best = c
		}
	}
	return best.equilibrium(cfg, found), nil
}

// candidate is the profile where every miner plays x on ESP k, with its
// per-miner utility u and win probability w, and the largest gain a
// best response on any ESP finds against it.
type candidate struct {
	k    int
	x    numeric.Point2
	u, w float64
	gain float64
}

// equilibrium spreads the candidate over the N miners and K+1
// coordinates.
func (c candidate) equilibrium(cfg Config, converged bool) Equilibrium {
	K := len(cfg.ESPs)
	eq := Equilibrium{
		Requests:  make([]numeric.Vec, cfg.N),
		Demands:   make(numeric.Vec, K+1),
		Utilities: make([]float64, cfg.N),
		WinProbs:  make([]float64, cfg.N),
		Converged: converged,
	}
	for i := range eq.Requests {
		r := make(numeric.Vec, K+1)
		r[c.k], r[K] = c.x.E, c.x.C
		eq.Requests[i] = r
		eq.Utilities[i], eq.WinProbs[i] = c.u, c.w
	}
	n := float64(cfg.N)
	eq.Demands[c.k], eq.Demands[K] = n*c.x.E, n*c.x.C
	return eq
}
