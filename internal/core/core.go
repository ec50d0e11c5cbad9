// Package core assembles the paper's mining game: the configuration of a
// mobile blockchain mining network (miners, budgets, reward, fork rate,
// ESP operation mode, provider costs), the miner-subgame equilibrium
// solvers for both modes, and the full two-stage Stackelberg solvers
// corresponding to the paper's Algorithm 1 (connected) and Algorithm 2
// (standalone price bargaining).
package core

import (
	"fmt"
	"math"

	"minegame/internal/chain"
	"minegame/internal/game"
	"minegame/internal/miner"
	"minegame/internal/netmodel"
	"minegame/internal/numeric"
)

// Config describes one instance of the mining game.
type Config struct {
	// N is the number of miners.
	N int
	// Budgets holds each miner's budget B_i. A single entry declares a
	// homogeneous population; otherwise len(Budgets) must equal N.
	Budgets []float64
	// Reward is the mining reward R.
	Reward float64
	// Beta is the blockchain fork rate β in [0, 1).
	Beta float64
	// Betas optionally gives each miner its own fork rate β_i in [0, 1),
	// e.g. as measured on a peer graph by internal/chain/topo. Nil means
	// every miner uses Beta; otherwise len(Betas) must equal N, and only
	// connected mode accepts it. Beta still seeds the solvers' warm start
	// and the closed forms, which assume one shared β.
	Betas []float64
	// SatisfyProb is h: the probability the connected ESP serves a
	// request at the edge instead of transferring it.
	SatisfyProb float64
	// Mode selects the ESP operation mode.
	Mode netmodel.Mode
	// EdgeCapacity is E_max, the standalone ESP's computing units.
	EdgeCapacity float64
	// CostE and CostC are the providers' unit operating costs.
	CostE, CostC float64
}

// Validate reports configuration errors. Non-finite values are rejected
// everywhere (a NaN passes every ordering comparison and would otherwise
// slip through to the solvers and poison them); the one exception is
// EdgeCapacity, which may be +Inf to model an uncapacitated standalone
// ESP (the clearing-price search relies on that).
func (c Config) Validate() error {
	if c.N < 2 {
		return fmt.Errorf("core config: need at least 2 miners, got %d", c.N)
	}
	if len(c.Budgets) != 1 && len(c.Budgets) != c.N {
		return fmt.Errorf("core config: budgets must have 1 or %d entries, got %d", c.N, len(c.Budgets))
	}
	for i, b := range c.Budgets {
		if !(b > 0) || math.IsInf(b, 0) {
			return fmt.Errorf("core config: budget %d is %g, must be positive and finite", i, b)
		}
	}
	for _, v := range [...]struct {
		name  string
		value float64
	}{
		{"reward", c.Reward}, {"beta", c.Beta}, {"satisfy probability", c.SatisfyProb},
		{"cost C_e", c.CostE}, {"cost C_c", c.CostC},
	} {
		if math.IsNaN(v.value) || math.IsInf(v.value, 0) {
			return fmt.Errorf("core config: %s is %g, must be finite", v.name, v.value)
		}
	}
	if math.IsNaN(c.EdgeCapacity) || math.IsInf(c.EdgeCapacity, -1) {
		return fmt.Errorf("core config: edge capacity is %g, must be positive (or +Inf for uncapacitated)", c.EdgeCapacity)
	}
	if c.Reward <= 0 {
		return fmt.Errorf("core config: reward %g must be positive", c.Reward)
	}
	if c.Beta < 0 || c.Beta >= 1 {
		return fmt.Errorf("core config: beta %g outside [0, 1)", c.Beta)
	}
	if c.SatisfyProb < 0 || c.SatisfyProb > 1 {
		return fmt.Errorf("core config: satisfy probability %g outside [0, 1]", c.SatisfyProb)
	}
	switch c.Mode {
	case netmodel.Connected:
	case netmodel.Standalone:
		if c.EdgeCapacity <= 0 {
			return fmt.Errorf("core config: standalone mode needs positive edge capacity, got %g", c.EdgeCapacity)
		}
	default:
		return fmt.Errorf("core config: unknown mode %d", int(c.Mode))
	}
	if c.CostE < 0 || c.CostC < 0 {
		return fmt.Errorf("core config: costs C_e=%g, C_c=%g must be non-negative", c.CostE, c.CostC)
	}
	if c.Betas != nil {
		if c.Mode != netmodel.Connected {
			return fmt.Errorf("core config: per-miner fork rates need connected mode, got %v", c.Mode)
		}
		if len(c.Betas) != c.N {
			return fmt.Errorf("core config: %d fork rates for %d miners", len(c.Betas), c.N)
		}
		for i, b := range c.Betas {
			if math.IsNaN(b) || b < 0 || b >= 1 {
				return fmt.Errorf("core config: fork rate beta[%d] = %g outside [0, 1)", i, b)
			}
		}
	}
	return nil
}

// Budget returns miner i's budget.
func (c Config) Budget(i int) float64 {
	if len(c.Budgets) == 1 {
		return c.Budgets[0]
	}
	return c.Budgets[i]
}

// Homogeneous reports whether all miners share one budget.
func (c Config) Homogeneous() bool {
	if len(c.Budgets) == 1 {
		return true
	}
	for _, b := range c.Budgets[1:] {
		if b != c.Budgets[0] { //lint:allow floateq exact identity test on user-supplied config values, not computed floats
			return false
		}
	}
	return true
}

// Prices is a price pair announced by the service providers.
type Prices struct {
	Edge  float64 // P_e
	Cloud float64 // P_c
}

// Params binds the config's game constants to a price pair.
func (c Config) Params(p Prices) miner.Params {
	return miner.Params{
		Reward: c.Reward,
		Beta:   c.Beta,
		H:      c.SatisfyProb,
		PriceE: p.Edge,
		PriceC: p.Cloud,
	}
}

// Network materializes a netmodel.Network at the given prices, using the
// block interval to back out the propagation delay that induces β.
func (c Config) Network(p Prices, blockInterval float64) netmodel.Network {
	return netmodel.Network{
		ESP: netmodel.ESP{
			Mode:        c.Mode,
			SatisfyProb: c.SatisfyProb,
			Capacity:    c.EdgeCapacity,
			Cost:        c.CostE,
			Price:       p.Edge,
		},
		CSP: netmodel.CSP{
			Cost:  c.CostC,
			Price: p.Cloud,
			Delay: chain.DelayForBeta(c.Beta, blockInterval),
		},
		BlockInterval: blockInterval,
	}
}

// MinerEquilibrium is a solved miner subgame.
type MinerEquilibrium struct {
	Requests    miner.Profile // each miner's (e_i*, c_i*)
	EdgeDemand  float64       // E = Σ e_i
	CloudDemand float64       // C = Σ c_i
	TotalDemand float64       // S = E + C
	Utilities   []float64     // equilibrium utilities
	WinProbs    []float64     // equilibrium winning probabilities
	Iterations  int
	Converged   bool
	// Multiplier is the standalone shared-capacity shadow price (zero in
	// connected mode or when capacity is slack).
	Multiplier float64
}

// envFromOthers adapts the aggregate solvers' others-total to a
// miner.Env, clamping the tiny negative residues incremental totals can
// carry so the guards that treat aggregates ≤ tiny as empty behave
// exactly as with fresh summation.
func envFromOthers(others numeric.Point2) miner.Env {
	if others.E < 0 {
		others.E = 0
	}
	if others.C < 0 {
		others.C = 0
	}
	return miner.Env{EdgeOthers: others.E, CloudOthers: others.C}
}

// ColdStart returns the heuristic starting profile: a modest feasible
// spread with no knowledge of the equilibrium. Pass it to
// SolveMinerEquilibriumFrom when the iteration itself is the object of
// study (convergence diagnostics) or when a numeric solve must stay
// independent of the closed forms it is cross-checked against —
// SolveMinerEquilibrium otherwise seeds every miner from the
// closed-form homogeneous equilibrium at its own budget and fork rate,
// which those use cases must not inherit. SolveMinerGNE starts from it
// too: its equilibrium selection depends on the start.
func (c Config) ColdStart(p Prices) miner.Profile {
	prof := make(miner.Profile, c.N)
	for i := range prof {
		b := c.Budget(i)
		prof[i] = numeric.Point2{
			E: b / (4 * p.Edge) * (1 + 0.1*float64(i%3)),
			C: b / (4 * p.Cloud),
		}
	}
	if c.Mode == netmodel.Standalone {
		// Stay jointly feasible for the shared capacity.
		var e float64
		for _, r := range prof {
			e += r.E
		}
		if e > c.EdgeCapacity {
			scale := c.EdgeCapacity / e * 0.9
			for i := range prof {
				prof[i].E *= scale
			}
		}
	}
	return prof
}

// SolveMinerEquilibrium computes the miner-subgame equilibrium at the
// given prices.
//
// Connected mode solves the NEP of Problem 1a (the equilibrium is
// unique, Theorem 2) as the root of the share equations in the totals
// (E, S) (game.SolveShares over miner.Share, DESIGN.md §9); with
// cfg.Betas set, each miner responds under its own fork rate.
// Standalone mode computes the variational equilibrium of the GNEP of
// Problem 1c by pricing the shared capacity with a common multiplier μ
// (Theorem 5 guarantees existence; the variational solution is the
// economically meaningful one, with every miner facing the same
// scarcity price); a binding capacity clears exactly. Iterations
// reports the solve's passes over the miners.
func SolveMinerEquilibrium(cfg Config, p Prices, opts game.NEOptions) (MinerEquilibrium, error) {
	return SolveMinerEquilibriumFrom(cfg, p, opts, nil)
}

// SolveMinerEquilibriumFrom is SolveMinerEquilibrium with an explicit
// starting profile, whose totals warm-start the root. A nil start picks
// the market's seed (each miner at the closed-form homogeneous
// equilibrium at its own budget and fork rate where the regime admits
// one, the heuristic spread otherwise); a
// non-nil start — a neighbouring price point's equilibrium during a
// leader-stage grid sweep, or Config.ColdStart for convergence studies
// — must have length cfg.N. The returned equilibrium is independent of
// the start up to rounding; the start only changes how many passes the
// solve takes. The given profile is not mutated.
func SolveMinerEquilibriumFrom(cfg Config, p Prices, opts game.NEOptions, start miner.Profile) (MinerEquilibrium, error) {
	if err := cfg.Validate(); err != nil {
		return MinerEquilibrium{}, err
	}
	if start != nil && len(start) != cfg.N {
		return MinerEquilibrium{}, fmt.Errorf("core: start profile has %d entries, config has %d miners", len(start), cfg.N)
	}
	m := exactMarket(cfg)
	return m.solve(p, opts, warmStart{totals: m.totals(start), ok: start != nil})
}

// SolveMinerGNE computes a generalized Nash equilibrium of the standalone
// subgame in the paper's Algorithm 2 style: plain best-response iteration
// where each miner caps its edge request by the capacity the others left
// over (first-come self-limitation). GNEPs generally have many equilibria;
// this returns the one the bargaining dynamics reach from the default
// start, which is useful for comparing against the variational solution.
func SolveMinerGNE(cfg Config, p Prices, opts game.NEOptions) (MinerEquilibrium, error) {
	if err := cfg.Validate(); err != nil {
		return MinerEquilibrium{}, err
	}
	if cfg.Mode != netmodel.Standalone {
		return MinerEquilibrium{}, fmt.Errorf("SolveMinerGNE: mode %v is not standalone", cfg.Mode)
	}
	params := cfg.Params(p)
	if err := params.Validate(); err != nil {
		return MinerEquilibrium{}, err
	}
	if opts.Tol <= 0 {
		opts.Tol = 1e-6
	}
	if opts.Damping <= 0 || opts.Damping > 1 {
		// The shared constraint couples the updates; damping keeps the
		// capacity handoff from oscillating.
		opts.Damping = 0.5
	}
	br := func(i int, own, others numeric.Point2) numeric.Point2 {
		env := envFromOthers(others)
		return miner.BestResponseStandalone(params, cfg.Budget(i), cfg.EdgeCapacity-env.EdgeOthers, env, own)
	}
	// The GNEP's equilibrium selection depends on the starting point, so
	// keep the historical heuristic start rather than the closed-form seed.
	res := game.SolveNEAggregate(cfg.ColdStart(p), br, opts)
	if res.Canceled {
		return MinerEquilibrium{}, fmt.Errorf("standalone miner GNE: %w", game.ErrCanceled)
	}
	t := exactTypes(cfg)
	return t.summarize(p, res.Profile, res.Iterations, res.Converged, 0), nil
}

// Deviation returns the largest utility gain any miner can realize by a
// unilateral deviation from the profile — a certificate of equilibrium
// quality (≈0 at a Nash equilibrium). The aggregate form shares one O(N)
// total across all miners, so the certificate costs O(N) best responses
// plus O(N) arithmetic instead of the O(N²) of per-miner re-summation.
// A profile whose length is not cfg.N is no equilibrium of the market
// and reports +Inf.
func Deviation(cfg Config, p Prices, prof miner.Profile) float64 {
	gains := Deviations(cfg, p, prof)
	if gains == nil {
		return math.Inf(1)
	}
	var worst float64
	for _, g := range gains {
		if g > worst {
			worst = g
		}
	}
	return worst
}

// Deviations is the per-miner form of Deviation: gains[i] is the largest
// utility improvement miner i can realize by a unilateral best-response
// deviation from the profile (zero when the miner is already playing a
// best response). The vector is the raw material of an ε-Nash
// certificate: the profile is an ε-equilibrium exactly when every entry
// is at most ε. With cfg.Betas set, every miner's best response and
// utility charge its own fork rate. A profile whose length is not cfg.N
// gives nil.
func Deviations(cfg Config, p Prices, prof miner.Profile) []float64 {
	t := exactTypes(cfg)
	return t.deviations(p, prof)
}

// ValidateWinProbs checks Theorem 1 at a profile: in standalone (full
// satisfaction) form the winning probabilities must sum to one.
func ValidateWinProbs(beta float64, prof miner.Profile) error {
	total := numeric.Sum(miner.WinProbsFull(beta, prof))
	if math.Abs(total-1) > 1e-6 {
		return fmt.Errorf("core: winning probabilities sum to %.9f, want 1", total)
	}
	return nil
}
