package core

// Mean-field class compression at the core layer: the miner subgame and
// the full two-stage Stackelberg solve over a miner.ClassedPopulation.
// The classed market is the follower market of market.go with one type
// per class: a pass of the share root reads its sorted run's prefix
// sums in O(log K), as every market's does, and the final per-class
// points and an ε-Nash certificate cost O(K) instead of O(N), which is
// what lets the leader-stage price grids anticipate N = 10⁶ follower
// markets. See DESIGN.md §12 for the sorted run, the exactness
// conditions and the quantile-binning approximation bound.

import (
	"errors"
	"fmt"

	"minegame/internal/game"
	"minegame/internal/miner"
	"minegame/internal/numeric"
	"minegame/internal/obs"
)

// Classes compresses the configuration's budget vector into a classed
// population: a homogeneous config becomes a single class of N miners,
// a heterogeneous one is exact-deduplicated, falling back to quantile
// binning when the distinct budgets exceed maxClasses (≤ 0 means no
// cap). The population's BudgetSpread reports any binning error.
func (c Config) Classes(maxClasses int) (miner.ClassedPopulation, error) {
	if err := c.Validate(); err != nil {
		return miner.ClassedPopulation{}, err
	}
	if c.Betas != nil {
		return miner.ClassedPopulation{}, errClassedBetas
	}
	if len(c.Budgets) == 1 {
		return miner.FromClasses([]miner.Class{{Budget: c.Budgets[0], Count: c.N}})
	}
	cp := miner.ClassifyQuantile(c.Budgets, maxClasses)
	if err := cp.Validate(); err != nil {
		return miner.ClassedPopulation{}, err
	}
	return cp, nil
}

// ClassedEquilibrium is a solved miner subgame in compressed form: one
// representative request per class, population-level demand, and
// per-class member statistics. Every member of class k plays
// Requests[k] and — facing the identical environment — earns
// Utilities[k] with winning probability WinProbs[k], so the struct
// carries the full equilibrium of all N miners in O(K) space.
type ClassedEquilibrium struct {
	Population  miner.ClassedPopulation
	Requests    []numeric.Point2 // class representatives (e_k*, c_k*)
	EdgeDemand  float64          // E = Σ_k count_k·e_k
	CloudDemand float64          // C = Σ_k count_k·c_k
	TotalDemand float64          // S = E + C
	Utilities   []float64        // utility of ONE member of each class
	WinProbs    []float64        // winning probability of ONE member of each class
	Iterations  int
	Converged   bool
	// Multiplier is the standalone shared-capacity shadow price (zero in
	// connected mode or when capacity is slack).
	Multiplier float64
}

// Expand materializes the full N-miner request profile, restoring the
// original miner order when the population remembers one. The O(N)
// expansion is timed through the process observer (span
// "meanfield.expansion", landing in the meanfield.expansion.ms
// histogram) — a single atomic check when observability is off.
func (e ClassedEquilibrium) Expand() miner.Profile {
	ob := obs.Default()
	span := ob.StartSpan("meanfield.expansion", obs.Fields{
		"miners": e.Population.N(), "classes": e.Population.K(),
	})
	prof := e.Population.Expand(e.Requests)
	span.End(obs.Fields{"expanded": len(prof)})
	return prof
}

// Full expands the classed equilibrium into a complete MinerEquilibrium
// with per-miner utilities and winning probabilities — an O(N) summary
// intended for cross-checks at feasible N, not the million-miner path.
func (e ClassedEquilibrium) Full(cfg Config, p Prices) MinerEquilibrium {
	t := exactTypes(cfg)
	return t.summarize(p, e.Expand(), e.Iterations, e.Converged, e.Multiplier)
}

// classedEquilibrium attaches a population to a solved per-class
// summary (one request, utility and winning probability per class).
func classedEquilibrium(cp miner.ClassedPopulation, eq MinerEquilibrium) ClassedEquilibrium {
	return ClassedEquilibrium{
		Population:  cp,
		Requests:    eq.Requests,
		EdgeDemand:  eq.EdgeDemand,
		CloudDemand: eq.CloudDemand,
		TotalDemand: eq.TotalDemand,
		Utilities:   eq.Utilities,
		WinProbs:    eq.WinProbs,
		Iterations:  eq.Iterations,
		Converged:   eq.Converged,
		Multiplier:  eq.Multiplier,
	}
}

// SolveMinerEquilibriumClassed computes the miner-subgame equilibrium
// over a classed population at the given prices: the share root of
// SolveMinerEquilibrium with each class weighted by its count (standalone
// mode prices the shared capacity with a common multiplier). Per-class
// budgets come from the population; cfg supplies the game constants,
// and cfg.N must equal cp.N(). Each pass costs O(log K) over the
// sorted run and the per-class points O(K), so N = 10⁶ with K ≤ 10³
// classes solves for less than the cost of a thousand-miner market.
func SolveMinerEquilibriumClassed(cfg Config, cp miner.ClassedPopulation, p Prices, opts game.NEOptions) (ClassedEquilibrium, error) {
	return SolveMinerEquilibriumClassedFrom(cfg, cp, p, opts, nil)
}

// SolveMinerEquilibriumClassedFrom is SolveMinerEquilibriumClassed with
// an explicit starting representative vector (length cp.K()); nil picks
// the per-class closed-form seed. The start only changes how many
// passes the solve takes, never the equilibrium (up to rounding). The given slice is not mutated.
func SolveMinerEquilibriumClassedFrom(cfg Config, cp miner.ClassedPopulation, p Prices, opts game.NEOptions, start []numeric.Point2) (ClassedEquilibrium, error) {
	if err := cfg.validateClassed(cp); err != nil {
		return ClassedEquilibrium{}, err
	}
	if start != nil && len(start) != cp.K() {
		return ClassedEquilibrium{}, fmt.Errorf("core: start has %d representatives, population has %d classes", len(start), cp.K())
	}
	setClassGauges(classedObserver(opts), cp)
	m := classedMarket(cfg, cp)
	eq, err := m.solve(p, opts, warmStart{totals: m.totals(start), ok: start != nil})
	if err != nil {
		return ClassedEquilibrium{}, err
	}
	return classedEquilibrium(cp, eq), nil
}

// errClassedBetas rejects a per-miner-β market on the classed path: a
// class carries a budget and a count, but no fork rate.
var errClassedBetas = errors.New("core: classed solvers do not support per-miner fork rates (Config.Betas)")

// validateClassed checks a config and a classed population for the
// classed solvers: both valid, the same miner count, and no per-miner
// fork rates.
func (c Config) validateClassed(cp miner.ClassedPopulation) error {
	if err := c.Validate(); err != nil {
		return err
	}
	if c.Betas != nil {
		return errClassedBetas
	}
	if err := cp.Validate(); err != nil {
		return err
	}
	if cp.N() != c.N {
		return fmt.Errorf("core: classed population has %d miners, config has %d", cp.N(), c.N)
	}
	return nil
}

// classedObserver resolves the observer the classed solvers record
// their compression gauges through.
func classedObserver(opts game.NEOptions) *obs.Observer {
	if opts.Observer != nil {
		return opts.Observer
	}
	return obs.Default()
}

// setClassGauges records a classed solve's compression on ob.
func setClassGauges(ob *obs.Observer, cp miner.ClassedPopulation) {
	if ob.Enabled() {
		ob.SetGauge("meanfield.class_count", float64(cp.K()))
		ob.SetGauge("meanfield.compress_ratio", cp.CompressRatio())
	}
}

// DeviationsClassed returns each class's maximal unilateral deviation
// gain at the classed profile — the O(K) ε-Nash certificate material.
// Because every member of a class plays the identical request against
// the identical environment, gains[k] is EXACTLY the deviation gain of
// each of the class's count_k members, so max_k gains[k] ≤ ε certifies
// all N expanded miners at once.
func DeviationsClassed(cfg Config, p Prices, cp miner.ClassedPopulation, reps []numeric.Point2) []float64 {
	t := classedTypes(cfg, cp)
	return t.deviations(p, reps)
}

// ClassedStackelbergResult is a solved two-stage game over a classed
// population: the equilibrium prices, the compressed follower
// equilibrium underneath them, and the provider profits.
type ClassedStackelbergResult struct {
	Prices     Prices
	Follower   ClassedEquilibrium
	ProfitE    float64 // V_e = (P_e − C_e)·E
	ProfitC    float64 // V_c = (P_c − C_c)·C
	Iterations int
	Converged  bool
}

// SolveStackelbergClassed runs backward induction on the full game with
// the miner subgame compressed into classes: every leader-stage price
// probe anticipates the classed follower equilibrium — O(log K) per
// pass, with no per-class vector — so the price grids clear
// million-miner markets in the time the exact solver needs for a
// thousand miners. It runs SolveStackelberg's body over the classed
// market (Theorem 4 commitment by default, Algorithm 1 simultaneous
// play via opts.Simultaneous, the Algorithm 2 market-clearing bargain
// in standalone mode), so a single class answers its probes in closed
// form and returns the homogeneous exact solve bit for bit; demand
// probes are memoized per price point with single-flight semantics and
// seeded from the run's closed form at their own prices, so results
// are independent of worker count.
func SolveStackelbergClassed(cfg Config, cp miner.ClassedPopulation, opts StackelbergOptions) (ClassedStackelbergResult, error) {
	if err := cfg.validateClassed(cp); err != nil {
		return ClassedStackelbergResult{}, err
	}
	setClassGauges(opts.observer(), cp)
	var certify func(Prices, MinerEquilibrium) error
	if opts.CertifyClassedAfterSolve != nil {
		certify = func(p Prices, eq MinerEquilibrium) error {
			return opts.CertifyClassedAfterSolve(cfg, cp, p, classedEquilibrium(cp, eq))
		}
	}
	prices, eq, lead, err := solveStackelberg(classedMarket(cfg, cp), opts, certify)
	if err != nil {
		return ClassedStackelbergResult{}, err
	}
	return ClassedStackelbergResult{
		Prices:     prices,
		Follower:   classedEquilibrium(cp, eq),
		ProfitE:    lead.ProfitA,
		ProfitC:    lead.ProfitB,
		Iterations: lead.Iterations,
		Converged:  lead.Converged,
	}, nil
}
