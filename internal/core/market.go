package core

// The follower market in weighted-type form. The miner subgame is
// aggregative — miner i's utility depends only on its own request and
// the totals (E, S) (Eq. 9, Theorem 1) — so miners that share every
// best-response input are interchangeable, and one representation
// serves both follower markets: the exact N-miner market is K = N types
// with every count 1, and the classed market (miner.ClassedPopulation)
// is the compressed K. One follower body, one zero-collapse escape, one
// deviation certificate and one per-type summary run on it; the exact
// and classed entry points only build the market and pick the seed.

import (
	"fmt"
	"math"

	"minegame/internal/game"
	"minegame/internal/miner"
	"minegame/internal/netmodel"
	"minegame/internal/numeric"
)

// market is a follower market of K weighted miner types: type k stands
// for count(k) identical miners with budget budget(k) and fork rate β_k.
// Its methods take it by pointer: the best-response closures call them
// once per miner per sweep, and a by-value receiver would copy the whole
// config each time.
type market struct {
	cfg     Config
	budgets []float64 // one shared entry, or one per type
	counts  []int     // nil: every type is a single miner
	betas   []float64 // nil: every type uses cfg.Beta
	k       int       // number of types
	n       int       // number of miners, Σ counts
}

// exactMarket is the configuration's N-miner market: one type per
// miner, every count 1, the miner's own fork rate when cfg.Betas is set.
// It borrows the config's slices, so building it costs O(1).
func exactMarket(cfg Config) *market {
	return &market{cfg: cfg, budgets: cfg.Budgets, betas: cfg.Betas, k: cfg.N, n: cfg.N}
}

// classedMarket is the compressed market of a classed population: one
// type per class, weighted by the class count, every type on cfg.Beta.
func classedMarket(cfg Config, cp miner.ClassedPopulation) *market {
	budgets := make([]float64, cp.K())
	for k, cl := range cp.Classes {
		budgets[k] = cl.Budget
	}
	return &market{cfg: cfg, budgets: budgets, counts: cp.Counts(), k: cp.K(), n: cp.N()}
}

// budget returns type k's budget.
func (m *market) budget(k int) float64 {
	if len(m.budgets) == 1 {
		return m.budgets[0]
	}
	return m.budgets[k]
}

// count returns the number of miners type k stands for.
func (m *market) count(k int) float64 {
	if m.counts == nil {
		return 1
	}
	return float64(m.counts[k])
}

// params is type k's parameter set: the price-bound params with the
// type's own fork rate when the market carries one.
func (m *market) params(params miner.Params, k int) miner.Params {
	if m.betas != nil {
		params.Beta = m.betas[k]
	}
	return params
}

// totals sums one request per type into the population totals,
// E = Σ_k count_k·e_k and C = Σ_k count_k·c_k, in O(K).
func (m *market) totals(reqs []numeric.Point2) miner.Totals {
	var t miner.Totals
	for k, r := range reqs {
		c := m.count(k)
		t.Edge += c * r.E
		t.Cloud += c * r.C
	}
	return t
}

// solve is the follower body behind every miner-subgame entry point:
// connected mode runs the aggregate NEP solve, standalone mode the
// variational GNEP solve (shared capacity priced by a common
// multiplier), each followed by the zero-collapse escape. start holds
// one request per type and is not mutated; the caller has validated the
// config, the prices and the start's length. label names the market in
// errors ("" or "classed ").
func (m *market) solve(p Prices, opts game.NEOptions, start []numeric.Point2, label string) (MinerEquilibrium, error) {
	params := m.cfg.Params(p)
	if opts.Tol <= 0 {
		opts.Tol = 1e-6
	}
	switch m.cfg.Mode {
	case netmodel.Connected:
		br := func(k int, own, others numeric.Point2) numeric.Point2 {
			return miner.BestResponseConnected(m.params(params, k), m.budget(k), envFromOthers(others), own)
		}
		res := game.SolveNEAggregate(start, m.counts, br, opts)
		if !res.Canceled {
			if seed, ok := m.escapeZeroCollapse(p, res.Profile); ok {
				res = game.SolveNEAggregate(seed, m.counts, br, opts)
			}
		}
		if res.Canceled {
			return MinerEquilibrium{}, fmt.Errorf("connected %sminer subgame: %w", label, game.ErrCanceled)
		}
		return m.summarize(p, res.Profile, res.Iterations, res.Converged, 0), nil
	default:
		brAt := func(mu float64) game.AggregateBestResponse {
			return func(k int, own, others numeric.Point2) numeric.Point2 {
				return miner.BestResponseStandalonePenalized(m.params(params, k), mu, m.budget(k), envFromOthers(others), own)
			}
		}
		shared := func(reqs []numeric.Point2) float64 {
			return m.totals(reqs).Edge
		}
		capTol := 1e-4 * m.cfg.EdgeCapacity
		res, err := game.SolveVariationalGNEAggregate(start, m.counts, brAt, shared, m.cfg.EdgeCapacity, capTol, opts)
		if err == nil {
			if seed, ok := m.escapeZeroCollapse(p, res.Profile); ok {
				res, err = game.SolveVariationalGNEAggregate(seed, m.counts, brAt, shared, m.cfg.EdgeCapacity, capTol, opts)
			}
		}
		if err != nil {
			return MinerEquilibrium{}, fmt.Errorf("standalone %sminer subgame: %w", label, err)
		}
		return m.summarize(p, res.Profile, res.Iterations, res.Converged, res.Multiplier), nil
	}
}

// escapeZeroCollapse detects the all-zero pseudo-equilibrium and
// returns a tiny interior restart (one request per type) for a second
// solve.
//
// The empty market is always a fixed point of the COMPUTED best-response
// map: against zero rivals the contest utility jumps to ≈R at any
// positive request, so the supremum is not attained and the numeric
// best response returns zero. But it is never a Nash equilibrium — a
// miner deviating to an arbitrarily small request wins the whole
// contest. In regimes where competing is unprofitable against the
// default seed (reward small relative to prices), every miner drops out
// in the first sweep and the iteration stalls on this artifact; found
// by FuzzSolveVariationalGNE. Restarting from a small interior profile
// (spend ≈ R/4n each, well under the interior equilibrium scale) lets
// the iteration climb to the genuine contest equilibrium instead.
func (m *market) escapeZeroCollapse(p Prices, reqs []numeric.Point2) ([]numeric.Point2, bool) {
	var s float64
	for k, r := range reqs {
		s += m.count(k) * (r.E + r.C)
	}
	if s > 1e-9 {
		return nil, false
	}
	seed := make([]numeric.Point2, len(reqs))
	for k := range seed {
		spend := math.Min(m.budget(k), m.cfg.Reward/float64(4*m.n))
		seed[k] = numeric.Point2{E: spend / (2 * p.Edge), C: spend / (2 * p.Cloud)}
	}
	if m.cfg.Mode == netmodel.Standalone && !math.IsInf(m.cfg.EdgeCapacity, 1) {
		if e := m.totals(seed).Edge; e > m.cfg.EdgeCapacity/2 {
			scale := m.cfg.EdgeCapacity / (2 * e)
			for k := range seed {
				seed[k].E *= scale
			}
		}
	}
	return seed, true
}

// deviations returns each type's largest unilateral best-response gain
// at reqs (one request per type): exact for every one of the type's
// members, since they all play the same request against the same
// environment. A reqs length other than the market's type count gives
// nil.
func (m *market) deviations(p Prices, reqs []numeric.Point2) []float64 {
	if len(reqs) != m.k {
		return nil
	}
	params := m.cfg.Params(p)
	switch m.cfg.Mode {
	case netmodel.Connected:
		br := func(k int, own, others numeric.Point2) numeric.Point2 {
			return miner.BestResponseConnected(m.params(params, k), m.budget(k), envFromOthers(others))
		}
		utility := func(k int, own, others numeric.Point2) float64 {
			return miner.UtilityConnected(m.params(params, k), own, envFromOthers(others))
		}
		return game.DeviationsAggregate(reqs, m.counts, br, utility)
	default:
		br := func(k int, own, others numeric.Point2) numeric.Point2 {
			env := envFromOthers(others)
			return miner.BestResponseStandalone(m.params(params, k), m.budget(k), m.cfg.EdgeCapacity-env.EdgeOthers, env)
		}
		utility := func(k int, own, others numeric.Point2) float64 {
			return miner.UtilityStandalone(m.params(params, k), own, envFromOthers(others))
		}
		return game.DeviationsAggregate(reqs, m.counts, br, utility)
	}
}

// summarize assembles the equilibrium statistics of one request per
// type in O(K): population demand from the weighted totals, and the
// utility and winning probability of ONE member of each type, whose
// environment is the totals minus its own request (Eq. 9 with the
// type's fork rate in connected mode, Eq. 6 standalone).
func (m *market) summarize(p Prices, reqs []numeric.Point2, iters int, converged bool, mu float64) MinerEquilibrium {
	params := m.cfg.Params(p)
	t := m.totals(reqs)
	eq := MinerEquilibrium{
		Requests:    reqs,
		EdgeDemand:  t.Edge,
		CloudDemand: t.Cloud,
		TotalDemand: t.Edge + t.Cloud,
		Utilities:   make([]float64, len(reqs)),
		WinProbs:    make([]float64, len(reqs)),
		Iterations:  iters,
		Converged:   converged,
		Multiplier:  mu,
	}
	for k, own := range reqs {
		pk := m.params(params, k)
		env := t.Env(own)
		if m.cfg.Mode == netmodel.Connected {
			eq.Utilities[k] = miner.UtilityConnected(pk, own, env)
			eq.WinProbs[k] = miner.WinProbConnected(pk.Beta, m.cfg.SatisfyProb, own, env)
		} else {
			eq.Utilities[k] = miner.UtilityStandalone(pk, own, env)
			eq.WinProbs[k] = miner.WinProbFull(pk.Beta, own, env)
		}
	}
	return eq
}
