package core

// The follower market in weighted-type form. The miner subgame is
// aggregative — miner i's utility depends only on its own request and
// the totals (E, S) (Eq. 9, Theorem 1) — so miners that share every
// best-response input are interchangeable, and one representation
// serves both follower markets: the exact N-miner market is K = N types
// with every count 1, and the classed market (miner.ClassedPopulation)
// is the compressed K. Class counts are weights in the share sums of one
// follower body; one deviation certificate and one per-type summary run
// on the same representation; the exact and classed entry points only
// build the market and pick the seed.

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
// Its methods take it by pointer: the share sums call them once per
// type per pass, and a by-value receiver would copy the whole config
// each time.
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
func (m *market) totals(reqs []numeric.Point2) numeric.Point2 {
	var t numeric.Point2
	for k, r := range reqs {
		c := m.count(k)
		t.E += c * r.E
		t.C += c * r.C
	}
	return t
}

// warmStart is the start of a follower solve: the totals (E, C) of an
// equilibrium solved nearby when ok, else nothing, and the solve seeds
// at its own prices. A solve reads a start only through its totals, so
// the two numbers warm-start it exactly as the profile behind them did.
type warmStart struct {
	totals numeric.Point2
	ok     bool
}

// seed returns the totals a solve at p starts from without a warm
// start, summed as totals sums them. The exact market sums
// Config.seedProfile. A classed market seeds each class with the
// closed-form homogeneous equilibrium of the whole market at the
// class's budget, falling back to a feasible spread; a standalone seed
// is scaled to stay jointly within the capacity. Neither builds a
// per-class vector.
func (m *market) seed(p Prices) numeric.Point2 {
	if m.counts == nil {
		return m.totals(m.cfg.seedProfile(p))
	}
	params := m.cfg.Params(p)
	var sol miner.HomogeneousSolution
	closed := false
	if m.cfg.Mode == netmodel.Connected {
		if t, err := miner.HomogeneousConnectedTotals(params, m.n, m.budgets, m.counts); err == nil {
			return t
		}
	} else {
		var err error
		sol, err = miner.HomogeneousStandalone(params, m.n, m.cfg.EdgeCapacity)
		closed = err == nil
	}
	sum := func(scale float64) numeric.Point2 {
		var t numeric.Point2
		for k := 0; k < m.k; k++ {
			b := m.budget(k)
			r := numeric.Point2{E: b / (4 * p.Edge), C: b / (4 * p.Cloud)}
			if closed && params.Spend(sol.Request) <= b {
				r = sol.Request
			}
			c := m.count(k)
			t.E += c * (r.E * scale)
			t.C += c * r.C
		}
		return t
	}
	t := sum(1)
	if m.cfg.Mode == netmodel.Standalone && t.E > m.cfg.EdgeCapacity {
		t = sum(m.cfg.EdgeCapacity / t.E * 0.9)
	}
	return t
}

// solve is the follower body behind every miner-subgame entry point:
// the share root of root, summarized per type.
func (m *market) solve(p Prices, opts game.NEOptions, start warmStart, label string) (MinerEquilibrium, error) {
	reqs, res, err := m.root(p, opts, start, label)
	if err != nil {
		return MinerEquilibrium{}, err
	}
	return m.summarize(p, reqs, res.Passes, res.Converged, res.Mu), nil
}

// probe is the leader stage's demand probe: the totals of the share
// root, without the per-type summary, as the demand there and as the
// warm start of a later solve.
func (m *market) probe(p Prices, opts game.NEOptions, start warmStart, label string) (demand, warmStart, error) {
	reqs, _, err := m.root(p, opts, start, label)
	if err != nil {
		return demand{}, warmStart{}, err
	}
	t := m.totals(reqs)
	return demand{edge: t.E, cloud: t.C, ok: true}, warmStart{totals: t, ok: true}, nil
}

// root solves the market at p: the share-function root of
// game.SolveShares, warm-started at start's totals (or the seed at p),
// then one miner.Share point per type at the root. Standalone mode
// prices a binding capacity with the common multiplier μ (the
// variational equilibrium of the GNEP). The caller has validated the
// config; root validates the prices. label names the market in errors
// ("" or "classed ").
func (m *market) root(p Prices, opts game.NEOptions, start warmStart, label string) ([]numeric.Point2, game.ShareResult, error) {
	params := m.cfg.Params(p)
	if err := params.Validate(); err != nil {
		return nil, game.ShareResult{}, err
	}
	if !start.ok {
		start.totals = m.seed(p)
	}
	capacity := math.Inf(1)
	if m.cfg.Mode == netmodel.Standalone {
		params.H = 1
		capacity = m.cfg.EdgeCapacity
	}
	reqs, res := m.shares(params, capacity, start.totals, opts)
	if res.Canceled {
		return nil, res, fmt.Errorf("%s %sminer subgame: %w", m.cfg.Mode, label, game.ErrCanceled)
	}
	return reqs, res, nil
}

// SolveClassShares solves the connected-mode miner subgame of K miner
// classes at params p with the share-function engine: class k has
// budgets[k] and counts[k] members (a zero count drops the class from
// the totals), and start (one request per class) warm-starts the root
// at its totals. It returns one request per class, the root, and the
// solve's pass count and convergence. The population stream re-solves
// its churned classes through it. Inputs are not validated.
func SolveClassShares(p miner.Params, budgets []float64, counts []int, start []numeric.Point2, opts game.NEOptions) ([]numeric.Point2, game.ShareResult) {
	n := 0
	for _, c := range counts {
		n += c
	}
	m := &market{
		cfg:     Config{Reward: p.Reward, Beta: p.Beta, SatisfyProb: p.H, Mode: netmodel.Connected},
		budgets: budgets, counts: counts, k: len(budgets), n: n,
	}
	return m.shares(p, math.Inf(1), m.totals(start), opts)
}

// shares solves the market's share system at params (h = 1 in
// standalone mode) under the edge capacity, and returns each type's
// point at the root: the points of the root's last pass, which
// game.SolveShares makes at the root.
func (m *market) shares(params miner.Params, capacity float64, start numeric.Point2, opts game.NEOptions) ([]numeric.Point2, game.ShareResult) {
	reqs := make([]numeric.Point2, m.k)
	sys := game.ShareSystem{
		Sums: func(mu, e, s float64) (float64, float64) {
			var sumE, sumS float64
			for k := range reqs {
				r := miner.Share(m.params(params, k), mu, m.budget(k), e, s)
				reqs[k] = r
				n := m.count(k)
				sumE += n * r.E
				sumS += n * (r.E + r.C)
			}
			return sumE, sumS
		},
		Players:  float64(m.n),
		Capacity: capacity,
		FlatEdge: true,
	}
	// The interior root: Σ_k n_k(1 − E/σ₁²) = 1 and Σ_k n_k(1 − S/σ₂²)
	// = 1 with σ₁² = b/(P_e − P_c) and σ₂² = a/P_c (Eqs. 14–15). One loop
	// over the types serves every market, so a market with per-type fork
	// rates all equal to β gets the same guess, bit for bit, as the market
	// without them.
	var invE, invS, maxA, maxB float64
	d := params.PriceE - params.PriceC
	for k := 0; k < m.k; k++ {
		pk := m.params(params, k)
		n := m.count(k)
		a, b := (1-pk.Beta)*pk.Reward, pk.H*pk.Beta*pk.Reward
		if b > 0 {
			sys.FlatEdge = false
			invE += n * d / b
		}
		invS += n * params.PriceC / a
		maxA, maxB = math.Max(maxA, a), math.Max(maxB, b)
	}
	if d > 0 && !sys.FlatEdge {
		sys.Guess.E = (sys.Players - 1) / invE
	}
	sys.Guess.C = (sys.Players-1)/invS - sys.Guess.E
	// Each type spends at most its share reward a·s/S + b·e/E, so at
	// S = (a + b)/min(P_e, P_c) the S-shares sum below 1; with E = E_max
	// no type requests edge once μ exceeds the largest marginal reward.
	sys.TotalMax = 2 * (maxA + maxB) / math.Min(params.PriceE, params.PriceC)
	k := math.Abs(d) / params.PriceC
	sys.MuMax = 2*(maxA+maxB)*(1+k)/capacity + params.PriceC
	res := game.SolveShares(sys, start, opts)
	if sys.FlatEdge && d < 0 && res.Mu > 0 && !res.Converged && !res.Canceled {
		return m.splitCapacity(params, sys, res, reqs, opts)
	}
	m.rescale(reqs, res)
	return reqs, res
}

// rescale scales a converged root's points so that they add up to its
// totals. The totals are accurate to rounding, but each type's share of
// them is a difference of order-one terms that cancels to about 1/N,
// so the points carry rounding of order N·ε relative (2e-10 at
// N = 10⁶) — enough to move a leader's argmax on a flat profit surface.
// The rescaling removes the part common to all types: all of it when
// every type is interior with one σ, where each point becomes E/N.
func (m *market) rescale(reqs []numeric.Point2, res game.ShareResult) {
	if !res.Converged {
		return
	}
	var sumE, sumS float64
	for k, r := range reqs {
		sumE += m.count(k) * r.E
		sumS += m.count(k) * (r.E + r.C)
	}
	if !(sumE > 0) || !(sumS > 0) {
		return
	}
	ae, as := res.Edge/sumE, res.Total/sumS
	for k, r := range reqs {
		e := r.E * ae
		reqs[k] = numeric.Point2{E: e, C: math.Max((r.E+r.C)*as-e, 0)}
	}
}

// splitCapacity clears a binding capacity where no type earns a fork
// bonus and P_e < P_c. Edge and cloud are then perfect substitutes at
// μ = P_c − P_e, where each type's edge request jumps from all of its
// request to none, so no μ clears the capacity exactly. It clears at
// that μ: the totals solve the all-cloud market, and every type buys the
// same share E_max/S of its request at the edge — spending no more, and
// with the edge it is left unable to widen. reqs is the buffer sys.Sums
// fills.
func (m *market) splitCapacity(params miner.Params, sys game.ShareSystem, failed game.ShareResult, reqs []numeric.Point2, opts game.NEOptions) ([]numeric.Point2, game.ShareResult) {
	mu := params.PriceC - params.PriceE
	sums := sys.Sums
	sys.Sums = func(_, e, s float64) (float64, float64) { return sums(mu, e, s) }
	sys.Capacity = math.Inf(1)
	res := game.SolveShares(sys, numeric.Point2{C: failed.Total}, opts)
	res.Passes += failed.Passes
	res.Mu, res.Edge = mu, math.Min(m.cfg.EdgeCapacity, res.Total)
	for k, r := range reqs {
		e := (r.E + r.C) * res.Edge / res.Total
		reqs[k] = numeric.Point2{E: e, C: r.E + r.C - e}
	}
	m.rescale(reqs, res)
	return reqs, res
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
	totals := miner.Totals{Edge: t.E, Cloud: t.C}
	eq := MinerEquilibrium{
		Requests:    reqs,
		EdgeDemand:  t.E,
		CloudDemand: t.C,
		TotalDemand: t.E + t.C,
		Utilities:   make([]float64, len(reqs)),
		WinProbs:    make([]float64, len(reqs)),
		Iterations:  iters,
		Converged:   converged,
		Multiplier:  mu,
	}
	for k, own := range reqs {
		pk := m.params(params, k)
		env := totals.Env(own)
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
