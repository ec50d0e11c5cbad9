package core

// The follower market in weighted-type form. The miner subgame is
// aggregative — miner i's utility depends only on its own request and
// the totals (E, S) (Eq. 9, Theorem 1) — so miners that share every
// best-response input are interchangeable, and one representation
// serves every follower market: the exact N-miner market is K = N types
// with every count 1 (each on its own fork rate when Config.Betas is
// set), the classed market (miner.ClassedPopulation) is the compressed
// K, and the population stream's churned classes enter through
// SolveClassShares. Every market sums its share passes, its interior
// guess and its seed over one sorted run of its types (sortedrun.go);
// its per-type points keep the caller's order. The deviation
// certificate and the summary read the types alone (marketTypes) and
// build no run. The entry points only build the market.

import (
	"fmt"
	"math"

	"minegame/internal/game"
	"minegame/internal/miner"
	"minegame/internal/netmodel"
	"minegame/internal/numeric"
	"minegame/internal/obs"
)

// marketTypes are a follower market's K weighted miner types, in the
// caller's order: type k stands for count(k) identical miners with
// budget budget(k) and fork rate β_k. The per-type points, the
// deviation certificate and the summary read them; only a solve needs
// the sorted run on top (market). Methods take them by pointer:
// building the run, the points and the certificate call them once per
// type, and a by-value receiver would copy the whole config each time.
type marketTypes struct {
	cfg     Config
	budgets []float64 // one shared entry, or one per type
	counts  []int     // nil: every type is a single miner
	betas   []float64 // nil: every type uses cfg.Beta
	k       int       // number of types
	n       int       // number of miners, Σ counts
}

// market is a follower market to solve: its types, and the run that
// orders them by (β, budget) for the share passes and the seed.
type market struct {
	marketTypes
	run sortedRun
}

// newMarket is the market of the types t, with its sorted run.
func newMarket(t marketTypes) *market {
	m := &market{marketTypes: t}
	m.run = newSortedRun(&m.marketTypes)
	return m
}

// exactTypes are the configuration's N miners: one type per miner,
// every count 1, the miner's own fork rate when cfg.Betas is set. They
// borrow the config's slices.
func exactTypes(cfg Config) marketTypes {
	return marketTypes{cfg: cfg, budgets: cfg.Budgets, betas: cfg.Betas, k: cfg.N, n: cfg.N}
}

// exactMarket is the configuration's N-miner market. Its run costs O(1)
// on a single-budget scalar-β config and a sort of the N types
// otherwise.
func exactMarket(cfg Config) *market { return newMarket(exactTypes(cfg)) }

// classedTypes are the classes of a classed population: one type per
// class, weighted by the class count, every type on cfg.Beta.
func classedTypes(cfg Config, cp miner.ClassedPopulation) marketTypes {
	budgets := make([]float64, cp.K())
	for k, cl := range cp.Classes {
		budgets[k] = cl.Budget
	}
	return marketTypes{cfg: cfg, budgets: budgets, counts: cp.Counts(), k: cp.K(), n: cp.N()}
}

// classedMarket is the compressed market of a classed population.
func classedMarket(cfg Config, cp miner.ClassedPopulation) *market {
	return newMarket(classedTypes(cfg, cp))
}

// kind names the market in errors: "classed " when its types carry
// counts, "" for the exact market.
func (m *marketTypes) kind() string {
	if m.counts != nil {
		return "classed "
	}
	return ""
}

// spanFields tags a solve's spans with the market's size: its miners,
// and its classes when its types carry counts.
func (m *marketTypes) spanFields() obs.Fields {
	f := obs.Fields{"miners": m.n}
	if m.counts != nil {
		f["classes"] = m.k
	}
	return f
}

// budget returns type k's budget.
func (m *marketTypes) budget(k int) float64 {
	if len(m.budgets) == 1 {
		return m.budgets[0]
	}
	return m.budgets[k]
}

// count returns the number of miners type k stands for.
func (m *marketTypes) count(k int) float64 {
	if m.counts == nil {
		return 1
	}
	return float64(m.counts[k])
}

// beta returns type k's fork rate.
func (m *marketTypes) beta(k int) float64 {
	if m.betas == nil {
		return m.cfg.Beta
	}
	return m.betas[k]
}

// params is type k's parameter set: the price-bound params at the
// type's fork rate.
func (m *marketTypes) params(params miner.Params, k int) miner.Params {
	params.Beta = m.beta(k)
	return params
}

// totals sums one request per type into the population totals,
// E = Σ_k count_k·e_k and C = Σ_k count_k·c_k, in O(K).
func (m *marketTypes) totals(reqs []numeric.Point2) numeric.Point2 {
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
// start, group by group over the run, each group at its own fork rate:
// its types play the closed-form homogeneous equilibrium of the whole
// market at their own budget (Theorem 3 / Table II), falling back to a
// feasible spread B/(4P_e), B/(4P_c) where none applies. A standalone
// market whose capacity is slack is the connected one at h = 1 (root
// solves it so), and seeds as that one does; where the capacity binds
// it seeds from the standalone closed form instead, and a seed whose
// edge total still exceeds the capacity by more than rounding (the
// closed form fills it exactly when it binds) is scaled to 0.9 of it.
// exact reports a seed that is the equilibrium itself: one fork rate,
// and every type at the connected closed form's free point, which then
// is every type's best response; or a single (β, budget) entry, the
// homogeneous market that closed form solves on either face. Types of
// several budgets that all spend them whole are not flagged: a large
// budget may not bind at the root.
func (m *market) seed(p Prices) (t numeric.Point2, exact bool) {
	params := m.cfg.Params(p)
	if m.cfg.Mode == netmodel.Connected {
		return m.seedAt(params, netmodel.Connected)
	}
	params.H = 1
	if t, exact := m.seedAt(params, netmodel.Connected); t.E <= m.cfg.EdgeCapacity {
		return t, exact
	}
	t, _ = m.seedAt(m.cfg.Params(p), netmodel.Standalone)
	if t.E > m.cfg.EdgeCapacity*(1+1e-9) {
		t.E = 0.9 * m.cfg.EdgeCapacity
	}
	return t, false
}

// seedAt is seed's sum at params under one closed form: the connected
// line, or the standalone equilibrium at the market's capacity.
func (m *market) seedAt(params miner.Params, form netmodel.Mode) (t numeric.Point2, exact bool) {
	r := &m.run
	exact = len(r.groups) == 1
	for _, g := range r.groups {
		params.Beta = g.beta
		var free numeric.Point2
		j := g.hi // entries from j on play free, the others the spread
		if form == netmodel.Connected {
			if f, spend, perBudget, err := miner.HomogeneousConnectedLine(params, m.n); err == nil {
				j = r.search(g.lo, g.hi, func(b float64) bool { return spend <= b })
				nf, w := r.count(j, g.hi), r.weight(g.lo, j)
				t.E += nf*f.E + w*perBudget.E
				t.C += nf*f.C + w*perBudget.C
				exact = exact && (j == g.lo || r.single())
				continue
			}
		} else if sol, err := miner.HomogeneousStandalone(params, m.n, m.cfg.EdgeCapacity); err == nil {
			free = sol.Request
			spend := params.Spend(free)
			j = r.search(g.lo, g.hi, func(b float64) bool { return spend <= b })
		}
		nf, w := r.count(j, g.hi), r.weight(g.lo, j)
		t.E += w/(4*params.PriceE) + nf*free.E
		t.C += w/(4*params.PriceC) + nf*free.C
		exact = false
	}
	return t, exact
}

// solve is the follower body behind every miner-subgame entry point:
// the share root of root, summarized per type.
func (m *market) solve(p Prices, opts game.NEOptions, start warmStart) (MinerEquilibrium, error) {
	r, err := m.root(p, opts, start)
	if err != nil {
		return MinerEquilibrium{}, err
	}
	return m.summarize(p, m.points(r), r.res.Passes, r.res.Converged, r.res.Mu), nil
}

// probe is the leader stage's demand probe: the totals of the share
// root, read off the root with no per-type points.
func (m *market) probe(p Prices, opts game.NEOptions, start warmStart) (numeric.Point2, error) {
	r, err := m.root(p, opts, start)
	if err != nil {
		return numeric.Point2{}, err
	}
	return m.run.totals(r.params, r.res, r.split), nil
}

// shareRoot is a solved share system: the root, the params it was
// solved at (h = 1 in standalone mode), and whether splitCapacity
// cleared its capacity.
type shareRoot struct {
	res    game.ShareResult
	params miner.Params
	split  bool
}

// root solves the market at p: the share-function root of
// game.SolveShares, warm-started at start's totals (or the seed at p).
// Standalone mode prices a binding capacity with the common multiplier
// μ (the variational equilibrium of the GNEP). The caller has validated
// the config; root validates the prices.
func (m *market) root(p Prices, opts game.NEOptions, start warmStart) (shareRoot, error) {
	params := m.cfg.Params(p)
	if err := params.Validate(); err != nil {
		return shareRoot{}, err
	}
	if !start.ok {
		start.totals, _ = m.seed(p)
	}
	capacity := math.Inf(1)
	if m.cfg.Mode == netmodel.Standalone {
		params.H = 1
		capacity = m.cfg.EdgeCapacity
	}
	r := m.shares(params, capacity, start.totals, opts)
	if r.res.Canceled {
		return shareRoot{}, fmt.Errorf("%s %sminer subgame: %w", m.cfg.Mode, m.kind(), game.ErrCanceled)
	}
	return r, nil
}

// SolveClassShares solves the connected-mode miner subgame of K miner
// classes at params p with the share-function engine: class k has
// budgets[k] and counts[k] members (a zero count drops the class from
// the totals; budgets need not be sorted), and start (one request per
// class) warm-starts the root at its totals. Its passes run over the
// sorted run of the classes, as every market's do. It returns one
// request per class at the root, in the caller's order, and the root
// with the solve's pass count and convergence; a canceled solve's
// requests are no equilibrium. The population stream re-solves its
// churned classes through it. Inputs are not validated.
func SolveClassShares(p miner.Params, budgets []float64, counts []int, start []numeric.Point2, opts game.NEOptions) ([]numeric.Point2, game.ShareResult) {
	n := 0
	for _, c := range counts {
		n += c
	}
	cfg := Config{Reward: p.Reward, Beta: p.Beta, SatisfyProb: p.H, Mode: netmodel.Connected}
	m := newMarket(marketTypes{cfg: cfg, budgets: budgets, counts: counts, k: len(budgets), n: n})
	r := m.shares(p, math.Inf(1), m.totals(start), opts)
	return m.points(r), r.res
}

// shares solves the market's share system at params (h = 1 in
// standalone mode) under the edge capacity.
func (m *market) shares(params miner.Params, capacity float64, start numeric.Point2, opts game.NEOptions) shareRoot {
	// The passes' closures are built here and handed down, never
	// wrapped in another, so that they stay on the stack.
	sys := m.system(params, capacity)
	sys.Sums = func(mu, e, s float64) (float64, float64) { return m.run.sums(params, mu, e, s) }
	res := game.SolveShares(sys, start, opts)
	d := params.PriceE - params.PriceC
	split := sys.FlatEdge && d < 0 && res.Mu > 0 && !res.Converged && !res.Canceled
	if split {
		sys.Sums = func(_, e, s float64) (float64, float64) { return m.run.sums(params, -d, e, s) }
		res = m.splitCapacity(sys, res, -d, opts)
	}
	return shareRoot{res: res, params: params, split: split}
}

// clearingBracket is where the standalone ESP's clearing price at the
// CSP price pc lies: above pc and the ESP's cost, up to the leaders'
// price ceiling.
func (c Config) clearingBracket(pc float64) (lo, hi float64) {
	lo = math.Max(pc*(1+1e-6), c.CostE+1e-9)
	return lo, math.Max(c.maxLeaderPrice(), lo*1.5)
}

// clearing returns the standalone market's clearing edge price at the
// CSP price pc (Problem 2c) and its totals there, from one share solve
// of the capacity-bound market in which, past capacity, the inner
// variable t prices the edge through P_e = lo + t at μ = 0 rather than
// through μ. ok is false when the capacity stays slack at lo; a root
// stuck at t = hi − lo returns hi with the market's totals there. The
// solve seeds at (lo, pc), its S raised to E_max: the edge alone fills
// the capacity at the root, and where no miner buys cloud the root is
// S = E_max itself.
func (m *market) clearing(pc float64, opts game.NEOptions) (pe float64, totals numeric.Point2, ok bool, err error) {
	lo, hi := m.cfg.clearingBracket(pc)
	p := Prices{Edge: lo, Cloud: pc}
	params := m.cfg.Params(p)
	if err := params.Validate(); err != nil {
		return 0, totals, false, err
	}
	start, _ := m.seed(p)
	start.C = math.Max(start.C, m.cfg.EdgeCapacity-start.E)
	params.H = 1
	sys := m.system(params, m.cfg.EdgeCapacity)
	sys.MuMax = hi - lo
	sys.Sums = func(t, e, s float64) (float64, float64) {
		q := params
		q.PriceE = lo + t
		return m.run.sums(q, 0, e, s)
	}
	res := game.SolveShares(sys, start, opts)
	switch {
	case res.Canceled:
		return 0, totals, false, fmt.Errorf("standalone %sclearing price: %w", m.kind(), game.ErrCanceled)
	case !(res.Mu > 0):
		return 0, totals, false, nil
	case res.Mu >= sys.MuMax:
		totals, err = m.probe(Prices{Edge: hi, Cloud: pc}, opts, warmStart{})
		return hi, totals, err == nil, err
	}
	params.PriceE, res.Mu = lo+res.Mu, 0
	return params.PriceE, m.run.totals(params, res, false), true, nil
}

// system is the market's share system at params under the edge
// capacity: each pass sums over the sorted run, and the interior guess
// and search bounds take one term per fork-rate group.
func (m *market) system(params miner.Params, capacity float64) game.ShareSystem {
	sys := game.ShareSystem{
		Players:  float64(m.n),
		Capacity: capacity,
		FlatEdge: true,
	}
	// The interior root: Σ_k n_k(1 − E/σ₁²) = 1 and Σ_k n_k(1 − S/σ₂²)
	// = 1 with σ₁² = b/(P_e − P_c) and σ₂² = a/P_c (Eqs. 14–15).
	var invE, invS, maxA, maxB float64
	d := params.PriceE - params.PriceC
	for _, g := range m.run.groups {
		n := m.run.count(g.lo, g.hi)
		a, b := (1-g.beta)*params.Reward, params.H*g.beta*params.Reward
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
	return sys
}

// points returns one point per type at the root r, in the caller's
// order: miner.Share at the type's own fork rate and budget, split out
// at the root's edge fraction when splitCapacity cleared it, then
// rescaled.
func (m *market) points(r shareRoot) []numeric.Point2 {
	reqs := make([]numeric.Point2, m.k)
	for k := range reqs {
		reqs[k] = miner.Share(m.params(r.params, k), r.res.Mu, m.budget(k), r.res.Edge, r.res.Total)
	}
	if r.split {
		// Every type buys the same share E_max/S of its request at the edge.
		for k, q := range reqs {
			e := (q.E + q.C) * r.res.Edge / r.res.Total
			reqs[k] = numeric.Point2{E: e, C: q.E + q.C - e}
		}
	}
	m.rescale(reqs, r.res)
	return reqs
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
// that μ, mu: the totals solve the all-cloud market, and every type
// buys the same share E_max/S of its request at the edge — spending no
// more, and with the edge it is left unable to widen. The caller pins
// sys.Sums at μ = mu, and splits the points.
func (m *market) splitCapacity(sys game.ShareSystem, failed game.ShareResult, mu float64, opts game.NEOptions) game.ShareResult {
	sys.Capacity = math.Inf(1)
	res := game.SolveShares(sys, numeric.Point2{C: failed.Total}, opts)
	res.Passes += failed.Passes
	res.Mu, res.Edge = mu, math.Min(m.cfg.EdgeCapacity, res.Total)
	return res
}

// deviations returns each type's largest unilateral best-response gain
// at reqs (one request per type): exact for every one of the type's
// members, since they all play the same request against the same
// environment. A reqs length other than the market's type count gives
// nil.
func (m *marketTypes) deviations(p Prices, reqs []numeric.Point2) []float64 {
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
func (m *marketTypes) summarize(p Prices, reqs []numeric.Point2, iters int, converged bool, mu float64) MinerEquilibrium {
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
