package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"minegame/internal/game"
	"minegame/internal/miner"
	"minegame/internal/netmodel"
	"minegame/internal/numeric"
	"minegame/internal/obs"
	"minegame/internal/parallel"
)

// StackelbergOptions tunes the two-stage solve.
type StackelbergOptions struct {
	Leader   game.LeaderOptions
	Follower game.NEOptions
	// Simultaneous switches the leader stage to the literal asynchronous
	// best-response iteration of Algorithm 1. The default is the paper's
	// Theorem 4 commitment structure (the ESP optimizes against the CSP's
	// best-response function), which is well defined even in regimes
	// where simultaneous best responses cycle; see DESIGN.md.
	Simultaneous bool
	// Observer receives two-stage telemetry (spans, demand-oracle
	// counters) and is threaded into the leader and follower stages
	// unless they carry their own. Nil falls back to obs.Default().
	Observer *obs.Observer
	// Workers bounds the concurrency of the leader-stage price-grid
	// evaluation (and of CompareModes' two mode solves): 0 picks the
	// process default (runtime.GOMAXPROCS(0) unless overridden via
	// parallel.SetDefaultWorkers), 1 forces the exact sequential path.
	// Results are bit-identical at every worker count; see DESIGN.md
	// "Deterministic parallelism".
	Workers int
	// CertifyAfterSolve, when non-nil, independently checks the follower
	// equilibrium behind the returned result (internal/verify supplies
	// implementations). It runs once, on the final solve at the
	// equilibrium prices — never on the leader search's probes — so
	// enabling it cannot change the computed result, only reject it: a
	// certification error fails the whole solve.
	CertifyAfterSolve Certifier
	// CertifyClassedAfterSolve is CertifyAfterSolve for the classed
	// two-stage solver (SolveStackelbergClassed), which never
	// materializes the full MinerEquilibrium the plain Certifier
	// signature wants. Same contract: runs once, on the final follower
	// solve, and an error fails the whole solve.
	CertifyClassedAfterSolve ClassedCertifier
	// DemandCache, when non-nil, is an external warm-start cache that
	// outlives the solve: per-price demand probes survive from one
	// SolveStackelberg call to the next, so a repeat query answers its
	// probes from the cache.
	// The cache must only ever be reused for the IDENTICAL market —
	// same Config and population, same follower options (see
	// DemandCache). Nil gets a fresh per-solve cache.
	DemandCache *DemandCache
	// Ctx, when non-nil, cancels the whole two-stage solve
	// cooperatively: it is threaded into the follower options (making
	// every demand probe abandon before its next pass) and
	// checked between stages. A canceled solve returns an error
	// wrapping game.ErrCanceled, and nothing computed under a canceled
	// context is ever cached.
	Ctx context.Context
}

// ClassedCertifier independently validates a solved classed follower
// equilibrium — the O(K) analog of Certifier (internal/verify supplies
// implementations). A non-nil error means certification failed.
type ClassedCertifier func(cfg Config, cp miner.ClassedPopulation, p Prices, eq ClassedEquilibrium) error

// Certifier independently validates a solved miner equilibrium — an
// ε-Nash / feasibility check that shares no solver internals. A non-nil
// error means the equilibrium failed certification.
type Certifier func(cfg Config, p Prices, eq MinerEquilibrium) error

// maxLeaderPrice is the upper end of both leaders' price brackets,
// scaled from the providers' costs.
func (c Config) maxLeaderPrice() float64 {
	return 40 * math.Max(1, math.Max(c.CostE, c.CostC))
}

// startPrices are the (edge, cloud) prices that Algorithm 1's
// simultaneous iteration starts from, just above cost.
func (c Config) startPrices() (float64, float64) {
	return 2*c.CostE + 1, 2*c.CostC + 1
}

func (o StackelbergOptions) withDefaults() StackelbergOptions {
	o.Leader = o.Leader.WithDefaults()
	if o.Leader.Pool == nil {
		o.Leader.Pool = parallel.New(o.Workers).WithObserver(o.Observer)
	}
	if o.Ctx != nil && o.Follower.Ctx == nil {
		o.Follower.Ctx = o.Ctx
	}
	if o.Observer != nil {
		if o.Leader.Observer == nil {
			o.Leader.Observer = o.Observer
		}
		if o.Follower.Observer == nil {
			o.Follower.Observer = o.Observer
		}
	}
	return o
}

// observer resolves the effective observer: the explicit one, or the
// process default.
func (o StackelbergOptions) observer() *obs.Observer {
	if o.Observer != nil {
		return o.Observer
	}
	return obs.Default()
}

// StackelbergResult is a solved two-stage game.
type StackelbergResult struct {
	Prices     Prices
	Follower   MinerEquilibrium
	ProfitE    float64 // V_e = (P_e − C_e)·E
	ProfitC    float64 // V_c = (P_c − C_c)·C
	Iterations int
	Converged  bool
}

// canceled reports whether the solve's context (if any) is done.
func (o StackelbergOptions) canceled() bool {
	return o.Ctx != nil && o.Ctx.Err() != nil
}

// SolveStackelberg runs backward induction on the full game: the leader
// stage iterates asynchronous best responses (Algorithm 1 in connected
// mode; the SP stage of the Algorithm 2 price bargaining in standalone
// mode), each price evaluation anticipating the miner subgame equilibrium
// underneath. A market of one budget and one fork rate answers a probe
// with the closed form (Theorem 3 / Table II) where its seed is the
// equilibrium; every other probe solves the follower subgame
// numerically. SolveStackelbergClassed runs the same body over a
// classed population, so a single-class population returns this
// result bit for bit.
func SolveStackelberg(cfg Config, opts StackelbergOptions) (StackelbergResult, error) {
	if err := cfg.Validate(); err != nil {
		return StackelbergResult{}, err
	}
	var certify func(Prices, MinerEquilibrium) error
	if opts.CertifyAfterSolve != nil {
		certify = func(p Prices, eq MinerEquilibrium) error { return opts.CertifyAfterSolve(cfg, p, eq) }
	}
	prices, follower, lead, err := solveStackelberg(exactMarket(cfg), opts, certify)
	if err != nil {
		return StackelbergResult{}, err
	}
	return StackelbergResult{
		Prices:     prices,
		Follower:   follower,
		ProfitE:    lead.ProfitA,
		ProfitC:    lead.ProfitB,
		Iterations: lead.Iterations,
		Converged:  lead.Converged,
	}, nil
}

// solveStackelberg is the two-stage body behind SolveStackelberg and
// SolveStackelbergClassed, over the follower market m of a validated
// config: the leader stage, then the follower solve at its prices,
// checked by certify when non-nil. It returns the prices, the follower
// equilibrium (one request per type) and the leader result, whose
// profits it sets to the providers' profits at that equilibrium.
func solveStackelberg(m *market, opts StackelbergOptions, certify func(Prices, MinerEquilibrium) error) (Prices, MinerEquilibrium, game.LeadersResult, error) {
	cfg := m.cfg
	opts = opts.withDefaults()
	name, fields := "core.stackelberg", m.spanFields()
	if m.counts != nil {
		name = "core.stackelberg_classed"
	}
	fields["mode"] = cfg.Mode.String()
	span := opts.observer().StartSpan(name, fields)
	stage := leaderStage{opts: opts, follower: m}
	lead, start, err := stage.run(span)
	if err != nil {
		return Prices{}, MinerEquilibrium{}, game.LeadersResult{}, err
	}
	prices := Prices{Edge: lead.PriceA, Cloud: lead.PriceB}
	eq, err := m.solve(prices, opts.Follower, start)
	if err != nil {
		span.End(obs.Fields{"failed": true})
		return Prices{}, MinerEquilibrium{}, game.LeadersResult{}, fmt.Errorf("%sfollower stage at equilibrium prices %+v: %w", m.kind(), prices, err)
	}
	if certify != nil {
		if err := certify(prices, eq); err != nil {
			span.End(obs.Fields{"failed": true})
			return Prices{}, MinerEquilibrium{}, game.LeadersResult{}, fmt.Errorf("certify %sfollower equilibrium at prices %+v: %w", m.kind(), prices, err)
		}
	}
	lead.ProfitA = (prices.Edge - cfg.CostE) * eq.EdgeDemand
	lead.ProfitB = (prices.Cloud - cfg.CostC) * eq.CloudDemand
	stage.end(span, lead)
	return prices, eq, lead, nil
}

// relativeDistance is |a − b|/|b|: how far a probe's start a sat
// from the root b it converged to, relative to b. Zero totals b give
// |a|.
func relativeDistance(a, b numeric.Point2) float64 {
	d := a.Sub(b).Norm()
	if n := b.Norm(); n > 0 {
		return d / n
	}
	return d
}

// leaderStage is the provider-pricing half of the two-stage game, shared
// by the exact and the classed solvers: it memoizes the follower demand
// per price point, builds the ESP and CSP leaders over it, and runs the
// leader search — Algorithm 1's simultaneous play, the standalone
// Algorithm 2 bargain, or the default Theorem 4 commitment. The follower
// representation enters only through the follower market.
type leaderStage struct {
	opts StackelbergOptions // with defaults applied
	// follower is the market the probes solve, built once per solve.
	follower *market
	// probes counts the stage's demand probes, and warmDist the
	// distance of each follower solve from its start; run resolves them.
	probes   *obs.Counter
	warmDist *obs.Histogram
}

// probe returns the totals of the follower market m's root at p. A
// market of one budget and one fork rate whose seed at p is exact
// returns the seed, the closed-form equilibrium itself, and solves
// nothing. Any other probe solves the root, starting from the seed at p
// when that is exact, where one pass clears it, or when start is not
// ok, and from start otherwise. Every probe counts on
// core.demand_probes_total, and a solve's start's distance from its
// root on core.warm_start_distance.
func (s *leaderStage) probe(m *market, p Prices, start warmStart) (warmStart, error) {
	s.probes.Inc()
	seed, exact := m.seed(p)
	if exact && m.run.single() {
		return warmStart{totals: seed, ok: true}, nil
	}
	if exact || !start.ok {
		start = warmStart{totals: seed, ok: true}
	}
	root, err := m.probe(p, s.opts.Follower, start)
	if err != nil {
		return warmStart{}, err
	}
	if s.warmDist != nil {
		s.warmDist.Observe(relativeDistance(start.totals, root))
	}
	return warmStart{totals: root, ok: true}, nil
}

// run solves the leader stage and returns its result plus the warm start
// for the final follower solve at the winning prices. On failure it ends
// span and returns the wrapped error.
//
// Every grid probe seeds from the market's closed form at its own
// prices (market.seed), so each memoized demand is a pure function of
// its price point: neither worker count, arrival order nor a resident
// cache's earlier solves can reach it.
func (s *leaderStage) run(span *obs.Span) (game.LeadersResult, warmStart, error) {
	cfg, opts := s.follower.cfg, s.opts
	ob := opts.observer()
	s.probes = ob.Counter("core.demand_probes_total")
	s.warmDist = ob.Histogram("core.warm_start_distance")
	memoHits := ob.Counter("core.demand_memo_hits_total")
	memo := opts.DemandCache
	if memo == nil {
		memo = NewDemandCache(0, opts.Observer)
	}
	if opts.canceled() {
		span.End(obs.Fields{"canceled": true})
		return game.LeadersResult{}, warmStart{}, fmt.Errorf("%sstackelberg %s mode: %w", s.follower.kind(), cfg.Mode, game.ErrCanceled)
	}

	oracle := func(p Prices) warmStart {
		d, hit := memo.get(p, func() (warmStart, error) {
			return s.probe(s.follower, p, warmStart{})
		})
		if hit {
			memoHits.Inc()
		}
		return d
	}

	esp := game.Leader{
		Name: "ESP",
		Profit: func(own, other float64) float64 {
			d := oracle(Prices{Edge: own, Cloud: other})
			if !d.ok {
				return math.Inf(-1)
			}
			return (own - cfg.CostE) * d.totals.E
		},
		Bracket: func(other float64) (float64, float64) {
			lo := cfg.CostE + 1e-6
			if cfg.Mode == netmodel.Standalone && !math.IsNaN(other) && other >= lo {
				// Pricing at or below the CSP is dominated for the
				// capacity-limited ESP: it sells out either way.
				lo = other * (1 + 1e-6)
			}
			return lo, math.Max(cfg.maxLeaderPrice(), lo*1.5)
		},
	}
	csp := game.Leader{
		Name: "CSP",
		Profit: func(own, other float64) float64 {
			d := oracle(Prices{Edge: other, Cloud: own})
			if !d.ok {
				return math.Inf(-1)
			}
			return (own - cfg.CostC) * d.totals.C
		},
		Bracket: func(other float64) (float64, float64) {
			return cfg.CostC + 1e-6, cfg.maxLeaderPrice()
		},
	}

	var (
		lead game.LeadersResult
		err  error
	)
	switch {
	case opts.Simultaneous:
		startE, startC := cfg.startPrices()
		lead, err = game.SolveLeaders(esp, csp, startE, startC, opts.Leader)
	case cfg.Mode == netmodel.Standalone:
		// Problem 2c pins E = E_max at the SP equilibrium: the ESP plays
		// the market-clearing price (the highest price that still sells
		// out its capacity) and the CSP optimizes with the edge share
		// pinned, which decouples its problem from P_e.
		lead, err = s.bargain()
	default:
		lead, err = game.SolveLeaderFollower(esp, csp, opts.Leader)
	}
	if err != nil {
		span.End(obs.Fields{"failed": true})
		return game.LeadersResult{}, warmStart{}, fmt.Errorf("%sleader stage: %w", s.follower.kind(), err)
	}
	// A cancellation that landed mid-grid leaves the leader result
	// computed from abandoned (-Inf) probes: discard it rather than
	// solving a follower stage at meaningless prices.
	if opts.canceled() {
		span.End(obs.Fields{"canceled": true})
		return game.LeadersResult{}, warmStart{}, fmt.Errorf("%sstackelberg %s mode: %w", s.follower.kind(), cfg.Mode, game.ErrCanceled)
	}
	// The leader search almost always probed the winning price pair: its
	// memoized totals warm-start the final follower solve, which
	// otherwise seeds itself. Either way the start is arrival-order
	// independent, so determinism is preserved.
	return lead, memo.startAt(Prices{Edge: lead.PriceA, Cloud: lead.PriceB}), nil
}

// end closes a solved two-stage span and flags a leader stage that
// stopped short of convergence.
func (s *leaderStage) end(span *obs.Span, lead game.LeadersResult) {
	span.End(obs.Fields{
		"price_e": lead.PriceA, "price_c": lead.PriceB,
		"profit_e": lead.ProfitA, "profit_c": lead.ProfitB,
		"leader_iterations": lead.Iterations, "converged": lead.Converged,
	})
	if !lead.Converged {
		s.opts.observer().ReportAnomaly("leader_not_converged", obs.Fields{
			"mode": s.follower.cfg.Mode.String(), "iterations": lead.Iterations,
			"price_e": lead.PriceA, "price_c": lead.PriceB,
		})
	}
}

// bargain implements the SP stage of Algorithm 2 under Problem 2c's
// constraint E = E_max: for each CSP price the ESP charges the
// market-clearing edge price, and the CSP maximizes its profit along
// that clearing curve. With miners of one budget, all sufficient, the
// clearing price has a closed form (miner.ClearingPriceEdge), and a
// probe there reads the market's totals; otherwise one share solve of
// the capacity-bound market finds the price and the totals together,
// with P_e as the unknown that μ is past capacity (market.clearing).
// Either way each clearing solve is one demand probe.
func (s *leaderStage) bargain() (game.LeadersResult, error) {
	c, opts := s.follower.cfg, s.opts
	ob := opts.observer()
	fields := s.follower.spanFields()
	fields["capacity"] = c.EdgeCapacity
	span := ob.StartSpan("core.standalone_bargain", fields)
	clearingSolves := ob.Counter("core.clearing_price_solves_total")
	fail := func(err error) (game.LeadersResult, error) {
		span.End(obs.Fields{"failed": true})
		return game.LeadersResult{}, fmt.Errorf("standalone %sSP stage: %w", s.follower.kind(), err)
	}
	// clearing returns the market-clearing edge price at pc and the
	// market's totals there. Each call seeds at its own prices, so its
	// result depends only on pc and the surrounding grid stays
	// worker-count independent.
	clearing := func(pc float64) (float64, numeric.Point2, bool) {
		clearingSolves.Inc()
		if run := &s.follower.run; run.single() {
			pe := miner.ClearingPriceEdge(c.Reward, c.Beta, pc, c.N, c.EdgeCapacity)
			params := c.Params(Prices{Edge: pe, Cloud: pc})
			// A clearing price at or below the ESP's cost means capacity is
			// so plentiful that selling out requires selling at a loss —
			// outside Problem 2c's regime. Fall through to the numeric path,
			// whose bracket floors at CostE and reports the absence of a
			// market-clearing equilibrium (pinned by
			// testdata/fuzz/FuzzStackelberg/ee9b131f0069cd67, which used to
			// return P_e < C_e with negative ESP profit).
			if params.Validate() == nil && pe > pc && pe > c.CostE && pc < (1-c.Beta)*pe {
				sol, err := miner.HomogeneousStandalone(params, c.N, c.EdgeCapacity)
				if err == nil && params.Spend(sol.Request) <= run.entries[0].budget {
					d, err := s.probe(s.follower, Prices{Edge: pe, Cloud: pc}, warmStart{})
					return pe, d.totals, err == nil
				}
			}
		}
		s.probes.Inc()
		pe, t, ok, err := s.follower.clearing(pc, opts.Follower)
		return pe, t, ok && err == nil
	}
	profitC := func(pc float64) float64 {
		_, t, ok := clearing(pc)
		if !ok {
			return math.Inf(-1)
		}
		return (pc - c.CostC) * t.C
	}
	maxPC := c.maxLeaderPrice()
	pcStar, vc, err := numeric.MaximizeGridPool(profitC, c.CostC+1e-6, maxPC, opts.Leader.GridN, maxPC*1e-7, opts.Leader.Pool)
	if err != nil {
		return fail(err)
	}
	if math.IsInf(vc, -1) {
		return fail(errors.New("capacity never binds; no market-clearing equilibrium (Problem 2c requires E = E_max)"))
	}
	peStar, _, ok := clearing(pcStar)
	if !ok {
		return fail(fmt.Errorf("no clearing price at P_c = %g", pcStar))
	}
	span.End(obs.Fields{"price_e": peStar, "price_c": pcStar})
	// The caller sets the profits from its follower solve at these prices.
	return game.LeadersResult{PriceA: peStar, PriceB: pcStar, Iterations: 1, Converged: true}, nil
}

// ModeComparison contrasts the Stackelberg outcomes of the two ESP
// operation modes on otherwise identical configurations (the paper's
// §IV-C discussion: the standalone ESP charges more and earns more).
type ModeComparison struct {
	Connected  StackelbergResult
	Standalone StackelbergResult
}

// CompareModes solves the full game in both modes. The connected variant
// of cfg uses its SatisfyProb; the standalone variant its EdgeCapacity.
// With opts.Workers allowing more than one worker the two mode solves
// run concurrently (each keeping its own in-solve parallelism); the
// comparison is identical to the sequential one at any worker count.
func CompareModes(cfg Config, opts StackelbergOptions) (ModeComparison, error) {
	conn := cfg
	conn.Mode = netmodel.Connected
	alone := cfg
	alone.Mode = netmodel.Standalone
	// A shared DemandCache is keyed to ONE market; the two mode
	// variants are different markets, so never share a cache across
	// them — each mode solve builds its own per-solve cache.
	opts.DemandCache = nil
	ob := opts.observer()
	span := ob.StartSpan("core.compare_modes", obs.Fields{"miners": cfg.N})
	pool := parallel.New(opts.Workers).WithObserver(opts.Observer)
	results, err := parallel.Map(pool, []Config{conn, alone}, func(i int, c Config) (StackelbergResult, error) {
		modeSpan := ob.StartSpan("core.mode_solve", obs.Fields{"mode": c.Mode.String()})
		r, err := SolveStackelberg(c, opts)
		modeSpan.End(obs.Fields{"failed": err != nil})
		if err != nil {
			return StackelbergResult{}, fmt.Errorf("%s mode: %w", c.Mode, err)
		}
		return r, nil
	})
	if err != nil {
		span.End(obs.Fields{"failed": true})
		return ModeComparison{}, err
	}
	rc, ra := results[0], results[1]
	span.End(obs.Fields{
		"profit_e_connected": rc.ProfitE, "profit_e_standalone": ra.ProfitE,
	})
	return ModeComparison{Connected: rc, Standalone: ra}, nil
}
