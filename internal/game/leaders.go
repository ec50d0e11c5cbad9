package game

import (
	"fmt"
	"math"

	"minegame/internal/numeric"
	"minegame/internal/obs"
	"minegame/internal/parallel"
)

// Leader describes one price-setting service provider in the leader
// subgame. Profit must return the leader's profit at (own, other) prices,
// typically by solving the follower equilibrium underneath; it should
// return math.Inf(-1) for infeasible price pairs. Bracket returns the
// price search interval given the rival's current price.
type Leader struct {
	Name    string
	Profit  func(own, other float64) float64
	Bracket func(other float64) (lo, hi float64)
}

// LeaderOptions tunes the asynchronous best-response iteration of
// Algorithm 1 (and the SP stage of Algorithm 2).
type LeaderOptions struct {
	MaxIter  int     // best-response rounds (default 60)
	PriceTol float64 // convergence threshold on price moves (default 1e-4)
	GridN    int     // scan intervals of each 1-D profit maximization (default 16)
	Damping  float64 // weight on the new price in (0, 1] (default 1)
	// Observer receives leader-stage telemetry: a span per solve and a
	// "game.leader_round" trace event per bargaining round. Nil falls
	// back to obs.Default().
	Observer *obs.Observer
	// Pool fans the price-grid profit evaluations out over its workers.
	// Results are bit-identical at any worker count (see
	// numeric.MaximizeGridPool); Profit must be safe for concurrent
	// calls when the pool is wider than one worker. Nil runs the grids
	// sequentially.
	Pool *parallel.Pool
}

// WithDefaults returns the options with every unset knob at its default.
func (o LeaderOptions) WithDefaults() LeaderOptions {
	if o.MaxIter <= 0 {
		o.MaxIter = 60
	}
	if o.PriceTol <= 0 {
		o.PriceTol = 1e-4
	}
	if o.GridN <= 0 {
		o.GridN = 16
	}
	if o.Damping <= 0 || o.Damping > 1 {
		o.Damping = 1
	}
	return o
}

// observer resolves the effective observer: the explicit one, or the
// process default.
func (o LeaderOptions) observer() *obs.Observer {
	if o.Observer != nil {
		return o.Observer
	}
	return obs.Default()
}

// LeadersResult is the outcome of the leader-stage iteration.
type LeadersResult struct {
	PriceA, PriceB   float64
	ProfitA, ProfitB float64
	Iterations       int
	Converged        bool
}

// SolveLeaders runs the asynchronous best-response algorithm on two
// price-setting leaders from the given starting prices: in each round
// leader A maximizes its profit against B's current price, then B against
// A's fresh price, until neither moves by more than PriceTol. The profit
// maximizations scan a coarse grid, rescan the cells around its best
// point and refine the best local maxima with Brent's method
// (numeric.MaximizeGridPool), so mild non-unimodality (from the follower
// equilibrium switching regimes) is tolerated.
func SolveLeaders(a, b Leader, startA, startB float64, opts LeaderOptions) (LeadersResult, error) {
	opts = opts.WithDefaults()
	ob := opts.observer()
	span := ob.StartSpan("game.solve_leaders", obs.Fields{"leader_a": a.Name, "leader_b": b.Name})
	rounds := ob.Counter("game.leader_rounds_total")
	tracing := ob.Tracing()
	pa, pb := startA, startB
	res := LeadersResult{}
	for it := 0; it < opts.MaxIter; it++ {
		res.Iterations = it + 1
		nextA, err := maximizeLeader(a, pb, opts)
		if err != nil {
			span.End(obs.Fields{"failed": true})
			return res, fmt.Errorf("leader %s: %w", a.Name, err)
		}
		nextA = pa + opts.Damping*(nextA-pa)
		deltaA := math.Abs(nextA - pa)
		pa = nextA
		nextB, err := maximizeLeader(b, pa, opts)
		if err != nil {
			span.End(obs.Fields{"failed": true})
			return res, fmt.Errorf("leader %s: %w", b.Name, err)
		}
		nextB = pb + opts.Damping*(nextB-pb)
		deltaB := math.Abs(nextB - pb)
		pb = nextB
		rounds.Inc()
		if tracing {
			ob.Emit("game.leader_round", obs.Fields{
				"iter": res.Iterations, "price_a": pa, "price_b": pb,
				"delta_a": deltaA, "delta_b": deltaB,
			})
		}
		if deltaA < opts.PriceTol && deltaB < opts.PriceTol {
			res.Converged = true
			break
		}
	}
	res.PriceA, res.PriceB = pa, pb
	res.ProfitA = a.Profit(pa, pb)
	res.ProfitB = b.Profit(pb, pa)
	span.End(obs.Fields{"iterations": res.Iterations, "converged": res.Converged, "price_a": pa, "price_b": pb})
	return res, nil
}

// SolveLeaderFollower solves the leader stage with the commitment
// structure of the paper's Theorem 4: leader A (the ESP) commits to a
// price anticipating that leader B (the CSP) will play its best-response
// function; B then best-responds to A's chosen price. Unlike simultaneous
// best-response iteration — which can cycle when A's profit is monotone
// along B's reaction curve — this bilevel problem has a well-defined
// optimum whenever A's anticipated profit is bounded on its bracket.
//
// A's Bracket is called with other = NaN (A moves first, before any rival
// price exists); implementations must return a full bracket in that case.
func SolveLeaderFollower(a, b Leader, opts LeaderOptions) (LeadersResult, error) {
	opts = opts.WithDefaults()
	ob := opts.observer()
	span := ob.StartSpan("game.solve_leader_follower", obs.Fields{"leader_a": a.Name, "leader_b": b.Name})
	loA, hiA := a.Bracket(math.NaN())
	if !(hiA > loA) || math.IsNaN(loA) || math.IsNaN(hiA) {
		span.End(obs.Fields{"failed": true})
		return LeadersResult{}, fmt.Errorf("leader %s: invalid first-mover bracket [%g, %g]", a.Name, loA, hiA)
	}
	// The bilevel grid parallelizes at the outer (commitment) level: each
	// first-mover price probe runs the rival's full inner best-response
	// grid, so the inner maximization stays sequential to keep the
	// concurrency bounded by the pool width instead of its square.
	innerOpts := opts
	innerOpts.Pool = nil
	anticipated := func(pa float64) float64 {
		pb, err := maximizeLeader(b, pa, innerOpts)
		if err != nil {
			return math.Inf(-1)
		}
		return a.Profit(pa, pb)
	}
	pa, profitA, err := numeric.MaximizeGridPool(anticipated, loA, hiA, opts.GridN, (hiA-loA)*1e-6, opts.Pool)
	if err != nil {
		span.End(obs.Fields{"failed": true})
		return LeadersResult{}, fmt.Errorf("leader %s: first-mover grid: %w", a.Name, err)
	}
	if math.IsInf(profitA, -1) {
		span.End(obs.Fields{"failed": true})
		return LeadersResult{}, fmt.Errorf("leader %s: no feasible first-mover price in [%g, %g]", a.Name, loA, hiA)
	}
	pb, err := maximizeLeader(b, pa, opts)
	if err != nil {
		span.End(obs.Fields{"failed": true})
		return LeadersResult{}, fmt.Errorf("leader %s: %w", b.Name, err)
	}
	span.End(obs.Fields{"price_a": pa, "price_b": pb})
	return LeadersResult{
		PriceA:     pa,
		PriceB:     pb,
		ProfitA:    a.Profit(pa, pb),
		ProfitB:    b.Profit(pb, pa),
		Iterations: 1,
		Converged:  true,
	}, nil
}

func maximizeLeader(l Leader, other float64, opts LeaderOptions) (float64, error) {
	lo, hi := l.Bracket(other)
	if !(hi > lo) || math.IsNaN(lo) || math.IsNaN(hi) {
		return 0, fmt.Errorf("invalid price bracket [%g, %g] against rival price %g", lo, hi, other)
	}
	f := func(p float64) float64 { return l.Profit(p, other) }
	price, profit, err := numeric.MaximizeGridPool(f, lo, hi, opts.GridN, (hi-lo)*1e-7, opts.Pool)
	if err != nil {
		return 0, fmt.Errorf("price grid on [%g, %g]: %w", lo, hi, err)
	}
	if math.IsInf(profit, -1) {
		return 0, fmt.Errorf("no feasible price in [%g, %g] against rival price %g", lo, hi, other)
	}
	return price, nil
}
