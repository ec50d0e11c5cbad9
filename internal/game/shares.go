package game

// The share-function engine. In the miner subgame every player's best
// response depends on the others only through the totals (E, S), and
// its equilibrium point can be written as a closed form in those totals
// (the replacement function of Cornes & Hartley, "Fully aggregative
// games", 2012). An equilibrium is then a root of the two share
// equations
//
//	Σ_k n_k·e_k(E, S)/E = 1,  Σ_k n_k·s_k(E, S)/S = 1,
//
// each evaluation of which is one O(K) pass over the types. The root is
// nested: an outer bracketed search over S, and for each trial S an
// inner one over E. A shared edge capacity enters the inner search: past
// E = E_max the inner variable prices the capacity with the multiplier
// μ instead, so a binding capacity clears exactly.

import (
	"math"

	"minegame/internal/numeric"
)

// ShareSums evaluates a share system at trial totals (E, S) and the
// shared-capacity price μ: it returns Σ_k n_k·e_k and Σ_k n_k·s_k over
// the types' replacement points, in one pass. SolveShares makes its
// last call at the root it returns, so the points of that pass are the
// equilibrium's.
type ShareSums func(mu, e, s float64) (sumE, sumS float64)

// ShareSystem is the share system of a follower market.
type ShareSystem struct {
	Sums ShareSums
	// Players is Σ_k n_k. Every share tends to 1 as the totals vanish,
	// so the share sums start at Players.
	Players float64
	// TotalMax bounds S from above: at S = TotalMax the S-shares sum to
	// less than 1.
	TotalMax float64
	// Capacity is the shared edge capacity E_max; +Inf for none.
	Capacity float64
	// MuMax bounds μ from above: with E = E_max ≤ S no type requests
	// edge at μ = MuMax. Unused without a capacity.
	MuMax float64
	// Guess is where the shares clear when no constraint binds; the
	// search tries it second, after the warm start.
	Guess numeric.Point2
	// FlatEdge marks a system whose edge requests do not depend on E
	// (no fork bonus): E is then the E-sum itself, not a root.
	FlatEdge bool
}

// ShareResult is the root of a share system.
type ShareResult struct {
	Edge, Total float64 // the totals E and S
	Mu          float64 // the shared-capacity price (0 when slack)
	Passes      int     // evaluations of ShareSystem.Sums
	// Residual is the larger of |Σe/E − 1| and |Σs/S − 1| at the root.
	Residual  float64
	Converged bool
	// Canceled reports that NEOptions.Ctx was canceled mid-solve; the
	// totals are then not a root.
	Canceled bool
}

// shareTol is the residual below which a share system counts as solved:
// the share sums are accurate to rounding, so a root reaches it.
const shareTol = 1e-9

// rootTol is the share-sum residual that ends a one-dimensional search
// over a market of the given number of players: a share sum within it
// of 1 is exact to the rounding of its pass. Each player's share is a
// difference of order-one terms, so the sum's rounding grows with the
// players it weighs.
func rootTol(players float64) float64 {
	return math.Max(1e-13, 1e-15*players)
}

// SolveShares finds the root (E, S, μ) of a share system, warm-started
// at the totals in start (E, S = E + C of a starting profile). The
// solve's passes over the types count on game.sweeps_total, added once
// when it ends; NEOptions.Ctx is checked before every pass and Observer
// receives the solve span, plus a game.sweep event per pass while a
// sink records events. MaxIter, Tol, Damping and Jacobi apply only to
// best-response iteration.
func SolveShares(sys ShareSystem, start numeric.Point2, opts NEOptions) ShareResult {
	// The telemetry lives outside sv, which holds a pointer to it:
	// recording leaks what it is handed, and handing it sv would move
	// the caller's sys.Sums closure to the heap.
	tel := newSolveTelemetry(opts, solveNE, "share_function", int(sys.Players))
	sv := shareSolver{sys: sys, done: opts.done(), tel: &tel}
	s0 := start.E + start.C
	sv.lastT, sv.lastS = start.E, s0
	total := sv.root(sv.totalShare, s0, sys.Guess.E+sys.Guess.C, sys.TotalMax, &sv.slopeS)
	res := ShareResult{Total: total, Passes: sv.passes, Canceled: sv.canceled}
	if !sv.canceled {
		if total != sv.last.s { //lint:allow floateq reuses the outer search's last pass when it ended there
			sv.totalShare(total)
		}
		e, mu, sumE, sumS := sv.last.e, sv.last.mu, sv.last.sumE, sv.last.sumS
		res.Edge, res.Mu = e, mu
		res.Residual = shareResidual(e, total, sumE, sumS)
		res.Passes, res.Canceled = sv.passes, sv.canceled
		res.Converged = !sv.canceled && res.Residual <= shareTol
	}
	tel.addSweeps(res.Passes)
	tel.finish(NEResult{Iterations: res.Passes, Converged: res.Converged, MaxDelta: res.Residual, Canceled: res.Canceled})
	return res
}

// shareSolver is the state of one SolveShares call.
type shareSolver struct {
	sys      ShareSystem
	done     <-chan struct{} // NEOptions.done
	tel      *solveTelemetry
	passes   int
	canceled bool
	// The last inner search: its root, the S it was at and its final
	// slope warm-start the next one.
	lastT, lastS, slopeT float64
	slopeS               float64
	last                 shareEval // the outer search's last pass
}

// shareEval is one outer pass: the trial S, the inner root (E, μ) there
// and the share sums at that point.
type shareEval struct {
	s, e, mu, sumE, sumS float64
}

// sums is one pass over the types; after a cancellation it returns
// zero sums, which end every search.
func (sv *shareSolver) sums(mu, e, s float64) (float64, float64) {
	if sv.canceled || closed(sv.done) {
		sv.canceled = true
		return 0, 0
	}
	sv.passes++
	sumE, sumS := sv.sys.Sums(mu, e, s)
	if sv.tel.recording {
		sv.tel.event(sv.passes, shareResidual(e, s, sumE, sumS))
	}
	return sumE, sumS
}

// shareResidual is the larger of |Σe/E − 1| and |Σs/S − 1|; the edge
// share counts only where E > 0.
func shareResidual(e, s, sumE, sumS float64) float64 {
	r := math.Abs(sumS/s - 1)
	if e > 0 {
		r = math.Max(r, math.Abs(sumE/e-1))
	}
	return r
}

// totalShare is the outer function: Σs/S − 1 with E (and μ) at their
// inner root for this S.
func (sv *shareSolver) totalShare(s float64) float64 {
	e, mu := sv.inner(s)
	sumE, sumS := sv.sums(mu, e, s)
	sv.last = shareEval{s: s, e: e, mu: mu, sumE: sumE, sumS: sumS}
	return sumS/s - 1
}

// inner returns the totals' edge side at S: the root E ∈ (0, min(S,
// E_max)] of Σe/E = 1 with μ = 0 or, when the capacity binds, E = E_max
// and the μ that clears it. A trial S too small to hold its own edge
// demand returns E = S; the outer share there is positive too. At
// S = E_max the capacity may bind: a root where every type buys edge
// alone sits there, and the outer share jumps at it.
func (sv *shareSolver) inner(s float64) (float64, float64) {
	sys := sv.sys
	if sys.FlatEdge {
		sumE, _ := sv.sums(0, s, s)
		if c := sys.Capacity; sumE > c {
			mu := sv.root(func(t float64) float64 {
				sumE, _ := sv.sums(t, c, s)
				return sumE/c - 1
			}, sv.lastT, 0, sys.MuMax, &sv.slopeT)
			sv.lastT = mu
			return c, mu
		}
		return sumE, 0
	}
	c := sys.Capacity
	hi := s
	binds := c <= s
	if binds {
		hi = 2 * c
	}
	// The inner variable t is E up to the capacity and prices it beyond.
	at := func(t float64) (float64, float64) {
		if t <= c {
			return t, 0
		}
		return c, (t - c) / c * sys.MuMax
	}
	t := sv.root(func(t float64) float64 {
		e, mu := at(t)
		sumE, _ := sv.sums(mu, e, s)
		return sumE/e - 1
	}, sv.warmT(s, c, hi), sys.Guess.E, hi, &sv.slopeT)
	sv.lastT, sv.lastS = t, s
	return at(t)
}

// warmT is the inner search's warm start at S: the last inner root, an
// edge total scaled with S (the edge share moves less than the totals)
// or a multiplier kept as it was.
func (sv *shareSolver) warmT(s, c, hi float64) float64 {
	if sv.lastT > c {
		return math.Min(sv.lastT, hi)
	}
	return math.Min(sv.lastT*s/sv.lastS, hi)
}

// root returns the root in (0, hi] of f, a function that decreases from
// a positive limit at 0⁺, starting from x0 and trying guess next (x0
// and guess outside (0, hi] are ignored). A bracket is grown by
// secant extrapolation and geometric steps, then closed by secant
// steps through the two latest points, safeguarded by the bracket and
// by bisection whenever three steps fail to halve it. If f(hi) > 0
// there is no root below hi, and root returns hi.
func (sv *shareSolver) root(f func(float64) float64, x0, guess, hi float64, slope *float64) float64 {
	if !(hi > 0) {
		return 0
	}
	floor := hi * 0x1p-60
	if !(x0 > floor && x0 <= hi) {
		x0 = guess
		if !(x0 > floor && x0 <= hi) {
			x0 = hi
		}
	}
	tol := rootTol(sv.sys.Players)
	x2, f2 := x0, f(x0)
	if sv.canceled || math.Abs(f2) <= tol {
		return x2
	}
	// lo and up are the tightest points known with f > 0 and f < 0; the
	// origin, where f is Players − 1, stands in for lo until one is
	// evaluated, and for the point before x0.
	x1, f1 := 0.0, sv.sys.Players-1
	lo, flo, up, fup := x1, f1, math.NaN(), math.NaN()
	if f2 > 0 {
		lo, flo = x2, f2
	} else {
		up, fup = x2, f2
	}
	// Second trial: a Newton step with the slope (in ln x) the last
	// search ended on, else the guess when it lies on the open side,
	// else the secant through the origin.
	next := x2 - f2*x2/(f2-f1)
	if *slope < 0 {
		next = x2 * (1 - f2 / *slope)
	} else if guess > floor && guess <= hi && (f2 > 0 && guess > x2 || f2 < 0 && guess < x2) {
		next = guess
	}
	bracketed := false
	defer func() {
		if sl := (f2 - f1) / (x2 - x1) * x2; bracketed && sl < 0 && !math.IsInf(sl, -1) {
			*slope = sl
		}
	}()
	width := math.Inf(1)
	for it := 0; it < 400 && !sv.canceled; it++ {
		switch {
		case math.IsNaN(fup): // no point above the root yet
			if lo >= hi {
				return hi
			}
			if !(next > lo && next <= hi) {
				next = math.Min(hi, 4*lo)
			}
		case lo == 0: // no point below the root yet
			if up <= floor {
				return up
			}
			if !(next >= floor && next < up) {
				next = math.Max(floor, up/4)
			}
		default:
			bracketed = true
			if it%3 == 2 {
				if up-lo > width/2 {
					next = lo + (up-lo)/2
				}
				width = up - lo
			}
			if !(next > lo && next < up) {
				next = lo - flo*(up-lo)/(fup-flo)
			}
			if !(next > lo && next < up) || up-lo <= 4e-16*up {
				if -fup < flo {
					return up
				}
				return lo
			}
		}
		fn := f(next)
		if math.Abs(fn) <= tol {
			return next
		}
		if fn > 0 {
			lo, flo = next, fn
		} else {
			up, fup = next, fn
		}
		x1, f1, x2, f2 = x2, f2, next, fn
		next = x2 - f2*(x2-x1)/(f2-f1)
	}
	return x2
}
