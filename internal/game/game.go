// Package game provides the generic game-theoretic solvers of the paper:
// the share-function root of an aggregative follower game (with a
// shared capacity priced by a common multiplier), best-response and
// fictitious-play iteration for Nash equilibrium problems (NEPs), and
// the asynchronous best-response iteration for the two-leader price
// competition (Algorithms 1 and 2).
//
// The solvers are agnostic to the specific followers: a follower game is
// described by a best-response map over stacked strategy vectors; the
// leader game by each leader's profit oracle and price bracket.
package game

import (
	"context"
	"errors"
	"math"
	"sort"

	"minegame/internal/numeric"
	"minegame/internal/obs"
)

// BestResponse computes player i's optimal strategy against the profile.
// Implementations must not mutate the profile.
type BestResponse func(i int, profile []numeric.Point2) numeric.Point2

// AggregateBestResponse computes player i's optimal strategy in an
// aggregative game: own is the player's current strategy and others is
// the coordinate-wise total of every OTHER player's strategy (profile
// totals minus own). Solvers driving this form maintain the totals as
// O(1) running aggregates across a sweep — updated by delta as each
// player moves and re-summed exactly at every sweep boundary — so a
// sweep over N players costs O(N) instead of the O(N²) a profile-based
// BestResponse pays re-summing its environment. others may carry tiny
// negative residues from floating-point cancellation; implementations
// that require non-negative aggregates must clamp.
type AggregateBestResponse func(i int, own, others numeric.Point2) numeric.Point2

// sumPoints re-sums a profile exactly — the sweep-boundary step that
// bounds the running totals' floating-point drift to a single sweep's
// worth of rounding.
func sumPoints(ps []numeric.Point2) numeric.Point2 {
	var t numeric.Point2
	for _, p := range ps {
		t = t.Add(p)
	}
	return t
}

// NEOptions tunes an equilibrium solve. MaxIter, Tol, Damping and
// Jacobi apply only to best-response iteration (SolveNEAggregate and
// fictitious play); SolveShares reads Observer and Ctx alone.
type NEOptions struct {
	MaxIter int     // outer sweeps over all players (default 500)
	Tol     float64 // convergence threshold on the max strategy change (default 1e-8)
	Damping float64 // weight on the new strategy in (0, 1] (default 1: undamped)
	// Observer receives solver telemetry: a span per solve, one
	// "game.sweep" trace event per sweep (its "max_delta" field is the
	// sweep's largest strategy change — the signal behind the
	// convergence diagnostics), and iteration/contraction metrics. Nil
	// falls back to obs.Default() (disabled unless the process enabled
	// it), which costs one atomic check per sweep.
	Observer *obs.Observer
	// Jacobi switches to simultaneous updates: every player best-responds
	// to the PREVIOUS sweep's profile instead of the freshest strategies.
	// Gauss–Seidel (the default) usually converges faster; Jacobi models
	// fully distributed miners updating in parallel.
	Jacobi bool
	// Ctx, when non-nil, cancels the solve cooperatively: the iteration
	// checks it at every SWEEP BOUNDARY only (one interface call per
	// sweep or share pass, no per-player cost, no allocation — the hot
	// path stays within its allocation budget) and abandons the solve
	// when the context is done. An abandoned solve reports Canceled=true
	// on its result; solvers that return errors (everything in
	// internal/core) surface it as ErrCanceled.
	Ctx context.Context
}

// done returns the channel that closes when the options' context is
// canceled; nil, which never closes, without a context. A solver
// fetches it once and polls it with closed at every sweep boundary:
// ctx.Err would take the context's lock on every poll.
func (o NEOptions) done() <-chan struct{} {
	if o.Ctx == nil {
		return nil
	}
	return o.Ctx.Done()
}

// closed polls a done channel without blocking.
func closed(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}

func (o NEOptions) withDefaults() NEOptions {
	if o.MaxIter <= 0 {
		o.MaxIter = 500
	}
	if o.Tol <= 0 {
		o.Tol = 1e-8
	}
	if o.Damping <= 0 || o.Damping > 1 {
		o.Damping = 1
	}
	return o
}

// observer resolves the effective observer: the explicit one, or the
// process default.
func (o NEOptions) observer() *obs.Observer {
	if o.Observer != nil {
		return o.Observer
	}
	return obs.Default()
}

// NEResult is the outcome of a best-response iteration.
type NEResult struct {
	Profile    []numeric.Point2 // final strategy profile
	Iterations int              // sweeps performed
	Converged  bool             // true when MaxDelta fell below Tol
	MaxDelta   float64          // last sweep's largest strategy change
	// Canceled reports that NEOptions.Ctx was canceled mid-solve: the
	// iteration stopped at a sweep boundary and Profile is the best
	// iterate reached, NOT an equilibrium. Callers that return errors
	// must surface ErrCanceled instead of using the profile.
	Canceled bool
}

// solveKind names the telemetry of one family of iterative solves: its
// span, and the "<name>.iterations" histogram.
type solveKind struct{ name string }

var (
	solveNE         = &solveKind{name: "game.solve_ne"}
	solveFictitious = &solveKind{name: "game.solve_fictitious"}
)

// solveMetrics are the handles a solve kind records through, resolved
// once per observer (obs.Handles).
type solveMetrics struct {
	sweeps     *obs.Counter
	delta      *obs.Histogram
	iterations *obs.Histogram
	timer      obs.Timer
}

func newSolveMetrics(ob *obs.Observer, kind *solveKind) *solveMetrics {
	return &solveMetrics{
		sweeps:     ob.Counter("game.sweeps_total"),
		delta:      ob.Histogram("game.sweep_delta"),
		iterations: ob.Histogram(kind.name + ".iterations"),
		timer:      ob.Timer(kind.name),
	}
}

// solveTelemetry bundles the observer state of one iterative solve so
// the solver loops stay readable: a span for the whole solve, a counter
// and trace event per sweep, and the delta history for the
// contraction-rate summary. It is a value the solver keeps on its
// stack. When the observer is disabled every method is a single nil
// test; when it is enabled but no sink records, a solve builds no
// Fields map, no string and no span record, and allocates nothing.
type solveTelemetry struct {
	ob     *obs.Observer
	m      *solveMetrics // nil when the observer is disabled
	span   obs.Span
	deltas []float64
	name   string
	solver string
	// recording gates the Fields maps that only a sink reads: a trace
	// file or the flight recorder.
	recording bool
}

func newSolveTelemetry(opts NEOptions, kind *solveKind, solver string, players int) solveTelemetry {
	ob := opts.observer()
	m := obs.Handles(ob, kind, newSolveMetrics)
	if m == nil {
		return solveTelemetry{}
	}
	t := solveTelemetry{ob: ob, m: m, name: kind.name, solver: solver, recording: ob.Recording()}
	var start obs.Fields
	if t.recording {
		start = obs.Fields{"players": players, "solver": solver, "tol": opts.Tol, "damping": opts.Damping}
	}
	t.span = m.timer.Start(start)
	return t
}

// sweep records one completed sweep.
func (t *solveTelemetry) sweep(iter int, maxDelta float64) {
	if t.m == nil {
		return
	}
	t.m.sweeps.Inc()
	t.m.delta.Observe(maxDelta)
	t.deltas = append(t.deltas, maxDelta)
	if t.recording {
		t.event(iter, maxDelta)
	}
}

// event emits the game.sweep trace event of one sweep or pass; callers
// check recording first.
func (t *solveTelemetry) event(iter int, maxDelta float64) {
	t.ob.Emit("game.sweep", obs.Fields{"solver": t.solver, "iter": iter, "max_delta": maxDelta})
}

// addSweeps counts n sweeps on game.sweeps_total at once: the share
// solver's passes, which record no per-pass metric.
func (t *solveTelemetry) addSweeps(n int) {
	if t.m != nil {
		t.m.sweeps.Add(int64(n))
	}
}

// finish closes the solve span with convergence stats. A solve that ran
// out of iterations is an anomaly: the flight recorder (when armed)
// dumps the sweep history that led up to it.
func (t *solveTelemetry) finish(res NEResult) {
	if t.m == nil {
		return
	}
	t.m.iterations.Observe(float64(res.Iterations))
	var end obs.Fields
	if t.recording {
		end = obs.Fields{"iterations": res.Iterations, "converged": res.Converged, "max_delta": res.MaxDelta}
		if res.Canceled {
			end["canceled"] = true
		}
	}
	if rate := ContractionRate(t.deltas); !math.IsNaN(rate) {
		t.ob.Observe("game.contraction_rate", rate)
		if end != nil {
			end["contraction_rate"] = rate
		}
	}
	t.span.End(end)
	// A canceled solve is an abandoned one, not a convergence failure —
	// no anomaly, no postmortem.
	if !res.Converged && !res.Canceled {
		t.ob.ReportAnomaly("solve_not_converged", obs.Fields{
			"solve": t.name, "solver": t.solver,
			"iterations": res.Iterations, "max_delta": res.MaxDelta,
		})
	}
}

// ContractionRate estimates the geometric convergence factor of a
// best-response iteration from its sweep deltas: the median ratio of
// successive deltas, ignoring leading transients and the noise floor.
// It returns NaN when fewer than three informative deltas exist.
func ContractionRate(deltas []float64) float64 {
	var ratios []float64
	for i := 1; i < len(deltas); i++ {
		// Skip ratios once the deltas approach solver noise.
		if deltas[i-1] < 1e-9 || deltas[i] < 1e-12 {
			break
		}
		ratios = append(ratios, deltas[i]/deltas[i-1])
	}
	if len(ratios) < 2 {
		return math.NaN()
	}
	sort.Float64s(ratios)
	return ratios[len(ratios)/2]
}

// SolveNEFictitious runs continuous-strategy fictitious play: each player
// best-responds to the TIME AVERAGE of the opponents' past strategies
// rather than to their latest play. The 1/t averaging damps oscillatory
// best-response maps with a 1/t step size, so fictitious play converges
// in games where undamped (and even fixed-damping) iteration cycles; the
// price is a slower, O(1/t) tail. MaxDelta reports the EQUILIBRIUM
// RESIDUAL — the largest distance between a player's average strategy
// and its best response to the others' averages — and convergence is
// declared when that residual falls below Tol.
func SolveNEFictitious(start []numeric.Point2, br BestResponse, opts NEOptions) NEResult {
	return solveNEFictitious(start, br, nil, opts)
}

// SolveNEFictitiousAggregate is SolveNEFictitious for aggregative games:
// identical 1/t averaging and residual semantics, with each player's best
// response driven by the running total of the others' average strategies
// (delta-updated within a sweep, exactly re-summed at sweep boundaries)
// so a sweep costs O(N) instead of O(N²).
func SolveNEFictitiousAggregate(start []numeric.Point2, br AggregateBestResponse, opts NEOptions) NEResult {
	return solveNEFictitious(start, nil, br, opts)
}

// solveNEFictitious is the shared fictitious-play loop; exactly one of br
// and abr is non-nil.
func solveNEFictitious(start []numeric.Point2, br BestResponse, abr AggregateBestResponse, opts NEOptions) NEResult {
	opts = opts.withDefaults()
	solver := "fictitious_play"
	if abr != nil {
		solver = "aggregate_fictitious_play"
	}
	tel := newSolveTelemetry(opts, solveFictitious, solver, len(start))
	avg := make([]numeric.Point2, len(start))
	copy(avg, start)
	res := NEResult{Profile: avg}
	var totals numeric.Point2
	if abr != nil {
		totals = sumPoints(avg)
	}
	done := opts.done()
	for it := 1; it <= opts.MaxIter; it++ {
		if closed(done) {
			res.Canceled = true
			break
		}
		res.Iterations = it
		res.MaxDelta = 0
		step := 1 / float64(it+1)
		for i := range avg {
			var response numeric.Point2
			if abr != nil {
				response = abr(i, avg[i], totals.Sub(avg[i]))
			} else {
				response = br(i, avg)
			}
			if d := response.Sub(avg[i]).Norm(); d > res.MaxDelta {
				res.MaxDelta = d
			}
			next := avg[i].Add(response.Sub(avg[i]).Scale(step))
			if abr != nil {
				totals = totals.Add(next.Sub(avg[i]))
			}
			avg[i] = next
		}
		if abr != nil {
			// Sweep boundary: exact re-summation bounds incremental drift.
			totals = sumPoints(avg)
		}
		tel.sweep(it, res.MaxDelta)
		if res.MaxDelta < opts.Tol {
			res.Converged = true
			tel.finish(res)
			return res
		}
	}
	tel.finish(res)
	return res
}

// ErrCanceled is returned (wrapped) when a solve was abandoned because
// its NEOptions.Ctx was canceled: cancellation is checked at sweep
// boundaries only, so the solve stops within one sweep of the cancel
// and the partial iterate is discarded. Test with errors.Is.
var ErrCanceled = errors.New("game: solve canceled")
