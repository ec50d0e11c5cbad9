package game

import (
	"context"
	"math"
	"testing"

	"minegame/internal/numeric"
)

// crawlBR is a slowly contracting best response: the fixed point is
// (2, 2) but each sweep only halves the distance, so a default-tolerance
// solve needs tens of sweeps — room to cancel mid-solve.
func crawlBR(i int, own, others numeric.Point2) numeric.Point2 {
	return numeric.Point2{E: 0.5*own.E + 1, C: 0.5*own.C + 1}
}

// cancelAfterCalls wraps crawlBR so that the given call cancels the
// context: with p players, call p·s is the last of sweep s.
func cancelAfterCalls(calls int, cancel context.CancelFunc) AggregateBestResponse {
	n := 0
	return func(i int, own, others numeric.Point2) numeric.Point2 {
		if n++; n == calls {
			cancel()
		}
		return crawlBR(i, own, others)
	}
}

func TestSolveNECanceledMidSolve(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	opts := NEOptions{Ctx: ctx, Tol: 1e-12}
	// Two players: the sixth call ends sweep 3.
	res := SolveNEAggregate([]numeric.Point2{{E: 100, C: 100}, {E: 100, C: 100}}, cancelAfterCalls(6, cancel), opts)
	if !res.Canceled {
		t.Fatalf("expected Canceled=true, got %+v", res)
	}
	if res.Converged {
		t.Fatalf("canceled solve must not report convergence: %+v", res)
	}
	// Cancellation is checked at sweep boundaries: the solve must stop
	// on the sweep after the cancel fired, not run to MaxIter.
	if res.Iterations != 3 {
		t.Fatalf("expected the solve to stop right after the canceling sweep, ran %d sweeps", res.Iterations)
	}
}

func TestSolveNEClassedCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sys := toyClassedGame{a: []float64{5}, b: []float64{5}, g: 0.1}.shares([]int{4}, math.Inf(1))
	res := SolveShares(sys, numeric.Point2{E: 5, C: 5}, NEOptions{Ctx: ctx})
	if !res.Canceled || res.Converged || res.Passes != 0 {
		t.Fatalf("pre-canceled share solve should stop before the first pass, got %+v", res)
	}
}

func TestSolveNEFictitiousCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := SolveNEFictitiousAggregate([]numeric.Point2{{E: 5, C: 5}, {E: 3, C: 3}}, crawlBR, NEOptions{Ctx: ctx, Tol: 1e-12})
	if !res.Canceled || res.Iterations != 0 {
		t.Fatalf("pre-canceled fictitious solve should stop before the first sweep, got %+v", res)
	}
}

func TestSolveVariationalGNECanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	// Cancel on the fourth pass of a share solve whose capacity binds.
	sys := toyClassedGame{a: []float64{12, 18}, b: []float64{6, 6}, g: 0.02}.shares([]int{30, 10}, 60)
	sums, calls := sys.Sums, 0
	sys.Sums = func(mu, e, s float64) (float64, float64) {
		if calls++; calls == 4 {
			cancel()
		}
		return sums(mu, e, s)
	}
	res := SolveShares(sys, numeric.Point2{}, NEOptions{Ctx: ctx})
	if !res.Canceled || res.Converged || res.Passes != 4 {
		t.Fatalf("want the solve abandoned right after the canceling pass, got %+v", res)
	}
}

// TestSolveNENilContext pins that a nil Ctx (every pre-existing caller)
// behaves exactly as before: no cancel, normal convergence.
func TestSolveNENilContext(t *testing.T) {
	res := SolveNEAggregate([]numeric.Point2{{E: 100, C: 100}}, crawlBR, NEOptions{})
	if res.Canceled || !res.Converged {
		t.Fatalf("nil-context solve should converge uncanceled, got %+v", res)
	}
}
