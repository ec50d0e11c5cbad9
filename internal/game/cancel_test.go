package game

import (
	"context"
	"errors"
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
	res := SolveNEAggregate([]numeric.Point2{{E: 100, C: 100}, {E: 100, C: 100}}, nil, cancelAfterCalls(6, cancel), opts)
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
	res := SolveNEAggregate([]numeric.Point2{{E: 5, C: 5}}, []int{4}, crawlBR, NEOptions{Ctx: ctx, Tol: 1e-12})
	if !res.Canceled || res.Iterations != 0 {
		t.Fatalf("pre-canceled classed solve should stop before the first sweep, got %+v", res)
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
	// Cancel during the very first inner NEP solve: two players, so the
	// fourth best-response call ends its second sweep.
	opts := NEOptions{Ctx: ctx, Tol: 1e-12}
	br := cancelAfterCalls(4, cancel)
	brAt := func(mu float64) AggregateBestResponse { return br }
	shared := func(prof []numeric.Point2) float64 {
		var e float64
		for _, r := range prof {
			e += r.E
		}
		return e
	}
	_, err := SolveVariationalGNEAggregate(
		[]numeric.Point2{{E: 100, C: 100}, {E: 100, C: 100}}, nil, brAt, shared, 1.0, 1e-6, opts)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("expected ErrCanceled, got %v", err)
	}
}

// TestSolveNENilContext pins that a nil Ctx (every pre-existing caller)
// behaves exactly as before: no cancel, normal convergence.
func TestSolveNENilContext(t *testing.T) {
	res := SolveNEAggregate([]numeric.Point2{{E: 100, C: 100}}, nil, crawlBR, NEOptions{})
	if res.Canceled || !res.Converged {
		t.Fatalf("nil-context solve should converge uncanceled, got %+v", res)
	}
}
