package game

import (
	"math"
	"testing"

	"minegame/internal/numeric"
	"minegame/internal/obs"
)

// sweepRecorder returns a private observer whose flight recorder keeps
// the solver's trace, and a reader of the "game.sweep" events' sweep
// numbers and largest strategy changes, in order.
func sweepRecorder() (*obs.Observer, func() ([]int, []float64)) {
	ob := obs.New()
	ob.EnableFlightRecorder(0)
	return ob, func() ([]int, []float64) {
		var iters []int
		var deltas []float64
		for _, rec := range ob.FlightRecords() {
			if rec.Type == "event" && rec.Name == "game.sweep" {
				iters = append(iters, rec.Fields["iter"].(int))
				deltas = append(deltas, rec.Fields["max_delta"].(float64))
			}
		}
		return iters, deltas
	}
}

func TestSweepEventsObserveEverySweep(t *testing.T) {
	ob, sweeps := sweepRecorder()
	res := SolveNEAggregate([]numeric.Point2{{E: 0}, {E: 90}}, cournotBR(120, 30), NEOptions{Observer: ob})
	iters, deltas := sweeps()
	if !res.Converged {
		t.Fatal("did not converge")
	}
	if len(iters) != res.Iterations {
		t.Fatalf("observed %d sweeps, solver reports %d", len(iters), res.Iterations)
	}
	for i, it := range iters {
		if it != i+1 {
			t.Fatalf("sweep numbering %v", iters)
		}
	}
	if deltas[len(deltas)-1] != res.MaxDelta {
		t.Errorf("last delta %g != reported %g", deltas[len(deltas)-1], res.MaxDelta)
	}
}

// TestContractionRateCournot checks the diagnostic against the known
// contraction factor of the 2-player Cournot best-response map: each
// sweep of Gauss–Seidel multiplies the error by 1/4 (each player halves
// the rival's deviation, twice per sweep).
func TestContractionRateCournot(t *testing.T) {
	ob, sweeps := sweepRecorder()
	SolveNEAggregate([]numeric.Point2{{E: 0}, {E: 90}}, cournotBR(120, 30), NEOptions{Tol: 1e-10, Observer: ob})
	_, deltas := sweeps()
	rate := ContractionRate(deltas)
	if math.IsNaN(rate) {
		t.Fatalf("no rate from deltas %v", deltas)
	}
	if math.Abs(rate-0.25) > 0.05 {
		t.Errorf("contraction rate = %g, want ≈0.25", rate)
	}
}

func TestContractionRateDegenerate(t *testing.T) {
	if !math.IsNaN(ContractionRate(nil)) {
		t.Error("nil deltas must give NaN")
	}
	if !math.IsNaN(ContractionRate([]float64{1})) {
		t.Error("single delta must give NaN")
	}
	if !math.IsNaN(ContractionRate([]float64{1e-13, 1e-14, 1e-15})) {
		t.Error("noise-floor deltas must give NaN")
	}
}

// TestJacobiVsGaussSeidelRates verifies both update schedules converge on
// Cournot and that Gauss–Seidel contracts faster: for the 2-player game
// with best-response slope −1/2 the per-sweep factors are 1/4 (GS,
// both players see fresh rivals) vs 1/2 (Jacobi, frozen rivals).
func TestJacobiVsGaussSeidelRates(t *testing.T) {
	rate := func(jacobi bool) float64 {
		ob, sweeps := sweepRecorder()
		SolveNEAggregate([]numeric.Point2{{E: 0}, {E: 90}}, cournotBR(120, 30), NEOptions{
			Tol:      1e-10,
			Jacobi:   jacobi,
			Observer: ob,
		})
		_, deltas := sweeps()
		return ContractionRate(deltas)
	}
	gs := rate(false)
	jac := rate(true)
	if math.Abs(gs-0.25) > 0.05 {
		t.Errorf("Gauss–Seidel rate %g, want ≈0.25", gs)
	}
	if math.Abs(jac-0.5) > 0.05 {
		t.Errorf("Jacobi rate %g, want ≈0.5", jac)
	}
}

func TestJacobiConvergesToSameEquilibrium(t *testing.T) {
	res := SolveNEAggregate([]numeric.Point2{{E: 1}, {E: 70}}, cournotBR(120, 30), NEOptions{Jacobi: true})
	if !res.Converged {
		t.Fatal("Jacobi iteration did not converge")
	}
	for i, r := range res.Profile {
		if math.Abs(r.E-30) > 1e-6 {
			t.Errorf("player %d: %g, want 30", i, r.E)
		}
	}
}
