package population

import (
	"math"
	"testing"

	"minegame/internal/game"
	"minegame/internal/miner"
	"minegame/internal/numeric"
	"minegame/internal/sim"
)

func streamParams() miner.Params {
	return miner.Params{Reward: 1000, Beta: 0.2, H: 0.7, PriceE: 8, PriceC: 4}
}

func streamClasses() []miner.Class {
	return []miner.Class{
		{Budget: 150, Count: 6},
		{Budget: 200, Count: 3},
		{Budget: 260, Count: 3},
	}
}

func TestNewStreamValidation(t *testing.T) {
	rng := sim.NewRNG(1, "stream-validate")
	cases := []struct {
		name    string
		classes []miner.Class
		cfg     StreamConfig
	}{
		{"no classes", nil, StreamConfig{}},
		{"negative count", []miner.Class{{Budget: 100, Count: -1}}, StreamConfig{}},
		{"bad budget", []miner.Class{{Budget: 0, Count: 3}}, StreamConfig{}},
		{"bad rate", streamClasses(), StreamConfig{ArrivalRate: math.NaN()}},
		{"bad depart", streamClasses(), StreamConfig{DepartProb: 1.5}},
		{"below floor", []miner.Class{{Budget: 100, Count: 1}}, StreamConfig{}},
		{"weight shape", streamClasses(), StreamConfig{ArrivalWeights: []float64{1}}},
		{"zero weights", streamClasses(), StreamConfig{ArrivalWeights: []float64{0, 0, 0}}},
	}
	for _, tc := range cases {
		if _, err := NewStream(tc.classes, tc.cfg, rng); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
	if _, err := NewStream(streamClasses(), StreamConfig{}, nil); err == nil {
		t.Error("nil rng: expected error")
	}
}

func TestStreamDeterministicTrajectory(t *testing.T) {
	run := func() []int {
		s, err := NewStream(streamClasses(), StreamConfig{ArrivalRate: 2, DepartProb: 0.2}, sim.NewRNG(7, "stream-determinism"))
		if err != nil {
			t.Fatalf("NewStream: %v", err)
		}
		var ns []int
		for i := 0; i < 50; i++ {
			s.Step()
			ns = append(ns, s.N())
		}
		return ns
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("period %d: %d vs %d — same seed must give same trajectory", i, a[i], b[i])
		}
	}
}

func TestStreamStationaryMean(t *testing.T) {
	// Immigration–death chain: stationary mean λ/q. Start at it and the
	// time-averaged population should stay in its neighbourhood.
	s, err := NewStream(
		[]miner.Class{{Budget: 150, Count: 20}, {Budget: 250, Count: 20}},
		StreamConfig{ArrivalRate: 8, DepartProb: 0.2}, // λ/q = 40
		sim.NewRNG(11, "stream-stationary"),
	)
	if err != nil {
		t.Fatalf("NewStream: %v", err)
	}
	sum := 0.0
	periods := 400
	for i := 0; i < periods; i++ {
		s.Step()
		sum += float64(s.N())
	}
	mean := sum / float64(periods)
	if mean < 30 || mean > 50 {
		t.Fatalf("time-averaged population %g strayed from the stationary mean 40", mean)
	}
}

func TestStreamFloor(t *testing.T) {
	s, err := NewStream(streamClasses(), StreamConfig{ArrivalRate: 0, DepartProb: 1, MinMiners: 3}, sim.NewRNG(3, "stream-floor"))
	if err != nil {
		t.Fatalf("NewStream: %v", err)
	}
	for i := 0; i < 5; i++ {
		s.Step()
	}
	if s.N() != 3 {
		t.Fatalf("population %d, floor is 3", s.N())
	}
}

func TestStreamBinomialLargeClass(t *testing.T) {
	s, err := NewStream(
		[]miner.Class{{Budget: 200, Count: 1_000_000}},
		StreamConfig{ArrivalRate: 0, DepartProb: 0.1},
		sim.NewRNG(5, "stream-binomial"),
	)
	if err != nil {
		t.Fatalf("NewStream: %v", err)
	}
	_, departed := s.Step()
	// Normal approximation of Binomial(1e6, 0.1): mean 1e5, sd 300.
	if departed < 98_000 || departed > 102_000 {
		t.Fatalf("departed %d, want ≈100000", departed)
	}
}

func TestSolvePeriods(t *testing.T) {
	s, err := NewStream(streamClasses(), StreamConfig{ArrivalRate: 2, DepartProb: 0.15}, sim.NewRNG(42, "stream-solve"))
	if err != nil {
		t.Fatalf("NewStream: %v", err)
	}
	points, err := s.SolvePeriods(streamParams(), 12, game.NEOptions{MaxIter: 300, Tol: 1e-8})
	if err != nil {
		t.Fatalf("SolvePeriods: %v", err)
	}
	if len(points) != 12 {
		t.Fatalf("got %d periods, want 12", len(points))
	}
	for _, pt := range points {
		if !pt.Converged {
			t.Fatalf("period %d did not converge (%d sweeps)", pt.Period, pt.Iterations)
		}
		if pt.N < 2 {
			t.Fatalf("period %d: population %d below floor", pt.Period, pt.N)
		}
		if pt.EdgeDemand <= 0 || pt.CloudDemand < 0 {
			t.Fatalf("period %d: degenerate demand E=%g C=%g", pt.Period, pt.EdgeDemand, pt.CloudDemand)
		}
		if pt.ActiveClasses < 1 || pt.ActiveClasses > len(streamClasses()) {
			t.Fatalf("period %d: %d active classes", pt.Period, pt.ActiveClasses)
		}
	}

	if _, err := s.SolvePeriods(streamParams(), 0, game.NEOptions{}); err == nil {
		t.Fatal("zero periods should error")
	}
	if _, err := s.SolvePeriods(miner.Params{}, 3, game.NEOptions{}); err == nil {
		t.Fatal("invalid params should error")
	}
}

// naivePeriods is the re-materializing reference the classed path
// replaces: each period it rebuilds the full N-miner profile and budget
// vector and solves the exact per-miner NEP — O(N) allocations and O(N)
// best responses per period for a market that only has K distinct
// behaviours. It exists only to measure the before/after in
// BenchmarkStreamPeriods*.
func naivePeriods(s *Stream, p miner.Params, periods int, opts game.NEOptions) []PeriodPoint {
	if opts.Tol <= 0 {
		opts.Tol = 1e-6
	}
	classes := s.Classes()
	reps := make([]numeric.Point2, len(classes))
	for k, c := range classes {
		reps[k] = numeric.Point2{E: c.Budget / (4 * p.PriceE), C: c.Budget / (4 * p.PriceC)}
	}
	var points []PeriodPoint
	for t := 1; t <= periods; t++ {
		arrived, departed := s.Step()
		// Re-materialize: one row per miner, class-major.
		var prof []numeric.Point2
		var budgets []float64
		for k, c := range s.Classes() {
			for j := 0; j < c.Count; j++ {
				prof = append(prof, reps[k])
				budgets = append(budgets, c.Budget)
			}
		}
		br := func(i int, own, others numeric.Point2) numeric.Point2 {
			if others.E < 0 {
				others.E = 0
			}
			if others.C < 0 {
				others.C = 0
			}
			return miner.BestResponseConnected(p, budgets[i], miner.Env{EdgeOthers: others.E, CloudOthers: others.C}, own)
		}
		res := game.SolveNEAggregate(prof, br, opts)
		pt := PeriodPoint{Period: t, N: s.N(), Arrived: arrived, Departed: departed, Iterations: res.Iterations, Converged: res.Converged}
		// Fold the solved profile back into representatives (first row of
		// each class) for the next period's warm start.
		i := 0
		for k, c := range s.Classes() {
			if c.Count == 0 {
				continue
			}
			reps[k] = res.Profile[i]
			i += c.Count
			pt.ActiveClasses++
		}
		for _, r := range res.Profile {
			pt.EdgeDemand += r.E
			pt.CloudDemand += r.C
		}
		points = append(points, pt)
	}
	return points
}

// TestNaiveMatchesClassedPeriods ties the benchmark reference to the
// real path: same seed, same churn, closely matching demand trajectory.
func TestNaiveMatchesClassedPeriods(t *testing.T) {
	mk := func() *Stream {
		s, err := NewStream(streamClasses(), StreamConfig{ArrivalRate: 2, DepartProb: 0.15}, sim.NewRNG(42, "stream-parity"))
		if err != nil {
			t.Fatalf("NewStream: %v", err)
		}
		return s
	}
	opts := game.NEOptions{MaxIter: 300, Tol: 1e-8}
	classed, err := mk().SolvePeriods(streamParams(), 8, opts)
	if err != nil {
		t.Fatalf("SolvePeriods: %v", err)
	}
	naive := naivePeriods(mk(), streamParams(), 8, opts)
	for i := range classed {
		if classed[i].N != naive[i].N {
			t.Fatalf("period %d: populations diverged %d vs %d", i+1, classed[i].N, naive[i].N)
		}
		if d := math.Abs(classed[i].EdgeDemand - naive[i].EdgeDemand); d > 1e-2*(1+naive[i].EdgeDemand) {
			t.Fatalf("period %d: edge demand %g vs %g", i+1, classed[i].EdgeDemand, naive[i].EdgeDemand)
		}
		if d := math.Abs(classed[i].CloudDemand - naive[i].CloudDemand); d > 1e-2*(1+naive[i].CloudDemand) {
			t.Fatalf("period %d: cloud demand %g vs %g", i+1, classed[i].CloudDemand, naive[i].CloudDemand)
		}
	}
}

// benchStream builds a 10k-miner, 8-class stream for the period
// benchmarks.
func benchStream(tb testing.TB, seed int64) *Stream {
	classes := make([]miner.Class, 8)
	for k := range classes {
		classes[k] = miner.Class{Budget: 150 + 20*float64(k), Count: 1250}
	}
	s, err := NewStream(classes, StreamConfig{ArrivalRate: 50, DepartProb: 0.005}, sim.NewRNG(seed, "stream-bench"))
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// BenchmarkStreamPeriodsClassed measures the classed dynamic-N path:
// O(K) solves and O(K) allocations per pricing period at N = 10⁴.
func BenchmarkStreamPeriodsClassed(b *testing.B) {
	opts := game.NEOptions{MaxIter: 300, Tol: 1e-6}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := benchStream(b, int64(i))
		if _, err := s.SolvePeriods(streamParams(), 3, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStreamPeriodsNaive measures the re-materializing reference:
// a fresh O(N) profile and an O(N)-per-sweep solve every period.
func BenchmarkStreamPeriodsNaive(b *testing.B) {
	opts := game.NEOptions{MaxIter: 300, Tol: 1e-6}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := benchStream(b, int64(i))
		naivePeriods(s, streamParams(), 3, opts)
	}
}
