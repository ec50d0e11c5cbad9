package population

// Streaming population dynamics over a classed miner market. The
// paper's §V models miner-count uncertainty as a static N ~ 𝒩(μ, σ²);
// the stream generalizes that to an explicit arrival/departure process
// BETWEEN pricing periods: each period, every active miner departs
// independently with probability q and a Poisson(λ) batch of newcomers
// arrives, split across the budget classes. The stationary population
// of that immigration–death chain is Poisson(λ/q) — for λ/q large,
// 𝒩(λ/q, λ/q) — so the Gaussian-N scenario is the stream's equilibrium
// snapshot (with its variance pinned at the mean rather than free).
//
// The market is held in classed form throughout: arrivals and
// departures mutate per-class COUNTS, and each period's equilibrium is
// re-solved over the K class representatives warm-started from the
// previous period — O(K) work per pass and O(K) allocations per period, with no
// full N-miner profile ever materialized (the re-materializing
// alternative pays O(N) per period just to rebuild identical rows; see
// results/meanfield_speedup.md for the measured before/after).

import (
	"fmt"
	"math"
	"math/rand"

	"minegame/internal/core"
	"minegame/internal/game"
	"minegame/internal/miner"
	"minegame/internal/numeric"
)

// StreamConfig parameterizes the arrival/departure process.
type StreamConfig struct {
	// ArrivalRate is λ: the expected number of miners joining per
	// period (Poisson distributed). Must be non-negative.
	ArrivalRate float64
	// DepartProb is q: each active miner's independent probability of
	// leaving during a period, in [0, 1].
	DepartProb float64
	// ArrivalWeights splits each arrival batch across the classes
	// (normalized internally). Nil distributes arrivals proportionally
	// to the INITIAL class mix, preserving the population's shape in
	// expectation.
	ArrivalWeights []float64
	// MinMiners floors the total population so the market never empties
	// (departures that would cross the floor are refused, smallest
	// class first). Values below 2 default to 2 — the game needs rivals.
	MinMiners int
}

// Stream is an evolving classed miner population. Create one with
// NewStream; Step advances one period of arrivals/departures, and
// SolvePeriods runs the full simulate-then-price loop.
type Stream struct {
	classes []miner.Class // current (budget, count) per class
	weights []float64     // normalized arrival split
	cfg     StreamConfig
	rng     *rand.Rand
}

// NewStream builds a stream from an initial class mix. The classes are
// copied; rng drives all randomness (inject sim.NewRNG for reproducible
// runs). Zero-count classes are allowed and stay available as arrival
// targets.
func NewStream(classes []miner.Class, cfg StreamConfig, rng *rand.Rand) (*Stream, error) {
	if len(classes) == 0 {
		return nil, fmt.Errorf("population stream: no classes")
	}
	if rng == nil {
		return nil, fmt.Errorf("population stream: nil rng")
	}
	if !(cfg.ArrivalRate >= 0) || math.IsInf(cfg.ArrivalRate, 0) {
		return nil, fmt.Errorf("population stream: arrival rate %g must be non-negative and finite", cfg.ArrivalRate)
	}
	if !(cfg.DepartProb >= 0) || cfg.DepartProb > 1 {
		return nil, fmt.Errorf("population stream: departure probability %g outside [0, 1]", cfg.DepartProb)
	}
	if cfg.MinMiners < 2 {
		cfg.MinMiners = 2
	}
	s := &Stream{classes: make([]miner.Class, len(classes)), cfg: cfg, rng: rng}
	total := 0
	for k, c := range classes {
		if c.Count < 0 {
			return nil, fmt.Errorf("population stream: class %d count %d is negative", k, c.Count)
		}
		if !(c.Budget > 0) || math.IsInf(c.Budget, 0) {
			return nil, fmt.Errorf("population stream: class %d budget %g must be positive and finite", k, c.Budget)
		}
		s.classes[k] = c
		total += c.Count
	}
	if total < cfg.MinMiners {
		return nil, fmt.Errorf("population stream: initial population %d below floor %d", total, cfg.MinMiners)
	}
	weights := cfg.ArrivalWeights
	if weights == nil {
		weights = make([]float64, len(classes))
		for k, c := range classes {
			weights[k] = float64(c.Count)
		}
	}
	if len(weights) != len(classes) {
		return nil, fmt.Errorf("population stream: %d arrival weights for %d classes", len(weights), len(classes))
	}
	var wsum float64
	for k, w := range weights {
		if !(w >= 0) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("population stream: arrival weight %d is %g, must be non-negative and finite", k, w)
		}
		wsum += w
	}
	if wsum <= 0 {
		return nil, fmt.Errorf("population stream: arrival weights sum to %g, must be positive", wsum)
	}
	s.weights = make([]float64, len(weights))
	for k, w := range weights {
		s.weights[k] = w / wsum
	}
	return s, nil
}

// N returns the current total population.
func (s *Stream) N() int {
	total := 0
	for _, c := range s.classes {
		total += c.Count
	}
	return total
}

// Classes returns a copy of the current class mix (zero-count classes
// included, so indices are stable across periods).
func (s *Stream) Classes() []miner.Class {
	out := make([]miner.Class, len(s.classes))
	copy(out, s.classes)
	return out
}

// Counts returns the current per-class counts as a fresh slice.
func (s *Stream) Counts() []int {
	counts := make([]int, len(s.classes))
	for k, c := range s.classes {
		counts[k] = c.Count
	}
	return counts
}

// Step advances one period: binomial departures per class (normal
// approximation above 64 members keeps the draw O(1) per class), then a
// Poisson(λ) arrival batch multinomially split by the arrival weights.
// It returns the realized arrival and departure totals. The MinMiners
// floor refuses departures that would empty the market below it.
func (s *Stream) Step() (arrived, departed int) {
	total := s.N()
	for k := range s.classes {
		d := s.binomial(s.classes[k].Count, s.cfg.DepartProb)
		if allowed := total - s.cfg.MinMiners; d > allowed {
			d = allowed
		}
		if d < 0 {
			d = 0
		}
		s.classes[k].Count -= d
		total -= d
		departed += d
	}
	batch := s.poisson(s.cfg.ArrivalRate)
	for j := 0; j < batch; j++ {
		s.classes[s.pickClass()].Count++
	}
	arrived = batch
	return arrived, departed
}

// pickClass samples one arrival's class from the normalized weights.
func (s *Stream) pickClass() int {
	u := s.rng.Float64()
	acc := 0.0
	for k, w := range s.weights {
		acc += w
		if u < acc {
			return k
		}
	}
	return len(s.weights) - 1
}

// binomial draws Binomial(n, p). Small n runs the exact Bernoulli loop;
// large n uses the rounded normal approximation (clamped to [0, n]), so
// a draw over a million-member class costs O(1), not O(n).
func (s *Stream) binomial(n int, p float64) int {
	if n <= 0 || p <= 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	if n <= 64 {
		d := 0
		for i := 0; i < n; i++ {
			if s.rng.Float64() < p {
				d++
			}
		}
		return d
	}
	mean := float64(n) * p
	sd := math.Sqrt(mean * (1 - p))
	d := int(math.Round(mean + sd*s.rng.NormFloat64()))
	if d < 0 {
		return 0
	}
	if d > n {
		return n
	}
	return d
}

// poisson draws Poisson(λ): Knuth's product method for small λ, the
// rounded normal approximation for large λ.
func (s *Stream) poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 30 {
		d := int(math.Round(lambda + math.Sqrt(lambda)*s.rng.NormFloat64()))
		if d < 0 {
			return 0
		}
		return d
	}
	limit := math.Exp(-lambda)
	prod := s.rng.Float64()
	k := 0
	for prod > limit {
		k++
		prod *= s.rng.Float64()
	}
	return k
}

// PeriodPoint is one pricing period of a streaming run: the population
// after that period's churn and the classed equilibrium solved on it.
type PeriodPoint struct {
	Period        int     // 1-based period index
	N             int     // total miners this period
	ActiveClasses int     // classes with at least one member
	Arrived       int     // arrivals realized this period
	Departed      int     // departures realized this period
	EdgeDemand    float64 // equilibrium E = Σ count_k·e_k
	CloudDemand   float64 // equilibrium C = Σ count_k·c_k
	Iterations    int     // passes of the warm-started share-function solve
	Converged     bool
}

// SolvePeriods advances the stream through the given number of pricing
// periods, re-solving the connected-mode classed equilibrium after each
// period's churn with the share-function engine (core.SolveClassShares),
// warm-started at the previous period's totals; the per-period cost is
// O(K) passes regardless of N. The stream is left at its final state, so consecutive calls
// continue the same trajectory.
func (s *Stream) SolvePeriods(p miner.Params, periods int, opts game.NEOptions) ([]PeriodPoint, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("population stream: %w", err)
	}
	if periods <= 0 {
		return nil, fmt.Errorf("population stream: periods %d must be positive", periods)
	}
	// Each period's solve warm-starts the share root at the previous
	// period's totals; the first starts from the closed-form homogeneous
	// equilibrium at each class's budget (the heuristic b/(4P) spread as
	// fallback).
	reps := make([]numeric.Point2, len(s.classes))
	budgets := make([]float64, len(s.classes))
	for k, c := range s.classes {
		budgets[k] = c.Budget
		if sol, err := miner.HomogeneousConnected(p, s.N(), c.Budget); err == nil {
			reps[k] = sol.Request
		} else {
			reps[k] = numeric.Point2{E: c.Budget / (4 * p.PriceE), C: c.Budget / (4 * p.PriceC)}
		}
	}
	points := make([]PeriodPoint, 0, periods)
	for t := 1; t <= periods; t++ {
		arrived, departed := s.Step()
		counts := s.Counts()
		next, res := core.SolveClassShares(p, budgets, counts, reps, opts)
		if res.Canceled {
			return nil, fmt.Errorf("population stream period %d: %w", t, game.ErrCanceled)
		}
		reps = next
		pt := PeriodPoint{
			Period: t, N: s.N(),
			Arrived: arrived, Departed: departed,
			Iterations: res.Passes, Converged: res.Converged,
		}
		for k, r := range reps {
			if counts[k] > 0 {
				pt.ActiveClasses++
				pt.EdgeDemand += float64(counts[k]) * r.E
				pt.CloudDemand += float64(counts[k]) * r.C
			}
		}
		points = append(points, pt)
	}
	return points, nil
}
