package chain

import (
	"math"
	"reflect"
	"testing"

	"minegame/internal/sim"
)

func testConfig() RaceConfig {
	return RaceConfig{
		Interval:   600,
		CloudDelay: 120,
		Allocations: []Allocation{
			{MinerID: 1, Edge: 4, Cloud: 2},
			{MinerID: 2, Edge: 1, Cloud: 5},
			{MinerID: 3, Edge: 0, Cloud: 3},
		},
	}
}

func TestRaceConfigValidate(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*RaceConfig)
		wantErr bool
	}{
		{"valid", func(*RaceConfig) {}, false},
		{"zero interval", func(c *RaceConfig) { c.Interval = 0 }, true},
		{"negative delay", func(c *RaceConfig) { c.CloudDelay = -1 }, true},
		{"negative units", func(c *RaceConfig) { c.Allocations[0].Edge = -1 }, true},
		{"no power", func(c *RaceConfig) { c.Allocations = nil }, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := testConfig()
			tt.mutate(&cfg)
			if err := cfg.Validate(); (err != nil) != tt.wantErr {
				t.Errorf("Validate() error = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestSimulateRoundZeroDelayNeverForks(t *testing.T) {
	cfg := testConfig()
	cfg.CloudDelay = 0
	rng := sim.NewRNG(1, "race-zero-delay")
	for i := 0; i < 2000; i++ {
		res, err := SimulateRound(cfg, rng)
		if err != nil {
			t.Fatalf("SimulateRound: %v", err)
		}
		if res.Forked || res.Solved != 1 {
			t.Fatalf("zero-delay round forked: %+v", res)
		}
	}
}

func TestSimulateRoundsMatchPhysicalWinProbs(t *testing.T) {
	cfg := testConfig()
	rng := sim.NewRNG(7, "race-winprob")
	const n = 60000
	stats, err := SimulateRounds(cfg, n, rng)
	if err != nil {
		t.Fatalf("SimulateRounds: %v", err)
	}
	want := PhysicalWinProbs(cfg)
	var totalW float64
	for id, w := range want {
		totalW += w
		got := stats.WinProb(id)
		if math.Abs(got-w) > 0.01 {
			t.Errorf("miner %d: empirical W = %.4f, analytic %.4f", id, got, w)
		}
	}
	if math.Abs(totalW-1) > 1e-12 {
		t.Errorf("analytic probabilities sum to %.15f", totalW)
	}
	gotFork := stats.ForkRate()
	wantFork := PhysicalForkRate(cfg)
	if math.Abs(gotFork-wantFork) > 0.01 {
		t.Errorf("fork rate = %.4f, want %.4f", gotFork, wantFork)
	}
}

// TestPhysicalWinProbsMatchPaperEq6 verifies the documented identity: the
// physical race probability equals the paper's Eq. (6) with
// β = BetaEdge(E, S, D, τ).
func TestPhysicalWinProbsMatchPaperEq6(t *testing.T) {
	cfg := testConfig()
	var e, s float64
	for _, a := range cfg.Allocations {
		e += a.Edge
		s += a.Edge + a.Cloud
	}
	c := s - e
	beta := BetaEdge(e, s, cfg.CloudDelay, cfg.Interval)
	phys := PhysicalWinProbs(cfg)
	for _, a := range cfg.Allocations {
		eq6 := (a.Edge+a.Cloud)/s + beta*(a.Edge*c-a.Cloud*e)/(e*s)
		if math.Abs(phys[a.MinerID]-eq6) > 1e-12 {
			t.Errorf("miner %d: physical %.12f != Eq6 %.12f", a.MinerID, phys[a.MinerID], eq6)
		}
	}
}

func TestPhysicalWinProbsAllCloud(t *testing.T) {
	cfg := RaceConfig{
		Interval:   600,
		CloudDelay: 300,
		Allocations: []Allocation{
			{MinerID: 1, Cloud: 3},
			{MinerID: 2, Cloud: 1},
		},
	}
	probs := PhysicalWinProbs(cfg)
	// With no edge power nothing can beat an in-flight cloud block, so
	// win shares are pure unit shares.
	if math.Abs(probs[1]-0.75) > 1e-12 || math.Abs(probs[2]-0.25) > 1e-12 {
		t.Errorf("all-cloud probs = %v, want 0.75/0.25", probs)
	}
	// And no round can discard a block either.
	if got := PhysicalForkRate(cfg); got <= 0 {
		// Cloud rivals do get solved and discarded in cascades.
		t.Errorf("all-cloud fork rate = %g, want > 0", got)
	}
}

func TestNetworkGrowStatisticsAndLedger(t *testing.T) {
	cfg := testConfig()
	rng := sim.NewRNG(11, "network-grow")
	net, err := NewNetwork(cfg, rng)
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	const blocks = 4000
	stats, err := net.Grow(blocks)
	if err != nil {
		t.Fatalf("Grow: %v", err)
	}
	if stats.Rounds != blocks {
		t.Fatalf("rounds = %d, want %d", stats.Rounds, blocks)
	}
	l := net.Ledger()
	if l.Height() != blocks {
		t.Errorf("canonical height = %d, want %d", l.Height(), blocks)
	}
	if l.Len() < blocks {
		t.Errorf("total blocks %d < canonical %d", l.Len(), blocks)
	}
	if l.Forks() != l.Len()-blocks {
		t.Errorf("forks = %d, want discarded count %d", l.Forks(), l.Len()-blocks)
	}
	// Canonical wins per miner must agree with the round statistics.
	wins := l.CanonicalMinerWins()
	for id, n := range stats.Wins {
		if wins[id] != n {
			t.Errorf("miner %d: ledger wins %d != stats wins %d", id, wins[id], n)
		}
	}
	// And the empirical win shares should match the physical model.
	want := PhysicalWinProbs(cfg)
	for id, w := range want {
		got := stats.WinProb(id)
		if math.Abs(got-w) > 0.03 {
			t.Errorf("miner %d: network W = %.4f, analytic %.4f", id, got, w)
		}
	}
	if net.Now() <= 0 {
		t.Error("simulation clock did not advance")
	}
}

func TestNewNetworkInvalidConfig(t *testing.T) {
	if _, err := NewNetwork(RaceConfig{}, sim.NewRNG(1, "x")); err == nil {
		t.Error("want error for invalid config")
	}
}

func TestWinStatsEmpty(t *testing.T) {
	var s WinStats
	if s.WinProb(1) != 0 || s.ForkRate() != 0 {
		t.Error("zero-round stats must report zero probabilities")
	}
}

// TestGrowReplaysSimulateRounds: Network.Grow and a loop of SimulateRound
// on the same seed play the same rounds — identical winners, origins and
// solved counts per round, and per-round durations that agree up to the
// rounding of the ledger's absolute clock.
func TestGrowReplaysSimulateRounds(t *testing.T) {
	const rounds = 3000
	for _, delay := range []float64{0, 60, 600, 3000} {
		cfg := testConfig()
		cfg.CloudDelay = delay
		rng := sim.NewRNG(23, "grow-replay")
		want := make([]RoundResult, rounds)
		for i := range want {
			res, err := SimulateRound(cfg, rng)
			if err != nil {
				t.Fatalf("delay %g round %d: %v", delay, i, err)
			}
			want[i] = res
		}
		net, err := NewNetwork(cfg, sim.NewRNG(23, "grow-replay"))
		if err != nil {
			t.Fatal(err)
		}
		stats, err := net.Grow(rounds)
		if err != nil {
			t.Fatalf("delay %g: Grow: %v", delay, err)
		}
		replay, err := SimulateRounds(cfg, rounds, sim.NewRNG(23, "grow-replay"))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(stats, replay) {
			t.Fatalf("delay %g: Grow stats %+v != SimulateRounds %+v", delay, stats, replay)
		}
		solved := make([]int, rounds)
		canon := make([]*Block, rounds)
		for _, b := range net.Ledger().Blocks() {
			solved[b.Height-1]++
			if !b.Discarded {
				canon[b.Height-1] = b
			}
		}
		prevFinal := 0.0
		for i, w := range want {
			c := canon[i]
			if c == nil || c.MinerID != w.WinnerID || c.Origin != w.WinnerOrigin || solved[i] != w.Solved {
				t.Fatalf("delay %g round %d: ledger %+v (%d solved) != round %+v", delay, i, c, solved[i], w)
			}
			if d := c.FinalAt - prevFinal; math.Abs(d-w.Duration) > 1e-9*math.Max(1, c.FinalAt) {
				t.Fatalf("delay %g round %d: ledger duration %v != round %v", delay, i, d, w.Duration)
			}
			prevFinal = c.FinalAt
		}
		if net.Now() != prevFinal { //lint:allow floateq the clock is the last canonical block's finality instant
			t.Errorf("delay %g: Now() = %v, last finality %v", delay, net.Now(), prevFinal)
		}
	}
}
