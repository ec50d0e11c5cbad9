package chain

import (
	"fmt"
	"math/rand"

	"minegame/internal/obs"
)

// Allocation is a miner's computing power split across the two providers,
// in purchased units. A unit from either provider hashes at the same rate
// (the paper makes ESP and CSP units functionally equivalent).
type Allocation struct {
	MinerID int
	Edge    float64
	Cloud   float64
}

// RaceConfig parameterizes the mining race.
type RaceConfig struct {
	// Interval is the network's mean block inter-arrival time. Difficulty
	// retargeting keeps it constant regardless of total computing power.
	Interval float64
	// CloudDelay is the consensus delay of cloud-solved blocks (D_avg).
	// Edge-solved blocks reach consensus immediately.
	CloudDelay float64
	// Allocations are the miners' purchased units.
	Allocations []Allocation
}

// Validate reports configuration errors.
func (c RaceConfig) Validate() error {
	if c.Interval <= 0 {
		return fmt.Errorf("race config: interval %g must be positive", c.Interval)
	}
	if c.CloudDelay < 0 {
		return fmt.Errorf("race config: cloud delay %g must be non-negative", c.CloudDelay)
	}
	var total float64
	for _, a := range c.Allocations {
		if a.Edge < 0 || a.Cloud < 0 {
			return fmt.Errorf("race config: miner %d has negative units", a.MinerID)
		}
		total += a.Edge + a.Cloud
	}
	if total <= 0 {
		return fmt.Errorf("race config: no computing power allocated")
	}
	return nil
}

func (c RaceConfig) totals() (edge, total float64) {
	for _, a := range c.Allocations {
		edge += a.Edge
		total += a.Edge + a.Cloud
	}
	return edge, total
}

// RoundResult describes one mining round (one canonical block appended).
type RoundResult struct {
	WinnerID     int     // miner that owns the canonical block
	WinnerOrigin Origin  // where the winning block was solved
	Solved       int     // total blocks solved during the round
	Forked       bool    // true when at least one block was discarded
	Duration     float64 // time from round start to consensus
}

// solvedBlock is a block in flight during a round.
type solvedBlock struct {
	minerID  int
	origin   Origin
	solvedAt float64
	finalAt  float64
}

// SimulateRound runs a single mining race and returns its outcome.
//
// The race: blocks are solved by a Poisson process with rate 1/Interval;
// the solving unit is uniform over all purchased units. An edge-solved
// block reaches consensus immediately and wins unless an earlier-final
// block exists. A cloud-solved block becomes final after CloudDelay unless
// an edge-solved block appears before its finality instant.
func SimulateRound(cfg RaceConfig, rng *rand.Rand) (RoundResult, error) {
	if err := cfg.Validate(); err != nil {
		return RoundResult{}, err
	}
	res, _, _ := playRound(cfg, 0, rng)
	return res, nil
}

// playRound plays one race (see SimulateRound) on an absolute clock that
// starts at start, so a chain of rounds keeps faithful solve and
// finality instants. It returns the outcome (Duration measured from
// start), the winning block, and the cloud blocks solved during the
// round in solve order — the winner among them when it was solved in
// the cloud. Cloud blocks share one delay, so the earliest-final pending
// block is always the first.
func playRound(cfg RaceConfig, start float64, rng *rand.Rand) (RoundResult, solvedBlock, []solvedBlock) {
	_, total := cfg.totals()
	t := start
	var pending []solvedBlock
	for {
		next := t + rng.ExpFloat64()*cfg.Interval
		if len(pending) > 0 && pending[0].finalAt <= next {
			// A pending cloud block reaches consensus before the next solve.
			win := pending[0]
			return RoundResult{
				WinnerID:     win.minerID,
				WinnerOrigin: OriginCloud,
				Solved:       len(pending),
				Forked:       len(pending) > 1,
				Duration:     win.finalAt - start,
			}, win, pending
		}
		t = next
		minerID, origin := drawSolver(cfg.Allocations, total, rng)
		b := solvedBlock{minerID: minerID, origin: origin, solvedAt: t, finalAt: t}
		if origin == OriginEdge {
			// Immediate consensus: beats every pending cloud block.
			return RoundResult{
				WinnerID:     minerID,
				WinnerOrigin: OriginEdge,
				Solved:       len(pending) + 1,
				Forked:       len(pending) > 0,
				Duration:     t - start,
			}, b, pending
		}
		b.finalAt = t + cfg.CloudDelay
		pending = append(pending, b)
	}
}

// drawSolver picks the solving unit uniformly over all units.
func drawSolver(allocs []Allocation, total float64, rng *rand.Rand) (minerID int, origin Origin) {
	u := rng.Float64() * total
	for _, a := range allocs {
		if u < a.Edge {
			return a.MinerID, OriginEdge
		}
		u -= a.Edge
		if u < a.Cloud {
			return a.MinerID, OriginCloud
		}
		u -= a.Cloud
	}
	// Floating-point slack: attribute to the last positive allocation.
	for i := len(allocs) - 1; i >= 0; i-- {
		if allocs[i].Cloud > 0 {
			return allocs[i].MinerID, OriginCloud
		}
		if allocs[i].Edge > 0 {
			return allocs[i].MinerID, OriginEdge
		}
	}
	return allocs[len(allocs)-1].MinerID, OriginCloud
}

// WinStats aggregates many simulated rounds.
type WinStats struct {
	Rounds    int
	Wins      map[int]int // canonical blocks per miner
	EdgeWins  int         // rounds won by an edge-solved block
	CloudWins int         // rounds won by a cloud-solved block
	Forks     int         // rounds with at least one discarded block
}

// WinProb returns a miner's empirical winning probability.
func (s WinStats) WinProb(minerID int) float64 {
	if s.Rounds == 0 {
		return 0
	}
	return float64(s.Wins[minerID]) / float64(s.Rounds)
}

// ForkRate returns the fraction of rounds that forked.
func (s WinStats) ForkRate() float64 {
	if s.Rounds == 0 {
		return 0
	}
	return float64(s.Forks) / float64(s.Rounds)
}

// SimulateRounds runs n independent rounds and aggregates the outcomes.
// Aggregate race metrics (blocks, forks, win split, round durations)
// land in the process-wide observer when it is enabled.
func SimulateRounds(cfg RaceConfig, n int, rng *rand.Rand) (WinStats, error) {
	ob := obs.Default()
	span := ob.StartSpan("chain.simulate_rounds", obs.Fields{"rounds": n})
	stats := WinStats{Wins: make(map[int]int, len(cfg.Allocations))}
	for i := 0; i < n; i++ {
		res, err := SimulateRound(cfg, rng)
		if err != nil {
			span.End(obs.Fields{"failed": true})
			return WinStats{}, fmt.Errorf("round %d: %w", i, err)
		}
		stats.record(res, ob, false)
	}
	span.End(obs.Fields{"forks": stats.Forks, "edge_wins": stats.EdgeWins, "cloud_wins": stats.CloudWins})
	return stats, nil
}

// record folds one round into the stats and, when the observer is
// enabled, into the chain metrics; emitRound additionally streams a
// per-round "chain.round" trace event (used by Network, where per-round
// telemetry matters for fork forensics).
func (s *WinStats) record(res RoundResult, ob *obs.Observer, emitRound bool) {
	s.Rounds++
	s.Wins[res.WinnerID]++
	if res.WinnerOrigin == OriginEdge {
		s.EdgeWins++
	} else {
		s.CloudWins++
	}
	if res.Forked {
		s.Forks++
	}
	if !ob.Enabled() {
		return
	}
	ob.Count("chain.blocks_mined_total", 1)
	ob.Count("chain.blocks_solved_total", int64(res.Solved))
	if res.Forked {
		ob.Count("chain.forks_total", 1)
		ob.Count("chain.blocks_discarded_total", int64(res.Solved-1))
	}
	if res.WinnerOrigin == OriginEdge {
		ob.Count("chain.wins.edge_total", 1)
	} else {
		ob.Count("chain.wins.cloud_total", 1)
	}
	ob.Count(fmt.Sprintf("chain.wins.miner_%d_total", res.WinnerID), 1)
	ob.Observe("chain.round_duration_s", res.Duration)
	ob.MaxGauge("chain.max_rivals_per_round", float64(res.Solved-1))
	if emitRound && ob.Tracing() {
		ob.Emit("chain.round", obs.Fields{
			"winner": res.WinnerID, "origin": res.WinnerOrigin.String(),
			"solved": res.Solved, "forked": res.Forked, "duration_s": res.Duration,
		})
	}
}

// Network grows a fork-aware ledger by replaying the round race back to
// back: each round starts at the previous round's finality instant, its
// winner extends the canonical chain, and its discarded rivals are
// recorded beside it.
type Network struct {
	cfg    RaceConfig
	ledger *Ledger
	rng    *rand.Rand
	now    float64
}

// NewNetwork creates a network simulation. It returns an error if the
// configuration is invalid.
func NewNetwork(cfg RaceConfig, rng *rand.Rand) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Network{cfg: cfg, ledger: NewLedger(), rng: rng}, nil
}

// Ledger exposes the grown chain.
func (n *Network) Ledger() *Ledger { return n.ledger }

// Now returns the simulation clock: the last round's finality instant.
func (n *Network) Now() float64 { return n.now }

// Grow mines `blocks` canonical blocks, one round race each, and returns
// aggregate statistics. With an enabled observer each round also feeds
// the chain metrics and emits a "chain.round" trace event.
func (n *Network) Grow(blocks int) (WinStats, error) {
	ob := obs.Default()
	span := ob.StartSpan("chain.grow", obs.Fields{"blocks": blocks})
	stats := WinStats{Wins: make(map[int]int, len(n.cfg.Allocations))}
	for i := 0; i < blocks; i++ {
		res, win, pending := playRound(n.cfg, n.now, n.rng)
		if err := n.appendRound(win, pending); err != nil {
			span.End(obs.Fields{"failed": true})
			return WinStats{}, fmt.Errorf("block %d: %w", i, err)
		}
		n.now = win.finalAt
		stats.record(res, ob, true)
	}
	if ob.Enabled() {
		ob.SetGauge("chain.height", float64(n.ledger.Height()))
		ob.SetGauge("chain.virtual_time_s", n.now)
	}
	span.End(obs.Fields{"forks": stats.Forks, "edge_wins": stats.EdgeWins, "cloud_wins": stats.CloudWins})
	return stats, nil
}

// appendRound extends the tip with the round's winner, then records every
// other block solved in the round as a discarded rival, in solve order.
func (n *Network) appendRound(win solvedBlock, pending []solvedBlock) error {
	parent := n.ledger.Tip().ID
	if _, err := n.ledger.Append(parent, win.minerID, win.origin, win.solvedAt, win.finalAt); err != nil {
		return err
	}
	for _, r := range pending {
		if r == win {
			continue
		}
		rb, err := n.ledger.Append(parent, r.minerID, r.origin, r.solvedAt, r.finalAt)
		if err != nil {
			return err
		}
		if !rb.Discarded {
			n.ledger.MarkDiscarded(rb.ID)
		}
	}
	return nil
}
