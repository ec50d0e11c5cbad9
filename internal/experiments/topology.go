package experiments

// Topology experiment: the mechanism behind the paper's Fig. 2 delays.
// Blocks gossip over a peer-to-peer overlay; the overlay's density sets
// the propagation delay, the delay sets the fork rate, and the fork rate
// is the β the whole game runs on.

import (
	"fmt"

	"minegame/internal/chain"
	"minegame/internal/chain/topo"
	"minegame/internal/core"
	"minegame/internal/game"
	"minegame/internal/sim"
)

func runGossip(cfg Config) (Result, error) {
	rng := sim.NewRNG(cfg.Seed, "gossip")
	t := Table{
		ID:    "gossip",
		Title: "peer-to-peer topology → propagation delay → fork rate → edge demand",
		Columns: []string{
			"chords_per_node", "d50_s", "d90_s", "beta90", "edge_demand",
		},
	}
	const (
		nodes      = 200
		hopLatency = 18.0 // seconds per gossip hop (mobile wide-area links)
		samples    = 40
	)
	for _, degree := range []int{0, 1, 2, 4, 8} {
		net, err := topo.Gossip(topo.GossipConfig{
			Nodes:       nodes,
			Degree:      degree,
			MeanLatency: hopLatency,
		}, rng)
		if err != nil {
			return Result{}, fmt.Errorf("gossip degree %d: %w", degree, err)
		}
		d50, err := net.PropagationDelay(0.5, cfg.rounds(samples), rng)
		if err != nil {
			return Result{}, err
		}
		d90, err := net.PropagationDelay(0.9, cfg.rounds(samples), rng)
		if err != nil {
			return Result{}, err
		}
		beta := chain.CollisionCDF(d90, blockInterval)
		if beta >= 0.95 {
			beta = 0.95 // keep the game solvable at pathological delays
		}
		gameCfg := baseConfig()
		gameCfg.Beta = beta
		eq, err := core.SolveMinerEquilibrium(gameCfg, defaultPrices(), game.NEOptions{})
		if err != nil {
			return Result{}, fmt.Errorf("gossip equilibrium at degree %d (β=%g): %w", degree, beta, err)
		}
		t.AddRow(float64(degree), d50, d90, beta, eq.EdgeDemand)
	}
	t.Notes = append(t.Notes,
		"denser gossip overlays spread blocks faster, lowering the fork rate β",
		"a lower β weakens the ESP's delay-protection premium: edge demand falls with overlay density")
	return Result{Tables: []Table{t}}, nil
}
