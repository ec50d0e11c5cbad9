package topo

import (
	"math"
	"testing"

	"minegame/internal/parallel"
	"minegame/internal/sim"
)

func TestGossipConfigValidate(t *testing.T) {
	valid := GossipConfig{Nodes: 10, Degree: 2, MeanLatency: 1}
	if err := valid.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	for _, bad := range []GossipConfig{
		{Nodes: 1, Degree: 2, MeanLatency: 1},
		{Nodes: 10, Degree: -1, MeanLatency: 1},
		{Nodes: 10, Degree: 2, MeanLatency: 0},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("config %+v should be invalid", bad)
		}
	}
}

func TestGossipPropagationConnectivity(t *testing.T) {
	rng := sim.NewRNG(5, "gossip-connectivity")
	// Even with zero chords the ring keeps the graph connected.
	g, err := Gossip(GossipConfig{Nodes: 50, Degree: 0, MeanLatency: 1}, rng)
	if err != nil {
		t.Fatalf("Gossip: %v", err)
	}
	times, err := g.Distances(7)
	if err != nil {
		t.Fatalf("Distances: %v", err)
	}
	if times[7] != 0 {
		t.Errorf("source arrival time = %g, want 0", times[7])
	}
	for i, tt := range times {
		if math.IsInf(tt, 1) {
			t.Errorf("node %d unreachable", i)
		}
		if tt < 0 {
			t.Errorf("node %d has negative arrival %g", i, tt)
		}
	}
}

func TestGossipDenserIsFaster(t *testing.T) {
	rng := sim.NewRNG(6, "gossip-density")
	delay := func(degree int) float64 {
		g, err := Gossip(GossipConfig{Nodes: 150, Degree: degree, MeanLatency: 2}, rng)
		if err != nil {
			t.Fatalf("degree %d: %v", degree, err)
		}
		d, err := g.PropagationDelay(0.9, 30, rng)
		if err != nil {
			t.Fatalf("degree %d: %v", degree, err)
		}
		return d
	}
	ring := delay(0)
	sparse := delay(2)
	dense := delay(8)
	if !(ring > sparse && sparse > dense) {
		t.Errorf("90%% spread should shrink with density: ring %g, sparse %g, dense %g", ring, sparse, dense)
	}
}

func TestGossipDelayQuantileMonotone(t *testing.T) {
	rng := sim.NewRNG(7, "gossip-quantile")
	g, err := Gossip(GossipConfig{Nodes: 100, Degree: 3, MeanLatency: 1}, rng)
	if err != nil {
		t.Fatalf("Gossip: %v", err)
	}
	prev := 0.0
	for _, q := range []float64{0.25, 0.5, 0.75, 0.9, 1} {
		d, err := g.PropagationDelay(q, 20, rng)
		if err != nil {
			t.Fatalf("quantile %g: %v", q, err)
		}
		if d < prev {
			t.Errorf("quantile %g delay %g below previous %g", q, d, prev)
		}
		prev = d
	}
}

func TestGossipErrors(t *testing.T) {
	rng := sim.NewRNG(8, "gossip-errors")
	if _, err := Gossip(GossipConfig{}, rng); err == nil {
		t.Error("want error for invalid config")
	}
	if _, err := Gossip(GossipConfig{Nodes: 10, Degree: 1, MeanLatency: math.NaN()}, rng); err == nil {
		t.Error("want error for NaN latency")
	}
	g, err := Gossip(GossipConfig{Nodes: 10, Degree: 1, MeanLatency: 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Distances(-1); err == nil {
		t.Error("want error for bad source")
	}
	if _, err := g.Distances(10); err == nil {
		t.Error("want error for out-of-range source")
	}
	if _, err := g.PropagationDelay(0, 5, rng); err == nil {
		t.Error("want error for zero fraction")
	}
	if _, err := g.PropagationDelay(0.5, 0, rng); err == nil {
		t.Error("want error for zero samples")
	}
	if _, err := New(nil).PropagationDelay(0.5, 5, rng); err == nil {
		t.Error("want error for an empty topology")
	}
	if g.Nodes() != 10 {
		t.Errorf("Nodes = %d", g.Nodes())
	}
}

// TestPropagationDelayWorkerInvariant: the delay estimate is bit-identical
// whether the per-source floods run on one worker or many — sources are
// drawn up front and the reduction is in submission order.
func TestPropagationDelayWorkerInvariant(t *testing.T) {
	g, err := Gossip(GossipConfig{Nodes: 40, Degree: 2, MeanLatency: 3}, sim.NewRNG(9, "worker-invariant"))
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) float64 {
		prev := parallel.SetDefaultWorkers(workers)
		defer parallel.SetDefaultWorkers(prev)
		d, err := g.PropagationDelay(0.9, 32, sim.NewRNG(17, "worker-invariant-samples"))
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	seq, par := run(1), run(7)
	if seq != par { //lint:allow floateq determinism contract: identical inputs must give identical bits
		t.Errorf("PropagationDelay differs by worker count: 1 worker %v vs 7 workers %v", seq, par)
	}
}
