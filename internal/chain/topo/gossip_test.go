package topo

import (
	"container/heap"
	"math"
	"math/rand"
	"reflect"
	"sort"
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

// TestArrivalQueueOrdering: pops come out in nondecreasing time with the
// node index breaking exact ties, regardless of push order. The queue is
// the Dijkstra frontier behind Distances, FinalityDelay and
// PropagationDelay, so this ordering is what makes those deterministic.
func TestArrivalQueueOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(40)
		items := make([]arrival, n)
		for i := range items {
			// Coarse times force plenty of exact ties.
			items[i] = arrival{node: rng.Intn(8), time: float64(rng.Intn(4))}
		}

		pq := &arrivalQueue{}
		heap.Init(pq)
		for _, it := range items {
			heap.Push(pq, it)
		}
		got := make([]arrival, 0, n)
		for pq.Len() > 0 {
			got = append(got, heap.Pop(pq).(arrival))
		}

		want := append([]arrival(nil), items...)
		sort.Slice(want, func(i, j int) bool {
			if want[i].time != want[j].time { //lint:allow floateq exact tie-break mirror of arrivalQueue.Less
				return want[i].time < want[j].time
			}
			return want[i].node < want[j].node
		})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: pop order %v, want sorted %v", trial, got, want)
		}

		// Deterministic irrespective of insertion history: pushing a
		// shuffled permutation pops the identical sequence.
		rng.Shuffle(n, func(i, j int) { items[i], items[j] = items[j], items[i] })
		pq2 := &arrivalQueue{}
		for _, it := range items {
			heap.Push(pq2, it)
		}
		got2 := make([]arrival, 0, n)
		for pq2.Len() > 0 {
			got2 = append(got2, heap.Pop(pq2).(arrival))
		}
		if !reflect.DeepEqual(got, got2) {
			t.Fatalf("trial %d: pop order depends on insertion order:\n %v\n %v", trial, got, got2)
		}
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
