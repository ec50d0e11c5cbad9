package topo

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"minegame/internal/sim"
)

func nodesN(n int, hash float64) []Node {
	out := make([]Node, n)
	for i := range out {
		out[i] = Node{Hashrate: hash, Location: LocationCloud}
	}
	return out
}

func TestTopologyValidate(t *testing.T) {
	if err := New(nil).Validate(); err == nil {
		t.Error("empty topology must not validate")
	}
	if err := New([]Node{{Hashrate: 0}, {Hashrate: 0}}).Validate(); err == nil {
		t.Error("zero total hashrate must not validate")
	}
	if err := New([]Node{{Hashrate: -1}, {Hashrate: 2}}).Validate(); err == nil {
		t.Error("negative hashrate must not validate")
	}
	if err := New([]Node{{Hashrate: math.NaN()}, {Hashrate: 1}}).Validate(); err == nil {
		t.Error("NaN hashrate must not validate")
	}
	if err := New(nodesN(2, 1)).Validate(); err != nil {
		t.Errorf("valid topology rejected: %v", err)
	}
}

func TestAddArcErrors(t *testing.T) {
	tp := New(nodesN(3, 1))
	for _, bad := range []struct {
		a, b  int
		delay float64
	}{
		{-1, 0, 1}, {0, 3, 1}, {1, 1, 1}, {0, 1, -1},
		{0, 1, math.NaN()}, {0, 1, math.Inf(1)},
	} {
		if err := tp.AddArc(bad.a, bad.b, bad.delay); err == nil {
			t.Errorf("arc %+v should be rejected", bad)
		}
	}
	if err := tp.AddLink(0, 1, 2.5); err != nil {
		t.Fatalf("AddLink: %v", err)
	}
	if tp.Arcs() != 2 {
		t.Errorf("Arcs() = %d after one link, want 2", tp.Arcs())
	}
}

func TestDistancesLine(t *testing.T) {
	tp, err := Line(nodesN(4, 1), 2)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := tp.Distances(0)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 2, 4, 6}
	if !reflect.DeepEqual(dist, want) {
		t.Errorf("Distances(0) = %v, want %v", dist, want)
	}
	if _, err := tp.Distances(9); err == nil {
		t.Error("out-of-range source must error")
	}
}

func TestFinalityDelayQuorum(t *testing.T) {
	// Line 0—1—2 with unit delays and hashrates 1, 1, 2 (total 4).
	tp, err := Line([]Node{{Hashrate: 1}, {Hashrate: 1}, {Hashrate: 2}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// From node 0: covers 1/4 at t=0, 2/4 at t=1, 4/4 at t=2.
	cases := []struct {
		quorum float64
		want   float64
	}{
		{0.25, 0}, {0.5, 1}, {0.75, 2}, {1, 2},
	}
	for _, c := range cases {
		got, err := tp.FinalityDelay(0, c.quorum)
		if err != nil {
			t.Fatalf("quorum %g: %v", c.quorum, err)
		}
		if got != c.want {
			t.Errorf("FinalityDelay(0, %g) = %g, want %g", c.quorum, got, c.want)
		}
	}
	if _, err := tp.FinalityDelay(0, 0); err == nil {
		t.Error("zero quorum must error")
	}
	if _, err := tp.FinalityDelay(0, 1.5); err == nil {
		t.Error("quorum > 1 must error")
	}
}

func TestFinalityDelayDisconnected(t *testing.T) {
	// Two components: {0,1} linked, {2} isolated with minority hashrate.
	tp := New([]Node{{Hashrate: 3}, {Hashrate: 3}, {Hashrate: 1}})
	if err := tp.AddLink(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := tp.FinalityDelays(0.5); err == nil {
		t.Error("isolated minority node must fail the quorum")
	}
	// The majority component still reaches a 0.5 quorum on its own.
	if d, err := tp.FinalityDelay(0, 0.5); err != nil || d != 1 {
		t.Errorf("FinalityDelay(0, 0.5) = %g, %v; want 1, nil", d, err)
	}
}

func TestProximityOrdersLine(t *testing.T) {
	tp, err := Line(nodesN(5, 1), 3)
	if err != nil {
		t.Fatal(err)
	}
	// On a uniform line the center is closest to the hashpower and the
	// endpoints farthest, symmetrically.
	prox := make([]float64, 5)
	for i := range prox {
		p, err := tp.Proximity(i)
		if err != nil {
			t.Fatal(err)
		}
		prox[i] = p
	}
	if !(prox[2] > prox[1] && prox[1] > prox[0]) {
		t.Errorf("proximity not increasing toward center: %v", prox)
	}
	if math.Abs(prox[0]-prox[4]) > 1e-12 || math.Abs(prox[1]-prox[3]) > 1e-12 {
		t.Errorf("proximity not symmetric on a line: %v", prox)
	}
}

func TestConstructorShapes(t *testing.T) {
	if _, err := TwoNode(0.7, 0.3, 30, 0); err != nil {
		t.Errorf("TwoNode: %v", err)
	}
	star, err := Star(nodesN(4, 1), []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if star.Arcs() != 6 {
		t.Errorf("star arcs = %d, want 6", star.Arcs())
	}
	if _, err := Star(nodesN(4, 1), []float64{1}); err == nil {
		t.Error("spoke-delay length mismatch must error")
	}
	ring, err := Ring(nodesN(5, 1), 1)
	if err != nil {
		t.Fatal(err)
	}
	if ring.Arcs() != 10 {
		t.Errorf("ring arcs = %d, want 10", ring.Arcs())
	}
	if _, err := Ring(nodesN(2, 1), 1); err == nil {
		t.Error("2-node ring must error")
	}
	if _, err := Line(nodesN(1, 1), 1); err == nil {
		t.Error("1-node line must error")
	}
}

func TestScaleFreeDeterministicAndConnected(t *testing.T) {
	build := func() *Topology {
		rng := sim.NewRNG(11, "scale-free-test")
		tp, err := ScaleFree(nodesN(12, 1), 2, 5, rng)
		if err != nil {
			t.Fatal(err)
		}
		return tp
	}
	a, b := build(), build()
	if !reflect.DeepEqual(a.adj, b.adj) {
		t.Error("same seed must rebuild the identical scale-free graph")
	}
	// Preferential attachment always attaches to the existing component,
	// so the graph is connected: every finality delay is finite.
	delays, err := a.FinalityDelays(1)
	if err != nil {
		t.Fatalf("FinalityDelays: %v", err)
	}
	for i, d := range delays {
		if math.IsInf(d, 1) || math.IsNaN(d) {
			t.Errorf("node %d finality delay %g", i, d)
		}
	}
	if _, err := ScaleFree(nodesN(1, 1), 1, 1, sim.NewRNG(1, "x")); err == nil {
		t.Error("1-node scale-free must error")
	}
	if _, err := ScaleFree(nodesN(3, 1), 0, 1, sim.NewRNG(1, "x")); err == nil {
		t.Error("zero attachment must error")
	}
	if _, err := ScaleFree(nodesN(3, 1), 1, 0, sim.NewRNG(1, "x")); err == nil {
		t.Error("zero mean delay must error")
	}
}

// drainQueue pops every event of q in order.
func drainQueue(q sim.Queue) []sim.Event {
	out := make([]sim.Event, 0, len(q))
	for len(q) > 0 {
		out = append(out, q.Pop())
	}
	return out
}

// TestArrivalQueueOrdering: the Dijkstra frontier behind Distances,
// FinalityDelay and PropagationDelay keys its arrivals by node index,
// so pops come out in nondecreasing time with the node index breaking
// exact ties, regardless of push order. This ordering is what makes
// those floods deterministic.
func TestArrivalQueueOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(40)
		items := make([]sim.Event, n)
		for i := range items {
			// Coarse times force plenty of exact ties; node keys repeat.
			node := rng.Intn(8)
			items[i] = sim.Event{Time: float64(rng.Intn(4)), Key: node, Node: node}
		}

		var pq sim.Queue
		for _, it := range items {
			pq.Push(it)
		}
		got := drainQueue(pq)

		want := append([]sim.Event(nil), items...)
		sort.Slice(want, func(i, j int) bool {
			if want[i].Time != want[j].Time { //lint:allow floateq exact tie-break mirror of sim.Event.Before
				return want[i].Time < want[j].Time
			}
			return want[i].Node < want[j].Node
		})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: pop order %v, want sorted %v", trial, got, want)
		}

		// Deterministic irrespective of insertion history: pushing a
		// shuffled permutation pops the identical sequence.
		rng.Shuffle(n, func(i, j int) { items[i], items[j] = items[j], items[i] })
		var pq2 sim.Queue
		for _, it := range items {
			pq2.Push(it)
		}
		if got2 := drainQueue(pq2); !reflect.DeepEqual(got, got2) {
			t.Fatalf("trial %d: pop order depends on insertion order:\n %v\n %v", trial, got, got2)
		}
	}
}
