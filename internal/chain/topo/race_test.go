package topo

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"minegame/internal/chain"
	"minegame/internal/parallel"
	"minegame/internal/sim"
)

func TestConfigValidate(t *testing.T) {
	valid := Config{Interval: 600, Blocks: 10, Quorum: 0.5}
	if err := valid.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	for _, bad := range []Config{
		{Interval: 0, Blocks: 10, Quorum: 0.5},
		{Interval: math.NaN(), Blocks: 10, Quorum: 0.5},
		{Interval: 600, Blocks: 0, Quorum: 0.5},
		{Interval: 600, Blocks: 10, Quorum: 0},
		{Interval: 600, Blocks: 10, Quorum: 1.1},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("config %+v should be invalid", bad)
		}
	}
}

// TestCrossValidationBetaEdge is the simulator's analytic anchor: on the
// paper's two-node topology (edge majority, cloud behind a one-way delay
// D) the cloud node's measured fork rate must match chain.BetaEdge
// within the seeded run's own confidence resolution. The race dynamics
// differ from the closed form only by O((λD)²) self-stacking terms, so
// at λD ≤ 0.1 a 10% relative tolerance is CI-stable with margin.
func TestCrossValidationBetaEdge(t *testing.T) {
	cases := []struct {
		name     string
		edge     float64
		delay    float64
		blocks   int
		replicas int
	}{
		{"paper-point", 0.7, 30, 4000, 32},
		{"long-delay", 0.7, 60, 2000, 16},
		{"even-split", 0.5, 30, 2000, 16},
	}
	const interval = 600.0
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tp, err := TwoNode(c.edge, 1-c.edge, c.delay, 0)
			if err != nil {
				t.Fatal(err)
			}
			// Quorum strictly above the cloud's share: the cloud node must
			// hear the edge before its blocks reach consensus (quorum "at
			// least" semantics would otherwise finalize an exact 50% split
			// instantly). The edge's own delay stays 0 regardless — its
			// flood covers the cloud over the zero-delay downlink.
			res, err := EstimateReplicated(tp, Config{Interval: interval, Blocks: c.blocks, Quorum: 0.51}, 42, c.replicas)
			if err != nil {
				t.Fatal(err)
			}
			want := chain.BetaEdge(c.edge, 1, c.delay, interval)
			got := res.Stats[1].Beta
			tol := math.Max(0.1*want, res.Stats[1].BetaErr)
			if math.Abs(got-want) > tol {
				t.Errorf("cloud beta = %.5f, analytic BetaEdge = %.5f (|diff| %.5f > tol %.5f)",
					got, want, math.Abs(got-want), tol)
			}
			// The edge node reaches consensus instantly and never loses a
			// same-height race in this topology.
			if eb := res.Stats[0].Beta; eb != 0 {
				t.Errorf("edge beta = %g, want exactly 0", eb)
			}
			if res.Delays[0] != 0 || res.Delays[1] != c.delay {
				t.Errorf("finality delays = %v, want [0 %g]", res.Delays, c.delay)
			}
		})
	}
}

// TestAccountingIdentity pins the reorg credit accounting: every decided
// block is either credited or orphaned, per miner and in aggregate, and
// the win probabilities are the credited shares of the canonical chain.
func TestAccountingIdentity(t *testing.T) {
	nodes := []Node{
		{Hashrate: 4, Location: LocationEdge},
		{Hashrate: 2, Location: LocationCloud},
		{Hashrate: 1, Location: LocationCloud},
		{Hashrate: 1, Location: LocationCloud},
	}
	tp, err := Star(nodes, []float64{5, 40, 80})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Interval: 600, Blocks: 1500, Quorum: 0.6}
	res, err := EstimateReplicated(tp, cfg, 7, 4)
	if err != nil {
		t.Fatal(err)
	}
	var mined, credited, orphaned, winSum float64
	for i, s := range res.Stats {
		if s.Mined != s.Credited+s.Orphaned {
			t.Errorf("node %d: mined %d != credited %d + orphaned %d", i, s.Mined, s.Credited, s.Orphaned)
		}
		if s.DirectLosses > s.Orphaned {
			t.Errorf("node %d: direct losses %d exceed orphans %d", i, s.DirectLosses, s.Orphaned)
		}
		if s.Eligible > s.Mined {
			t.Errorf("node %d: eligible %d exceeds mined %d", i, s.Eligible, s.Mined)
		}
		if s.Credited+s.DirectLosses != s.Eligible {
			t.Errorf("node %d: credited %d + direct losses %d != eligible %d (every canonical-parent block wins or loses its height)",
				i, s.Credited, s.DirectLosses, s.Eligible)
		}
		mined += float64(s.Mined)
		credited += float64(s.Credited)
		orphaned += float64(s.Orphaned)
		winSum += s.WinProb
	}
	if int(mined) != res.Decided {
		t.Errorf("sum mined = %g, decided = %d", mined, res.Decided)
	}
	if int(credited) != res.Canonical {
		t.Errorf("sum credited = %g, canonical = %d", credited, res.Canonical)
	}
	if int(mined) != int(credited)+int(orphaned) {
		t.Errorf("decided %g != canonical %g + orphaned %g", mined, credited, orphaned)
	}
	if res.Canonical < 4*cfg.Blocks {
		t.Errorf("canonical = %d, want at least replicas × target = %d", res.Canonical, 4*cfg.Blocks)
	}
	if math.Abs(winSum-1) > 1e-12 {
		t.Errorf("win probabilities sum to %.15f, want 1", winSum)
	}
}

// TestBetaMonotoneInProximity: on a uniform line the center nodes sit
// closest to the hashpower and the endpoints farthest; measured fork
// rates must be nonincreasing in distance-weighted proximity, up to the
// estimates' own confidence resolution.
func TestBetaMonotoneInProximity(t *testing.T) {
	tp, err := Line(nodesN(5, 1), 45)
	if err != nil {
		t.Fatal(err)
	}
	res, err := EstimateReplicated(tp, Config{Interval: 600, Blocks: 2000, Quorum: 0.6}, 3, 12)
	if err != nil {
		t.Fatal(err)
	}
	prox := make([]float64, tp.Nodes())
	for i := range prox {
		p, err := tp.Proximity(i)
		if err != nil {
			t.Fatal(err)
		}
		prox[i] = p
	}
	for i := 0; i < tp.Nodes(); i++ {
		for j := 0; j < tp.Nodes(); j++ {
			if prox[i] <= prox[j] {
				continue
			}
			si, sj := res.Stats[i], res.Stats[j]
			if si.Beta > sj.Beta+si.BetaErr+sj.BetaErr {
				t.Errorf("node %d (proximity %.3f) has beta %.4f±%.4f above farther node %d (proximity %.3f) beta %.4f±%.4f",
					i, prox[i], si.Beta, si.BetaErr, j, prox[j], sj.Beta, sj.BetaErr)
			}
		}
	}
	// The gradient itself must be visible: endpoints strictly above center.
	if res.Stats[0].Beta <= res.Stats[2].Beta {
		t.Errorf("endpoint beta %.4f not above center beta %.4f", res.Stats[0].Beta, res.Stats[2].Beta)
	}
}

// TestEstimateErrors covers the degenerate topologies the fuzz target
// also probes: disconnected graphs error, single-mining-node and
// zero-delay races converge.
func TestEstimateErrors(t *testing.T) {
	cfg := Config{Interval: 10, Blocks: 5, Quorum: 0.6}
	rng := sim.NewRNG(1, "estimate-errors")

	disconnected := New([]Node{{Hashrate: 1}, {Hashrate: 1}})
	if _, err := Estimate(disconnected, cfg, rng); err == nil {
		t.Error("disconnected even split must error (no node reaches the quorum)")
	}

	single := New([]Node{{Hashrate: 1}})
	res, err := Estimate(single, cfg, rng)
	if err != nil {
		t.Fatalf("single miner: %v", err)
	}
	if res.Stats[0].Beta != 0 || res.Stats[0].Orphaned != 0 {
		t.Errorf("lone miner must never fork: %+v", res.Stats[0])
	}

	zeroDelay, err := Ring(nodesN(3, 1), 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err = Estimate(zeroDelay, cfg, rng)
	if err != nil {
		t.Fatalf("zero-delay ring: %v", err)
	}
	for i, s := range res.Stats {
		if s.DirectLosses != 0 {
			t.Errorf("node %d lost %d races on a zero-delay graph", i, s.DirectLosses)
		}
	}

	if _, err := EstimateReplicated(zeroDelay, cfg, 1, 0); err == nil {
		t.Error("zero replicas must error")
	}
	// A mining node that cannot hear the quorum: hashrates 3,1 disconnected.
	lopsided := New([]Node{{Hashrate: 3}, {Hashrate: 1}})
	if _, err := Estimate(lopsided, cfg, rng); err == nil {
		t.Error("minority island must fail the quorum check")
	}

	// Pathological ratio: finality delays ~1e15 block intervals. The
	// solve budget must abandon the race with an error instead of
	// grinding through 1e15 mining events per height.
	slow, err := Ring(nodesN(3, 1), 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Estimate(slow, Config{Interval: 1e-9, Blocks: 3, Quorum: 0.9}, rng); err == nil {
		t.Error("pathological delay/interval ratio must hit the block budget")
	}
}

// TestEstimateReplicatedDeterministic: same seed and topology produce a
// byte-identical result at any worker count; a different seed moves it.
func TestEstimateReplicatedDeterministic(t *testing.T) {
	tp, err := Star(nodesN(4, 1), []float64{10, 20, 30})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Interval: 600, Blocks: 400, Quorum: 0.75}
	run := func(workers int) Result {
		prev := parallel.SetDefaultWorkers(workers)
		defer parallel.SetDefaultWorkers(prev)
		res, err := EstimateReplicated(tp, cfg, 99, 6)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq, par := run(1), run(7)
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("results differ across worker counts:\nworkers=1: %+v\nworkers=7: %+v", seq, par)
	}
	a, err := json.Marshal(seq)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(par)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("JSON beta tables differ across worker counts:\n%s\n%s", a, b)
	}
	other, err := EstimateReplicated(tp, cfg, 100, 6)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(seq.Stats, other.Stats) {
		t.Error("different seeds produced identical statistics")
	}
}

// TestDegenerateUniformDelaysSymmetric: with equal hashrates and uniform
// delays no position is privileged, so measured fork rates agree across
// nodes within their confidence resolution (the scalar-β degenerate
// case of the topology model).
func TestDegenerateUniformDelaysSymmetric(t *testing.T) {
	tp, err := Ring(nodesN(4, 1), 20)
	if err != nil {
		t.Fatal(err)
	}
	res, err := EstimateReplicated(tp, Config{Interval: 600, Blocks: 2000, Quorum: 0.75}, 5, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Stats); i++ {
		a, b := res.Stats[0], res.Stats[i]
		if math.Abs(a.Beta-b.Beta) > a.BetaErr+b.BetaErr {
			t.Errorf("symmetric ring: node 0 beta %.4f±%.4f vs node %d beta %.4f±%.4f",
				a.Beta, a.BetaErr, i, b.Beta, b.BetaErr)
		}
	}
}

// TestRaceGolden pins the race's full output — every tally, rate and
// event count — on a star, a scale-free graph and a zero-delay ring at
// three quorums. Any change to event order, tie-breaking or stale-event
// counting moves the digest.
func TestRaceGolden(t *testing.T) {
	star, err := Star(nodesN(8, 1), []float64{5, 10, 15, 20, 25, 30, 35})
	if err != nil {
		t.Fatal(err)
	}
	sf, err := ScaleFree(nodesN(24, 1), 2, 20, sim.NewRNG(3, "sf"))
	if err != nil {
		t.Fatal(err)
	}
	ring, err := Ring(nodesN(6, 1), 0)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, tp := range []*Topology{star, sf, ring} {
		for _, q := range []float64{0.5, 0.75, 1} {
			res, err := EstimateReplicated(tp, Config{Interval: 60, Blocks: 300, Quorum: q}, 7, 4)
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			h.Write(b)
		}
	}
	const want = "e2a0f6c78514b8516d4979f0b0a8183dc30de999991abf12af6e9469ed7ab04f"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("race output digest %s, want %s", got, want)
	}
}

// TestRaceAllocsPerEvent: the event loop allocates only when its
// backing slices grow, not per event — well under 0.05 allocations per
// event on BenchmarkTopoRace's star.
func TestRaceAllocsPerEvent(t *testing.T) {
	tp, err := Star(nodesN(8, 1), []float64{5, 10, 15, 20, 25, 30, 35})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Interval: 600, Blocks: 500, Quorum: 0.6}
	var events int
	allocs := testing.AllocsPerRun(5, func() {
		res, err := Estimate(tp, cfg, sim.NewRNG(1, "bench-topo-race"))
		if err != nil {
			t.Fatal(err)
		}
		events = res.Events
	})
	if perEvent := allocs / float64(events); perEvent > 0.05 {
		t.Errorf("%.0f allocations over %d events = %.3f per event, want <= 0.05", allocs, events, perEvent)
	}
}

func BenchmarkTopoRace(b *testing.B) {
	tp, err := Star(nodesN(8, 1), []float64{5, 10, 15, 20, 25, 30, 35})
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{Interval: 600, Blocks: 500, Quorum: 0.6}
	b.ReportAllocs()
	var events int
	for i := 0; i < b.N; i++ {
		rng := sim.NewRNG(int64(i), "bench-topo-race")
		res, err := Estimate(tp, cfg, rng)
		if err != nil {
			b.Fatal(err)
		}
		events += res.Events
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
}
