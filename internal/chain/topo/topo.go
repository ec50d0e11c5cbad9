// Package topo is the topology-aware fork model: an event-driven
// peer-graph block race that replaces the paper's single scalar
// propagation delay D_avg (and the single fork rate β(D) it induces in
// Eq. 6) with *per-miner* effective fork rates β_i measured from each
// miner's position in an explicit peer network.
//
// The model generalizes the two-party race of package chain: every miner
// is a node of a latency-weighted directed peer graph, blocks flood the
// graph link by link (the minesim design: explicit topology, per-link
// relay delays, per-node hashrate, block forwarding, stale-tip reorgs and
// credit accounting), and a block solved by node n reaches consensus a
// finality delay δ_n after its solve — the time its flood takes to cover
// a configured hashrate quorum. The earliest-final block at each height
// is canonical; everything else is an orphan. A node near the hashpower
// (small δ_n) recovers the paper's edge miner (β_i → 0 as δ_n → 0); a
// far node suffers a position-dependent fork rate the scalar model
// cannot express. On a two-node graph the race reduces exactly to the
// paper's model, which is the simulator's analytic anchor: the measured
// β̂ of the delayed node must match chain.BetaEdge (pinned by the
// cross-validation test).
//
// The package is also the repository's one peer-graph model: the random
// gossip overlay behind the paper's propagation delays is the Gossip
// shape, and its spread is PropagationDelay over the same floods.
package topo

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"minegame/internal/parallel"
	"minegame/internal/sim"
)

// Location tags where a node's computing power physically sits. It is
// descriptive (reporting and placement sweeps); the race dynamics depend
// only on hashrates and link delays.
type Location int

const (
	// LocationEdge marks a node whose units are ESP edge servers.
	LocationEdge Location = iota + 1
	// LocationCloud marks a node whose units are CSP cloud datacenters.
	LocationCloud
)

// String implements fmt.Stringer.
func (l Location) String() string {
	switch l {
	case LocationEdge:
		return "edge"
	case LocationCloud:
		return "cloud"
	default:
		return fmt.Sprintf("location(%d)", int(l))
	}
}

// Node is one miner of the peer graph.
type Node struct {
	// Hashrate is the node's computing power in arbitrary units; the
	// node's block production rate is its share of the total.
	Hashrate float64
	// Location tags the node edge or cloud (reporting only).
	Location Location
}

// link is one directed latency-weighted edge of the peer graph.
type link struct {
	to    int
	delay float64
}

// Topology is a directed latency-weighted peer graph over mining nodes.
// Construct with New and add links, or use one of the shape constructors
// (TwoNode, Star, Ring, Line, ScaleFree, Gossip).
type Topology struct {
	nodes []Node
	adj   [][]link
	arcs  int
}

// New returns a topology over the given nodes with no links.
func New(nodes []Node) *Topology {
	own := make([]Node, len(nodes))
	copy(own, nodes)
	return &Topology{nodes: own, adj: make([][]link, len(nodes))}
}

// Nodes returns the number of nodes.
func (t *Topology) Nodes() int { return len(t.nodes) }

// Node returns node i.
func (t *Topology) Node(i int) Node { return t.nodes[i] }

// Arcs returns the number of directed links.
func (t *Topology) Arcs() int { return t.arcs }

// AddArc adds a directed link a→b with the given relay delay.
func (t *Topology) AddArc(a, b int, delay float64) error {
	n := len(t.nodes)
	if a < 0 || a >= n || b < 0 || b >= n {
		return fmt.Errorf("topo: arc (%d→%d) outside [0, %d)", a, b, n)
	}
	if a == b {
		return fmt.Errorf("topo: self-loop on node %d", a)
	}
	if math.IsNaN(delay) || math.IsInf(delay, 0) || delay < 0 {
		return fmt.Errorf("topo: arc (%d→%d) delay %g must be finite and non-negative", a, b, delay)
	}
	t.adj[a] = append(t.adj[a], link{to: b, delay: delay})
	t.arcs++
	return nil
}

// AddLink adds the symmetric pair of arcs a↔b with the given delay.
func (t *Topology) AddLink(a, b int, delay float64) error {
	if err := t.AddArc(a, b, delay); err != nil {
		return err
	}
	return t.AddArc(b, a, delay)
}

// Validate reports structural errors: no nodes, non-finite or negative
// hashrates, or zero total hashrate.
func (t *Topology) Validate() error {
	if len(t.nodes) == 0 {
		return fmt.Errorf("topo: topology has no nodes")
	}
	var total float64
	for i, nd := range t.nodes {
		if math.IsNaN(nd.Hashrate) || math.IsInf(nd.Hashrate, 0) || nd.Hashrate < 0 {
			return fmt.Errorf("topo: node %d hashrate %g must be finite and non-negative", i, nd.Hashrate)
		}
		total += nd.Hashrate
	}
	if total <= 0 {
		return fmt.Errorf("topo: total hashrate must be positive")
	}
	return nil
}

// TotalHashrate returns the sum of node hashrates.
func (t *Topology) TotalHashrate() float64 {
	var total float64
	for _, nd := range t.nodes {
		total += nd.Hashrate
	}
	return total
}

// Distances returns the earliest relay arrival time from source to every
// node (Dijkstra over link delays; the source's own entry is 0,
// unreachable nodes are +Inf).
func (t *Topology) Distances(source int) ([]float64, error) {
	n := len(t.nodes)
	if source < 0 || source >= n {
		return nil, fmt.Errorf("topo: source %d outside [0, %d)", source, n)
	}
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[source] = 0
	pq := sim.Queue{{Key: source, Node: source}}
	for len(pq) > 0 {
		item := pq.Pop()
		if item.Time > dist[item.Node] {
			continue
		}
		for _, l := range t.adj[item.Node] {
			if at := item.Time + l.delay; at < dist[l.to] {
				dist[l.to] = at
				pq.Push(sim.Event{Time: at, Key: l.to, Node: l.to})
			}
		}
	}
	return dist, nil
}

// FinalityDelay returns δ_i: the time a block solved at node i takes to
// reach consensus, defined as the earliest instant its flood has covered
// at least quorum of the network's total hashrate (the solving node's
// own hashrate counts from time zero). It returns an error when the
// reachable hashrate never covers the quorum — a disconnected graph
// cannot reach consensus from this node.
func (t *Topology) FinalityDelay(i int, quorum float64) (float64, error) {
	if quorum <= 0 || quorum > 1 {
		return 0, fmt.Errorf("topo: quorum %g outside (0, 1]", quorum)
	}
	dist, err := t.Distances(i)
	if err != nil {
		return 0, err
	}
	total := t.TotalHashrate()
	arrivals := make([]sim.Event, 0, len(dist))
	for j, at := range dist {
		if !math.IsInf(at, 1) {
			arrivals = append(arrivals, sim.Event{Time: at, Node: j})
		}
	}
	sort.Slice(arrivals, func(a, b int) bool { return arrivals[a].Time < arrivals[b].Time })
	need := quorum * total
	var covered float64
	for _, a := range arrivals {
		covered += t.nodes[a.Node].Hashrate
		// covered accumulates the same hashrates that sum to total, so at
		// quorum 1 the final arrival satisfies the >= with equal floats.
		if covered >= need*(1-1e-12) {
			return a.Time, nil
		}
	}
	return 0, fmt.Errorf("topo: node %d reaches only %.3f of the hashrate (quorum %.3f): graph disconnected", i, covered/total, quorum)
}

// FinalityDelays returns δ_i for every node (see FinalityDelay).
func (t *Topology) FinalityDelays(quorum float64) ([]float64, error) {
	out := make([]float64, len(t.nodes))
	for i := range t.nodes {
		d, err := t.FinalityDelay(i, quorum)
		if err != nil {
			return nil, err
		}
		out[i] = d
	}
	return out, nil
}

// PropagationDelay estimates the time a block from a random source takes
// to reach the given fraction of the network's hashrate — on the
// unit-hashrate Gossip overlay, the fraction of its nodes (0.9 for the
// 90th-percentile spread). It is the mean of FinalityDelay(source,
// fraction) over samples sources. The sources are drawn from rng up
// front (so the RNG consumption matches a sequential sweep), then the
// per-source floods fan out over the process-default worker pool; the
// in-order reduction keeps the estimate bit-identical at any worker
// count.
func (t *Topology) PropagationDelay(fraction float64, samples int, rng *rand.Rand) (float64, error) {
	if samples <= 0 {
		return 0, fmt.Errorf("topo: samples %d must be positive", samples)
	}
	if err := t.Validate(); err != nil {
		return 0, err
	}
	sources := make([]int, samples)
	for s := range sources {
		sources[s] = rng.Intn(len(t.nodes))
	}
	spreads, err := parallel.Map(parallel.New(0), sources, func(_ int, source int) (float64, error) {
		return t.FinalityDelay(source, fraction)
	})
	if err != nil {
		return 0, err
	}
	var total float64
	for _, spread := range spreads {
		total += spread
	}
	return total / float64(samples), nil
}

// Proximity returns node i's distance-weighted proximity to the
// network's hashpower: Σ_j h_j / (1 + d(i,j)), with unreachable nodes
// contributing nothing. A node sitting on top of the hashpower scores
// near the total hashrate; a far node scores low. The race property
// tests assert that β_i is monotone nonincreasing in this quantity.
func (t *Topology) Proximity(i int) (float64, error) {
	dist, err := t.Distances(i)
	if err != nil {
		return 0, err
	}
	var p float64
	for j, d := range dist {
		if math.IsInf(d, 1) {
			continue
		}
		p += t.nodes[j].Hashrate / (1 + d)
	}
	return p, nil
}

// TwoNode is the analytic anchor topology: node 0 (edge) and node 1
// (cloud) joined by asymmetric arcs — edge→cloud with delay down,
// cloud→edge with delay up. With down = 0 the race is exactly the
// paper's: edge blocks reach consensus immediately, cloud blocks after
// up, and the cloud node's measured fork rate equals
// chain.BetaEdge(edgeHash, edgeHash+cloudHash, up, interval).
func TwoNode(edgeHash, cloudHash, up, down float64) (*Topology, error) {
	t := New([]Node{
		{Hashrate: edgeHash, Location: LocationEdge},
		{Hashrate: cloudHash, Location: LocationCloud},
	})
	if err := t.AddArc(0, 1, down); err != nil {
		return nil, err
	}
	if err := t.AddArc(1, 0, up); err != nil {
		return nil, err
	}
	return t, nil
}

// Star joins every non-hub node to node 0 (the hub) with the per-spoke
// delays given; len(spokeDelay) must be len(nodes)-1 (spoke i+1 uses
// spokeDelay[i]).
func Star(nodes []Node, spokeDelay []float64) (*Topology, error) {
	if len(nodes) < 2 {
		return nil, fmt.Errorf("topo: star needs at least 2 nodes, got %d", len(nodes))
	}
	if len(spokeDelay) != len(nodes)-1 {
		return nil, fmt.Errorf("topo: star over %d nodes needs %d spoke delays, got %d", len(nodes), len(nodes)-1, len(spokeDelay))
	}
	t := New(nodes)
	for i := 1; i < len(nodes); i++ {
		if err := t.AddLink(0, i, spokeDelay[i-1]); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// Ring joins the nodes in a cycle with a uniform per-link delay.
func Ring(nodes []Node, linkDelay float64) (*Topology, error) {
	if len(nodes) < 3 {
		return nil, fmt.Errorf("topo: ring needs at least 3 nodes, got %d", len(nodes))
	}
	t := New(nodes)
	for i := range nodes {
		if err := t.AddLink(i, (i+1)%len(nodes), linkDelay); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// Line joins the nodes in a path 0—1—…—n−1 with a uniform per-link
// delay: the cleanest monotone distance gradient for placement studies.
func Line(nodes []Node, linkDelay float64) (*Topology, error) {
	if len(nodes) < 2 {
		return nil, fmt.Errorf("topo: line needs at least 2 nodes, got %d", len(nodes))
	}
	t := New(nodes)
	for i := 0; i+1 < len(nodes); i++ {
		if err := t.AddLink(i, i+1, linkDelay); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// GossipConfig parameterizes a random peer-to-peer overlay.
type GossipConfig struct {
	// Nodes is the network size (≥ 2).
	Nodes int
	// Degree is the number of additional random links per node beyond
	// the connectivity ring (≥ 0).
	Degree int
	// MeanLatency is the mean per-link latency; individual link
	// latencies are exponential with this mean.
	MeanLatency float64
}

// Validate reports configuration errors.
func (c GossipConfig) Validate() error {
	if c.Nodes < 2 {
		return fmt.Errorf("topo: gossip network needs at least 2 nodes, got %d", c.Nodes)
	}
	if c.Degree < 0 {
		return fmt.Errorf("topo: gossip degree %d must be non-negative", c.Degree)
	}
	if c.MeanLatency <= 0 {
		return fmt.Errorf("topo: mean latency %g must be positive", c.MeanLatency)
	}
	return nil
}

// Gossip builds the random overlay the paper's delays come from: Nodes
// unit-hashrate nodes joined in a connectivity ring, then Degree random
// chords per node that shrink the diameter like a small-world overlay
// (a chord drawn onto its own node is skipped). Every link is symmetric
// with an exponential latency of mean MeanLatency, drawn from rng in
// link order, so a seeded stream reproduces the graph bit for bit.
func Gossip(cfg GossipConfig, rng *rand.Rand) (*Topology, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nodes := make([]Node, cfg.Nodes)
	for i := range nodes {
		nodes[i].Hashrate = 1
	}
	t := New(nodes)
	addLink := func(a, b int) error { return t.AddLink(a, b, rng.ExpFloat64()*cfg.MeanLatency) }
	for i := 0; i < cfg.Nodes; i++ {
		if err := addLink(i, (i+1)%cfg.Nodes); err != nil {
			return nil, err
		}
	}
	for i := 0; i < cfg.Nodes; i++ {
		for d := 0; d < cfg.Degree; d++ {
			if j := rng.Intn(cfg.Nodes); j != i {
				if err := addLink(i, j); err != nil {
					return nil, err
				}
			}
		}
	}
	return t, nil
}

// ScaleFree grows a Barabási–Albert-style preferential-attachment graph:
// each new node links to attach existing nodes chosen with probability
// proportional to their current degree (plus one), with exponential link
// delays of the given mean drawn from rng. The rng fully determines the
// graph, so a seeded stream reproduces it bit for bit.
func ScaleFree(nodes []Node, attach int, meanDelay float64, rng *rand.Rand) (*Topology, error) {
	n := len(nodes)
	if n < 2 {
		return nil, fmt.Errorf("topo: scale-free graph needs at least 2 nodes, got %d", n)
	}
	if attach < 1 {
		return nil, fmt.Errorf("topo: attachment count %d must be at least 1", attach)
	}
	if meanDelay <= 0 {
		return nil, fmt.Errorf("topo: mean link delay %g must be positive", meanDelay)
	}
	t := New(nodes)
	degree := make([]int, n)
	addLink := func(a, b int) error {
		if err := t.AddLink(a, b, rng.ExpFloat64()*meanDelay); err != nil {
			return err
		}
		degree[a]++
		degree[b]++
		return nil
	}
	if err := addLink(0, 1); err != nil {
		return nil, err
	}
	for v := 2; v < n; v++ {
		k := attach
		if k > v {
			k = v
		}
		chosen := make(map[int]bool, k)
		for len(chosen) < k {
			// Roulette over degree+1 keeps isolated targets reachable.
			var mass int
			for u := 0; u < v; u++ {
				if !chosen[u] {
					mass += degree[u] + 1
				}
			}
			pick := rng.Intn(mass)
			for u := 0; u < v; u++ {
				if chosen[u] {
					continue
				}
				pick -= degree[u] + 1
				if pick < 0 {
					chosen[u] = true
					if err := addLink(v, u); err != nil {
						return nil, err
					}
					break
				}
			}
		}
	}
	return t, nil
}
