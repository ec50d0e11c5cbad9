package topo

// The event-driven peer-graph block race. Every node mines continuously
// on its local best tip; a solved block floods the graph link by link
// (relay on first receipt); a block solved at node n reaches consensus
// δ_n after its solve (the node's finality delay, but never before its
// parent); the earliest-final block at each height with a canonical
// parent is canonical. Nodes reorg onto the branch whose first divergent
// block is earliest-final, so mining behavior and canonicity agree.
//
// Three event kinds drive the race, all value entries of one sim.Queue
// keyed by insertion sequence:
//
//	mine(n)      — node n solves a block on its current tip. Tip changes
//	               invalidate the pending event via a per-node epoch
//	               counter and schedule a fresh one (the exponential
//	               solve time is memoryless, so resampling is exact).
//	arrive(n, b) — block b reaches node n over a link: mark seen, relay
//	               to every neighbor, adopt if b's branch beats the tip.
//	decide(b)    — block b's consensus instant: decide canonical/orphan
//	               and credit or charge its miner.
//
// Decide events fire in time order with deterministic tie-breaking
// (equal times pop in insertion order, and insertion order follows
// solve order), and a child's finality never precedes its parent's, so
// canonicity is decided exactly once per block with the parent's
// verdict already known.

import (
	"fmt"
	"math"
	"math/rand"

	"minegame/internal/parallel"
	"minegame/internal/sim"
)

// Config parameterizes a race estimation run.
type Config struct {
	// Interval is the network's mean block inter-arrival time (difficulty
	// keeps it constant; each node solves at its hashrate share of 1/Interval).
	Interval float64
	// Blocks is the canonical chain height to reach before stopping.
	Blocks int
	// Quorum is the hashrate fraction a block's flood must cover to reach
	// consensus, in (0, 1]. It defines the per-node finality delays δ_i.
	Quorum float64
}

// budget caps the blocks a replica may solve before the race is
// abandoned with an error: 1000 per target block plus 1000 slack, far
// above any convergent race's needs. It guarantees that a pathological
// configuration (finality delays many orders of magnitude above the
// block interval, so races pile up blocks faster than they resolve)
// terminates instead of grinding forever.
func (c Config) budget() int { return c.Blocks*1000 + 1000 }

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Interval <= 0 || math.IsNaN(c.Interval) || math.IsInf(c.Interval, 0) {
		return fmt.Errorf("topo: interval %g must be positive and finite", c.Interval)
	}
	if c.Blocks < 1 {
		return fmt.Errorf("topo: target height %d must be at least 1", c.Blocks)
	}
	if c.Quorum <= 0 || c.Quorum > 1 || math.IsNaN(c.Quorum) {
		return fmt.Errorf("topo: quorum %g outside (0, 1]", c.Quorum)
	}
	return nil
}

// MinerStats is one node's race outcome. Counts cover decided blocks
// only (blocks whose finality event fired before the run drained).
type MinerStats struct {
	// Mined is the number of decided blocks the node solved.
	Mined int
	// Credited is how many of those became canonical.
	Credited int
	// Orphaned is how many were discarded (direct losses plus blocks
	// stranded on orphan branches); Mined = Credited + Orphaned.
	Orphaned int
	// DirectLosses counts orphans that lost a same-height race from a
	// canonical parent — the topology-induced fork events.
	DirectLosses int
	// Eligible counts decided blocks with a canonical parent: the
	// denominator of the fork-rate estimate (each either won its height
	// or is a direct loss).
	Eligible int
	// Beta is the node's effective fork rate β̂_i = DirectLosses/Eligible
	// (0 when the node mined no eligible blocks).
	Beta float64
	// BetaErr is the 95% normal-approximation half-width of Beta.
	BetaErr float64
	// WinProb is the node's share of canonical blocks Ŵ_i.
	WinProb float64
	// WinProbErr is the 95% normal-approximation half-width of WinProb.
	WinProbErr float64
}

// Result aggregates a race estimation run.
type Result struct {
	// Stats holds per-node outcomes, indexed like the topology's nodes.
	Stats []MinerStats
	// Delays are the finality delays δ_i the race ran with.
	Delays []float64
	// Canonical is the number of canonical blocks decided.
	Canonical int
	// Decided is the total number of decided blocks (canonical + orphans).
	Decided int
	// Events is the number of race events popped, stale mine events
	// included.
	Events int
	// Replicas is how many independent replicas the counts pool.
	Replicas int
}

// Betas returns the per-node fork rates β̂_i as a slice.
func (r Result) Betas() []float64 {
	out := make([]float64, len(r.Stats))
	for i, s := range r.Stats {
		out[i] = s.Beta
	}
	return out
}

// WinProbs returns the per-node canonical-block shares Ŵ_i as a slice.
func (r Result) WinProbs() []float64 {
	out := make([]float64, len(r.Stats))
	for i, s := range r.Stats {
		out[i] = s.WinProb
	}
	return out
}

// minerCounts are the raw integer tallies behind MinerStats.
type minerCounts struct {
	mined, credited, orphaned, directLosses, eligible int
}

// counts are one replica's raw tallies; replicas merge by integer
// addition, so pooling is exact and order-independent.
type counts struct {
	miners    []minerCounts
	canonical int
	decided   int
	events    int
}

func (c *counts) merge(o counts) {
	for i := range c.miners {
		c.miners[i].mined += o.miners[i].mined
		c.miners[i].credited += o.miners[i].credited
		c.miners[i].orphaned += o.miners[i].orphaned
		c.miners[i].directLosses += o.miners[i].directLosses
		c.miners[i].eligible += o.miners[i].eligible
	}
	c.canonical += o.canonical
	c.decided += o.decided
	c.events += o.events
}

// block is one solved block of the global tree (index in race.blocks is
// its id; ids increase in solve order).
type block struct {
	parent    int // id of the parent, -1 for genesis
	height    int
	miner     int // solving node, -1 for genesis
	solvedAt  float64
	finalAt   float64
	canonical bool
}

// The race's event kinds (see the file comment).
const (
	mineEvent = iota
	arriveEvent
	decideEvent
)

// race is the mutable state of one replica.
type race struct {
	topo     *Topology
	cfg      Config
	delays   []float64
	interval []float64 // per-node mean solve time (0 ⇒ node does not mine)
	rng      *rand.Rand

	queue sim.Queue
	now   float64 // the popped event's time
	seq   int     // insertion sequence: the queue's tie-break key

	blocks  []block
	tip     []int
	epoch   []int
	seen    []bool // block id*nodes + node → the node has the block
	canonAt []int  // height → canonical block id
	budget  int    // max blocks to solve before abandoning the race
	done    bool
	failed  bool
	c       counts
}

// Estimate runs one seeded race replica over the topology on the
// caller's rng and returns per-node fork rates and win probabilities. It
// errors on invalid configuration or when the graph cannot reach the
// quorum from some node (a disconnected topology has no consensus to
// race for).
func Estimate(t *Topology, cfg Config, rng *rand.Rand) (Result, error) {
	delays, err := finalityDelays(t, cfg)
	if err != nil {
		return Result{}, err
	}
	c, err := raceCounts(t, cfg, delays, rng)
	if err != nil {
		return Result{}, err
	}
	return finalize(c, delays, 1), nil
}

// EstimateReplicated pools `replicas` independent race replicas, each on
// its own label-derived RNG stream, fanning out over the process-default
// worker pool. Replica tallies are integers merged in replica order, so
// the result is bit-identical at any worker count.
func EstimateReplicated(t *Topology, cfg Config, seed int64, replicas int) (Result, error) {
	if replicas < 1 {
		return Result{}, fmt.Errorf("topo: replicas %d must be at least 1", replicas)
	}
	delays, err := finalityDelays(t, cfg)
	if err != nil {
		return Result{}, err
	}
	idx := make([]int, replicas)
	for i := range idx {
		idx[i] = i
	}
	parts, err := parallel.Map(parallel.New(0), idx, func(_ int, rep int) (counts, error) {
		return raceCounts(t, cfg, delays, sim.NewRNG(seed, fmt.Sprintf("topo-replica-%d", rep)))
	})
	if err != nil {
		return Result{}, err
	}
	total := newCounts(t.Nodes())
	for _, p := range parts {
		total.merge(p)
	}
	return finalize(total, delays, replicas), nil
}

func newCounts(nodes int) counts {
	return counts{miners: make([]minerCounts, nodes)}
}

// finalityDelays validates the configuration and the topology once and
// returns the per-node finality delays every replica races with.
func finalityDelays(t *Topology, cfg Config) ([]float64, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t.FinalityDelays(cfg.Quorum)
}

// raceCounts runs one replica with validated finality delays and returns
// its raw tallies.
func raceCounts(t *Topology, cfg Config, delays []float64, rng *rand.Rand) (counts, error) {
	n := t.Nodes()
	total := t.TotalHashrate()
	r := &race{
		topo:     t,
		cfg:      cfg,
		delays:   delays,
		interval: make([]float64, n),
		rng:      rng,
		blocks:   []block{{parent: -1, height: 0, miner: -1, canonical: true}},
		tip:      make([]int, n),
		epoch:    make([]int, n),
		seen:     make([]bool, n),
		canonAt:  []int{0},
		budget:   cfg.budget(),
		c:        newCounts(n),
	}
	for i := 0; i < n; i++ {
		if h := t.Node(i).Hashrate; h > 0 {
			r.interval[i] = cfg.Interval * total / h
		}
		r.seen[i] = true
		r.scheduleMine(i)
	}
	for len(r.queue) > 0 && !r.failed {
		ev := r.queue.Pop()
		r.now = ev.Time
		r.c.events++
		switch ev.Kind {
		case mineEvent:
			if !r.done && r.epoch[ev.Node] == ev.Arg {
				r.solve(ev.Node)
			}
		case arriveEvent:
			r.arrive(ev.Node, ev.Arg)
		case decideEvent:
			r.decide(ev.Arg)
		}
	}
	if r.failed {
		return counts{}, fmt.Errorf("topo: race solved %d blocks without reaching height %d (finality delays dwarf the block interval; the budget is 1000 blocks per target block plus 1000)", len(r.blocks)-1, cfg.Blocks)
	}
	if !r.done {
		return counts{}, fmt.Errorf("topo: race drained at height %d before reaching %d", len(r.canonAt)-1, cfg.Blocks)
	}
	return r.c, nil
}

// schedule queues an event at absolute time at, keyed by insertion
// sequence so equal times pop in the order they were scheduled.
func (r *race) schedule(at float64, kind uint8, node, arg int) {
	r.seq++
	r.queue.Push(sim.Event{Time: at, Key: r.seq, Kind: kind, Node: node, Arg: arg})
}

// scheduleMine arms node n's next solve. The event carries the node's
// current epoch; any tip change bumps the epoch and arms a fresh event,
// so at most one live mine event exists per node and stale ones no-op.
func (r *race) scheduleMine(n int) {
	if r.done || r.interval[n] == 0 {
		return
	}
	r.schedule(r.now+r.rng.ExpFloat64()*r.interval[n], mineEvent, n, r.epoch[n])
}

// solve creates node n's block on its tip, schedules the block's
// decide event, floods it, and moves the node onto it.
func (r *race) solve(n int) {
	if len(r.blocks) > r.budget {
		// The race is producing blocks far faster than finality resolves
		// them: abandon rather than grind unboundedly (see Config.budget).
		r.failed = true
		return
	}
	parent := r.tip[n]
	id := len(r.blocks)
	final := r.now + r.delays[n]
	if pf := r.blocks[parent].finalAt; pf > final {
		// A block cannot reach consensus before its parent has.
		final = pf
	}
	r.blocks = append(r.blocks, block{
		parent:   parent,
		height:   r.blocks[parent].height + 1,
		miner:    n,
		solvedAt: r.now,
		finalAt:  final,
	})
	r.schedule(final, decideEvent, n, id)
	nodes := len(r.tip)
	for range nodes {
		r.seen = append(r.seen, false) // a loop: append(s, make(…)...) allocates under -race
	}
	r.seen[id*nodes+n] = true
	r.relay(n, id)
	r.setTip(n, id)
}

// relay forwards block id over every outgoing link of node n.
func (r *race) relay(n, id int) {
	for _, l := range r.topo.adj[n] {
		r.schedule(r.now+l.delay, arriveEvent, l.to, id)
	}
}

// arrive delivers block id to node n: first receipt relays onward and
// the node adopts the block's branch when it beats the current tip.
func (r *race) arrive(n, id int) {
	at := id*len(r.tip) + n
	if r.seen[at] {
		return
	}
	r.seen[at] = true
	r.relay(n, id)
	if r.better(id, r.tip[n]) {
		r.setTip(n, id)
	}
}

// setTip moves node n onto block id, invalidating the pending mine event
// and arming a fresh one (the stale-tip reorg).
func (r *race) setTip(n, id int) {
	r.tip[n] = id
	r.epoch[n]++
	r.scheduleMine(n)
}

// decide fires at block id's finality instant: the block is canonical
// iff its parent is canonical and no earlier-final block took its
// height. Everything else is an orphan — a direct loss when the parent
// was canonical (it lost a same-height race), a cascade orphan when the
// parent itself was discarded.
func (r *race) decide(id int) {
	b := &r.blocks[id]
	m := &r.c.miners[b.miner]
	m.mined++
	r.c.decided++
	parentCanonical := r.blocks[b.parent].canonical
	if parentCanonical {
		m.eligible++
	}
	// A canonical parent at height h−1 means canonAt covers 0…h−1, so
	// height h is free exactly when canonAt has length h.
	if parentCanonical && b.height == len(r.canonAt) {
		b.canonical = true
		r.canonAt = append(r.canonAt, id)
		m.credited++
		r.c.canonical++
		if b.height >= r.cfg.Blocks {
			// Target height reached: stop minting new blocks and let the
			// queue drain so every solved block still gets decided.
			r.done = true
		}
		return
	}
	m.orphaned++
	if parentCanonical {
		m.directLosses++
	}
}

// better reports whether the branch ending at block a should replace the
// branch ending at block b as a mining tip. A strict extension always
// wins; otherwise the branch whose first divergent block is
// earliest-final wins (ties broken by solve time, then id), matching the
// canonicity rule so nodes mine where consensus will land.
func (r *race) better(a, b int) bool {
	if a == b {
		return false
	}
	for r.blocks[a].height > r.blocks[b].height {
		a = r.blocks[a].parent
	}
	if a == b {
		return true // b is an ancestor of the candidate: strictly longer chain
	}
	for r.blocks[b].height > r.blocks[a].height {
		b = r.blocks[b].parent
	}
	if a == b {
		return false // the candidate is an ancestor of the current tip
	}
	for r.blocks[a].parent != r.blocks[b].parent {
		a = r.blocks[a].parent
		b = r.blocks[b].parent
	}
	x, y := r.blocks[a], r.blocks[b]
	if x.finalAt != y.finalAt { //lint:allow floateq exact tie-break: equal finality instants fall through to the solve-time comparison
		return x.finalAt < y.finalAt
	}
	if x.solvedAt != y.solvedAt { //lint:allow floateq exact tie-break: equal solve instants fall through to the id comparison
		return x.solvedAt < y.solvedAt
	}
	return a < b
}

// finalize turns pooled tallies into rates with 95% normal-approximation
// half-widths.
func finalize(c counts, delays []float64, replicas int) Result {
	stats := make([]MinerStats, len(c.miners))
	for i, m := range c.miners {
		s := MinerStats{
			Mined:        m.mined,
			Credited:     m.credited,
			Orphaned:     m.orphaned,
			DirectLosses: m.directLosses,
			Eligible:     m.eligible,
		}
		if m.eligible > 0 {
			s.Beta = float64(m.directLosses) / float64(m.eligible)
			s.BetaErr = waldHalfWidth(s.Beta, m.eligible)
		}
		if c.canonical > 0 {
			s.WinProb = float64(m.credited) / float64(c.canonical)
			s.WinProbErr = waldHalfWidth(s.WinProb, c.canonical)
		}
		stats[i] = s
	}
	return Result{
		Stats:     stats,
		Delays:    delays,
		Canonical: c.canonical,
		Decided:   c.decided,
		Events:    c.events,
		Replicas:  replicas,
	}
}

// waldHalfWidth is the 95% normal-approximation confidence half-width of
// a binomial proportion p over n trials.
func waldHalfWidth(p float64, n int) float64 {
	return 1.96 * math.Sqrt(p*(1-p)/float64(n))
}
