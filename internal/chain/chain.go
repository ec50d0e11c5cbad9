// Package chain is the proof-of-work blockchain substrate of the mining
// game. It provides a fork-aware ledger, the edge/cloud mining race
// simulator, and the analytic collision/fork-rate models that link block
// propagation delay to the game parameter β. Peer-graph propagation (the
// gossip overlay and per-miner fork rates) lives in package chain/topo.
//
// The paper assumes the network's block production follows a Bitcoin-like
// pattern: block inter-arrival times are exponential with mean Interval
// (difficulty keeps the network rate constant), and a block solved in the
// cloud takes CloudDelay to reach consensus while edge-solved blocks reach
// consensus immediately. During a cloud block's propagation window a
// conflicting edge-solved block wins the round; conflicting cloud-solved
// blocks cannot (they would reach consensus later). The simulator
// implements exactly that race, including cascades of multiple conflicting
// blocks within one window.
package chain

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
)

// Origin identifies where a block's proof-of-work was computed.
type Origin int

const (
	// OriginEdge marks a block solved on ESP computing units.
	OriginEdge Origin = iota + 1
	// OriginCloud marks a block solved on CSP computing units.
	OriginCloud
)

// String implements fmt.Stringer.
func (o Origin) String() string {
	switch o {
	case OriginEdge:
		return "edge"
	case OriginCloud:
		return "cloud"
	default:
		return fmt.Sprintf("origin(%d)", int(o))
	}
}

// MarshalJSON encodes the origin as its human-readable name.
func (o Origin) MarshalJSON() ([]byte, error) {
	switch o {
	case OriginEdge, OriginCloud:
		return json.Marshal(o.String())
	default:
		return nil, fmt.Errorf("chain: cannot marshal unknown origin %d", int(o))
	}
}

// UnmarshalJSON decodes an origin from its name.
func (o *Origin) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return fmt.Errorf("chain: unmarshal origin: %w", err)
	}
	switch s {
	case "edge":
		*o = OriginEdge
	case "cloud":
		*o = OriginCloud
	default:
		return fmt.Errorf("chain: unknown origin %q", s)
	}
	return nil
}

// Block is a mined block. Blocks form a tree rooted at the genesis block;
// the longest path is the canonical chain.
type Block struct {
	ID        uint64  `json:"id"`
	Parent    uint64  `json:"parent"`
	Height    int     `json:"height"`
	MinerID   int     `json:"minerId"`
	Origin    Origin  `json:"origin"`
	SolvedAt  float64 `json:"solvedAt"`  // simulation time the PoW was solved
	FinalAt   float64 `json:"finalAt"`   // simulation time the block reached consensus
	Discarded bool    `json:"discarded"` // true if the block lost its fork race
}

// GenesisID is the ID of the implicit genesis block.
const GenesisID uint64 = 0

// Ledger is a fork-aware block store. The zero value is not usable;
// construct with NewLedger.
type Ledger struct {
	blocks  map[uint64]*Block
	tip     uint64
	nextID  uint64
	forks   int
	orphans int
}

// NewLedger returns a ledger containing only the genesis block.
func NewLedger() *Ledger {
	genesis := &Block{ID: GenesisID, Height: 0, MinerID: -1}
	return &Ledger{
		blocks: map[uint64]*Block{GenesisID: genesis},
		tip:    GenesisID,
		nextID: 1,
	}
}

// ErrUnknownParent is returned by Append when the parent block does not
// exist in the ledger.
var ErrUnknownParent = errors.New("chain: unknown parent block")

// Append adds a block mined on top of parent and returns it. The new
// block's height is parent's height + 1. If the new branch is strictly
// longer than the current canonical chain the tip advances; otherwise the
// block starts a (or extends an) fork and the previous tip stays canonical
// (first-seen rule).
func (l *Ledger) Append(parent uint64, minerID int, origin Origin, solvedAt, finalAt float64) (*Block, error) {
	p, ok := l.blocks[parent]
	if !ok {
		return nil, fmt.Errorf("append block from miner %d: parent %d: %w", minerID, parent, ErrUnknownParent)
	}
	b := &Block{
		ID:       l.nextID,
		Parent:   parent,
		Height:   p.Height + 1,
		MinerID:  minerID,
		Origin:   origin,
		SolvedAt: solvedAt,
		FinalAt:  finalAt,
	}
	l.nextID++
	l.blocks[b.ID] = b
	tip := l.blocks[l.tip]
	switch {
	case b.Height > tip.Height:
		l.tip = b.ID
	case parent != l.tip:
		// The block extends a non-canonical branch without overtaking:
		// it is part of a fork.
		l.forks++
		b.Discarded = true
		l.orphans++
	default:
		l.tip = b.ID
	}
	return b, nil
}

// MarkDiscarded records that a block lost a same-height race (the
// simulator resolves races explicitly rather than via branch lengths).
func (l *Ledger) MarkDiscarded(id uint64) {
	if b, ok := l.blocks[id]; ok && !b.Discarded {
		b.Discarded = true
		l.forks++
		l.orphans++
	}
}

// Tip returns the canonical head block.
func (l *Ledger) Tip() *Block { return l.blocks[l.tip] }

// Block returns the block with the given ID, or nil.
func (l *Ledger) Block(id uint64) *Block { return l.blocks[id] }

// Height returns the canonical chain height.
func (l *Ledger) Height() int { return l.blocks[l.tip].Height }

// Len returns the total number of mined blocks (excluding genesis).
func (l *Ledger) Len() int { return len(l.blocks) - 1 }

// Forks returns the number of blocks that lost a fork race.
func (l *Ledger) Forks() int { return l.forks }

// Blocks returns every mined block (excluding genesis) ordered by ID,
// i.e. by mining order.
func (l *Ledger) Blocks() []*Block {
	out := make([]*Block, 0, len(l.blocks)-1)
	for id := uint64(1); id < l.nextID; id++ {
		if b, ok := l.blocks[id]; ok {
			out = append(out, b)
		}
	}
	return out
}

// Export writes the full block tree as a JSON array (mining order), for
// external analysis tooling.
func (l *Ledger) Export(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(l.Blocks()); err != nil {
		return fmt.Errorf("chain: export ledger: %w", err)
	}
	return nil
}

// CanonicalMinerWins counts canonical (non-discarded) blocks per miner ID.
func (l *Ledger) CanonicalMinerWins() map[int]int {
	wins := make(map[int]int)
	// Walk back from the tip so only canonical blocks count.
	for id := l.tip; id != GenesisID; {
		b := l.blocks[id]
		wins[b.MinerID]++
		id = b.Parent
	}
	return wins
}

// CollisionCDF is the probability that at least one conflicting block is
// found during a propagation window of length delay, when the network
// produces blocks with exponential inter-arrival of mean interval:
//
//	P(collision) = 1 − exp(−delay/interval).
//
// This is the (nearly linear in delay) split-rate curve of the paper's
// Fig. 2(b), matching the Bitcoin measurements of Decker & Wattenhofer.
func CollisionCDF(delay, interval float64) float64 {
	if delay <= 0 {
		return 0
	}
	return 1 - math.Exp(-delay/interval)
}

// CollisionPDF is the density of the first conflicting block's arrival
// time (Fig. 2(a)): an exponential with rate 1/interval.
func CollisionPDF(delay, interval float64) float64 {
	if delay < 0 {
		return 0
	}
	return math.Exp(-delay/interval) / interval
}

// BetaEdge is the fork-rate parameter β under which the paper's winning
// probability (Eq. 6) is exact for the physical mining race: the
// probability that an EDGE-solved conflicting block appears during a
// cloud block's propagation window,
//
//	β = 1 − exp(−(E/S)·delay/interval),
//
// where E is the edge share of the S total computing units. Only edge
// conflicts can beat an in-flight cloud block, which is why the edge
// share scales the conflict rate.
func BetaEdge(edgeUnits, totalUnits, delay, interval float64) float64 {
	if totalUnits <= 0 || edgeUnits <= 0 || delay <= 0 {
		return 0
	}
	return 1 - math.Exp(-(edgeUnits/totalUnits)*delay/interval)
}

// DelayForBeta inverts BetaEdge's all-network analogue: it returns the
// propagation delay that yields fork rate beta when the whole network's
// block rate is 1/interval (β = 1 − e^{−D/interval}). Used to pick a
// delay for experiments parameterized by β.
func DelayForBeta(beta, interval float64) float64 {
	if beta <= 0 {
		return 0
	}
	if beta >= 1 {
		return math.Inf(1)
	}
	return -interval * math.Log(1-beta)
}
