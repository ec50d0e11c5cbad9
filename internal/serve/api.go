// Package serve is the resident serving layer behind cmd/minegamed: a
// stdlib-net/http daemon exposing the repository's solvers as a
// batched JSON API (/v1/solve, /v1/price, /v1/certify) with one cache
// kept across requests, a single-flight marshaled-result cache, plus
// context cancellation threaded into the solver sweep loops and
// graceful drain on shutdown. Each two-stage solve memoizes its
// demand probes in its own per-solve core.DemandCache.
//
// The load-bearing invariant is purity: every cached value — marshaled
// responses, and the per-price demand probes inside a solve, each
// seeded at its own prices — is a pure function of its key, so cache
// reuse changes only how fast a request is answered, never what it is
// answered with. Responses are byte-identical to single-shot CLI
// solves at any worker count, batch composition, and cache state
// (pinned by the determinism tests).
//
// Concurrency ownership: this package is on the minelint concurrency
// allowlist (see internal/analysis.DefaultPackageSkips) — it owns the
// HTTP listener lifecycle, the single-flight caches, and drain
// signaling. Request handling is inherently concurrent; determinism is
// preserved by construction, not by serialization.
package serve

import (
	"encoding/json"
	"fmt"

	"minegame/internal/core"
	"minegame/internal/miner"
	"minegame/internal/netmodel"
)

// ClassSpec is one budget class of a class-compressed market.
type ClassSpec struct {
	// Budget is the per-miner budget shared by every member.
	Budget float64 `json:"budget"`
	// Count is the number of miners in the class.
	Count int `json:"count"`
}

// Market is one market configuration on the wire, mirroring the
// minegame CLI's flags: field for field, a Market solves exactly like
// the CLI invocation carrying the same values.
type Market struct {
	// N is the number of miners (ignored for classed markets, where
	// the class counts decide it).
	N int `json:"n,omitempty"`
	// Budget is the homogeneous per-miner budget B (the CLI's
	// -budget). Required for classed markets.
	Budget float64 `json:"budget,omitempty"`
	// Budgets lists heterogeneous per-miner budgets (length N);
	// overrides Budget when non-empty.
	Budgets []float64 `json:"budgets,omitempty"`
	// Reward is the mining reward R.
	Reward float64 `json:"reward"`
	// Beta is the blockchain fork rate β.
	Beta float64 `json:"beta"`
	// H is the connected ESP's satisfy probability h.
	H float64 `json:"h,omitempty"`
	// EMax is the standalone ESP's capacity E_max.
	EMax float64 `json:"emax,omitempty"`
	// CE and CC are the providers' unit operating costs.
	CE float64 `json:"ce"`
	CC float64 `json:"cc"`
	// Mode is "connected" (default) or "standalone".
	Mode string `json:"mode,omitempty"`
	// Classes, when non-empty, makes this a class-compressed market
	// solved by the O(K) classed solvers.
	Classes []ClassSpec `json:"classes,omitempty"`
}

// Item is one batch element: a market plus, for the endpoints that fix
// prices (/v1/solve, and /v1/certify at fixed prices), the price pair.
type Item struct {
	Market
	// PriceE and PriceC fix the providers' unit prices. Required for
	// /v1/solve; on /v1/certify they select the fixed-price follower
	// certificate instead of the full two-stage one; /v1/price ignores
	// them (the Stackelberg solve computes the prices).
	PriceE float64 `json:"pe,omitempty"`
	PriceC float64 `json:"pc,omitempty"`
}

// Request is the batched request body all three /v1 endpoints accept.
// Items are independent markets; the server multiplexes them over a
// deterministic worker pool, so the response is identical at any
// Workers value.
type Request struct {
	Items []Item `json:"items"`
	// Workers bounds the batch fan-out for this request: 0 picks the
	// server default, 1 forces sequential, and any value is capped at
	// the server's Config.Workers budget.
	Workers int `json:"workers,omitempty"`
}

// coreConfig converts the wire market into a solver configuration and,
// for classed markets, its population. The returned bool reports the
// classed family.
func (m Market) coreConfig() (core.Config, miner.ClassedPopulation, bool, error) {
	cfg := core.Config{
		N: m.N, Reward: m.Reward, Beta: m.Beta, SatisfyProb: m.H,
		EdgeCapacity: m.EMax, CostE: m.CE, CostC: m.CC,
	}
	switch m.Mode {
	case "", "connected":
		cfg.Mode = netmodel.Connected
	case "standalone":
		cfg.Mode = netmodel.Standalone
	default:
		return cfg, miner.ClassedPopulation{}, false, fmt.Errorf("unknown mode %q", m.Mode)
	}
	switch {
	case len(m.Budgets) > 0:
		cfg.Budgets = m.Budgets
	case m.Budget > 0:
		cfg.Budgets = []float64{m.Budget}
	}
	if len(m.Classes) == 0 {
		return cfg, miner.ClassedPopulation{}, false, nil
	}
	if m.Budget <= 0 {
		return cfg, miner.ClassedPopulation{}, false, fmt.Errorf("classed market needs a representative budget (set \"budget\")")
	}
	cs := make([]miner.Class, len(m.Classes))
	for i, c := range m.Classes {
		cs[i] = miner.Class{Budget: c.Budget, Count: c.Count}
	}
	cp, err := miner.FromClasses(cs)
	if err != nil {
		return cfg, cp, true, err
	}
	cfg.N = cp.N()
	cfg.Budgets = []float64{m.Budget}
	return cfg, cp, true, nil
}

// itemKey is the result-cache key for one batch item on one endpoint.
func itemKey(endpoint string, it Item) (string, error) {
	b, err := json.Marshal(it)
	if err != nil {
		return "", err
	}
	return endpoint + "\x00" + string(b), nil
}
