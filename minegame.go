// Package minegame is a faithful, self-contained reproduction of
// "Hierarchical Edge-Cloud Computing for Mobile Blockchain Mining Game"
// (Jiang, Li, Wu — ICDCS 2019): a multi-leader multi-follower Stackelberg
// game between an edge service provider (ESP), a cloud service provider
// (CSP) and a population of mobile proof-of-work miners.
//
// The package is a facade over the internal implementation:
//
//   - Game solvers: miner-subgame equilibria for the connected-mode NEP
//     and the standalone-mode GNEP, and the full two-stage Stackelberg
//     solves (Algorithms 1–2 of the paper).
//   - Closed forms: the homogeneous-miner solutions of Theorem 3,
//     Corollary 1 and Table II, plus the standalone market-clearing and
//     CSP pricing formulas.
//   - Population uncertainty: the dynamic-miner-number scenario of §V
//     with Gaussian miner counts.
//   - Substrates: a proof-of-work mining race simulator with fork
//     accounting, an edge-cloud service network, and a reinforcement
//     learning framework reproducing the paper's §VI-C validation.
//   - Experiments: runners regenerating every figure and table of the
//     paper's evaluation.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for
// paper-vs-measured outcomes.
package minegame

import (
	"io"
	"math/rand"

	"minegame/internal/chain"
	"minegame/internal/chain/topo"
	"minegame/internal/core"
	"minegame/internal/experiments"
	"minegame/internal/game"
	"minegame/internal/miner"
	"minegame/internal/multiesp"
	"minegame/internal/netmodel"
	"minegame/internal/numeric"
	"minegame/internal/obs"
	"minegame/internal/parallel"
	"minegame/internal/population"
	"minegame/internal/rl"
	"minegame/internal/serve"
	"minegame/internal/sim"
	"minegame/internal/verify"
)

// Request is a miner's request vector: E edge units and C cloud units.
type Request = numeric.Point2

// Mode is the ESP operation mode.
type Mode = netmodel.Mode

// ESP operation modes.
const (
	// Connected transfers overload to the CSP with probability 1−h.
	Connected = netmodel.Connected
	// Standalone rejects overload beyond the capacity E_max.
	Standalone = netmodel.Standalone
)

// Game configuration and solvers (package core).
type (
	// Config describes one instance of the mining game.
	Config = core.Config
	// Prices is an (ESP, CSP) unit price pair.
	Prices = core.Prices
	// MinerEquilibrium is a solved miner subgame.
	MinerEquilibrium = core.MinerEquilibrium
	// StackelbergOptions tunes the two-stage solver.
	StackelbergOptions = core.StackelbergOptions
	// StackelbergResult is a solved two-stage game.
	StackelbergResult = core.StackelbergResult
	// ModeComparison contrasts the two ESP operation modes.
	ModeComparison = core.ModeComparison
	// NEOptions tunes an equilibrium solve; MaxIter, Tol, Damping and
	// Jacobi apply only to best-response iteration (SolveMinerGNE), not
	// to the share-function root of SolveMinerEquilibrium.
	NEOptions = game.NEOptions
)

// SolveMinerEquilibrium computes the miner-subgame equilibrium at fixed
// prices: the unique NEP solution in connected mode (Theorem 2), the
// variational GNEP solution in standalone mode (Theorem 5), each as the
// root of the share equations in the totals (E, S).
func SolveMinerEquilibrium(cfg Config, p Prices, opts NEOptions) (MinerEquilibrium, error) {
	return core.SolveMinerEquilibrium(cfg, p, opts)
}

// SolveMinerGNE computes a standalone-mode generalized Nash equilibrium
// in the paper's Algorithm 2 style (miners self-limit to the capacity the
// others left over).
func SolveMinerGNE(cfg Config, p Prices, opts NEOptions) (MinerEquilibrium, error) {
	return core.SolveMinerGNE(cfg, p, opts)
}

// SolveStackelberg runs backward induction on the full two-stage game,
// under per-miner fork rates when cfg.Betas is set (connected mode).
func SolveStackelberg(cfg Config, opts StackelbergOptions) (StackelbergResult, error) {
	return core.SolveStackelberg(cfg, opts)
}

// CompareModes solves the full game in both ESP operation modes.
func CompareModes(cfg Config, opts StackelbergOptions) (ModeComparison, error) {
	return core.CompareModes(cfg, opts)
}

// Deviation returns the largest utility gain any miner can achieve by a
// unilateral deviation from the profile (≈0 at equilibrium). A profile
// whose length is not cfg.N reports +Inf.
func Deviation(cfg Config, p Prices, prof []Request) float64 {
	return core.Deviation(cfg, p, prof)
}

// Extensions beyond the paper (see DESIGN.md §2).
type (
	// SelfConsistentResult is a subgame solved with the physically
	// consistent fork rate β* = BetaEdge(E*, S*, D, τ).
	SelfConsistentResult = core.SelfConsistentResult
	// EndogenousTransferResult is a connected-mode subgame solved with
	// the Erlang-B congestion equilibrium h* = 1 − B(capacity, E*).
	EndogenousTransferResult = core.EndogenousTransferResult
	// DifficultyConfig parameterizes the retargeting control loop.
	DifficultyConfig = chain.DifficultyConfig
	// EpochStats describes one retargeting window.
	EpochStats = chain.EpochStats
)

// SolveSelfConsistentBeta solves the miner subgame with the fork rate
// re-derived from the equilibrium allocation until the fixed point
// β* = BetaEdge(E(β*), S(β*), delay, interval) is reached.
func SolveSelfConsistentBeta(cfg Config, p Prices, delay, interval float64, opts NEOptions) (SelfConsistentResult, error) {
	return core.SolveSelfConsistentBeta(cfg, p, delay, interval, opts)
}

// SolveEndogenousTransfer solves the connected-mode subgame with the
// transfer probability derived from the ESP's physical capacity through
// the Erlang-B loss formula.
func SolveEndogenousTransfer(cfg Config, p Prices, capacity float64, opts NEOptions) (EndogenousTransferResult, error) {
	return core.SolveEndogenousTransfer(cfg, p, capacity, opts)
}

// ErlangB is the blocking probability of an M/M/c/c loss system — the
// endogenous source of the connected ESP's transfer rate 1−h.
func ErlangB(servers, offered float64) (float64, error) {
	return netmodel.ErlangB(servers, offered)
}

// SimulateDifficulty runs the proof-of-work retargeting control loop that
// justifies the game's constant block interval under changing hash power.
func SimulateDifficulty(cfg DifficultyConfig, powerAt func(epoch int) float64, epochs int, seed int64) ([]EpochStats, error) {
	return chain.SimulateDifficulty(cfg, powerAt, epochs, sim.NewRNG(seed, "minegame.Difficulty"))
}

// Multi-ESP extension (package multiesp): K edge providers with distinct
// prices and reliabilities competing alongside the cloud.
type (
	// MultiESPConfig is a K-edge-provider game instance.
	MultiESPConfig = multiesp.Config
	// MultiESPOffer is one edge provider's (price, reliability) offer.
	MultiESPOffer = multiesp.ESP
	// MultiESPEquilibrium is a solved multi-ESP miner subgame.
	MultiESPEquilibrium = multiesp.Equilibrium
)

// SolveMultiESP computes the miner equilibrium of the K-edge-provider
// extension; at K = 1 it reproduces the paper's connected-mode game.
func SolveMultiESP(cfg MultiESPConfig) (MultiESPEquilibrium, error) {
	return multiesp.Solve(cfg)
}

// Miner-level API (package miner).
type (
	// MinerParams are the game constants a miner observes.
	MinerParams = miner.Params
	// HomogeneousSolution is a symmetric closed-form equilibrium.
	HomogeneousSolution = miner.HomogeneousSolution
)

// HomogeneousConnected is the closed-form symmetric equilibrium of the
// connected-mode subgame (Theorem 3 / Corollary 1).
func HomogeneousConnected(p MinerParams, n int, budget float64) (HomogeneousSolution, error) {
	return miner.HomogeneousConnected(p, n, budget)
}

// HomogeneousStandalone is the closed-form symmetric variational
// equilibrium of the standalone subgame (Table II).
func HomogeneousStandalone(p MinerParams, n int, edgeCapacity float64) (HomogeneousSolution, error) {
	return miner.HomogeneousStandalone(p, n, edgeCapacity)
}

// ClearingPriceEdge is the standalone ESP's market-clearing price.
func ClearingPriceEdge(reward, beta, priceC float64, n int, edgeCapacity float64) float64 {
	return miner.ClearingPriceEdge(reward, beta, priceC, n, edgeCapacity)
}

// OptimalPriceCloudStandalone is the CSP's closed-form optimal price when
// the standalone ESP sells out (Table II SP stage).
func OptimalPriceCloudStandalone(reward, beta, costC float64, n int, edgeCapacity float64) float64 {
	return miner.OptimalPriceCloudStandalone(reward, beta, costC, n, edgeCapacity)
}

// WinProbsFull evaluates Eq. 6 for a full request profile; the values sum
// to one (Theorem 1).
func WinProbsFull(beta float64, profile []Request) []float64 {
	return miner.WinProbsFull(beta, profile)
}

// Population uncertainty (package population, §V).
type (
	// PopulationModel is the Gaussian miner-count model.
	PopulationModel = population.Model
	// PopulationEquilibrium is a symmetric dynamic-population equilibrium.
	PopulationEquilibrium = population.Equilibrium
	// PopulationOptions selects the expected utility's degraded form
	// (DegradedTransfer, Eq. 7, by default; or DegradedReject, Eq. 8).
	PopulationOptions = population.SolveOptions
	// MinerCountPMF is a discrete miner-count distribution; build one
	// with PopulationModel.PMF or FixedPopulation.
	MinerCountPMF = numeric.DiscretePMF
)

// Degraded selects the expected utility's branch for the (1−h) share of
// rounds the ESP cannot serve (PopulationOptions.Form).
type Degraded = population.Degraded

const (
	// DegradedTransfer moves the edge request to the cloud (Eq. 7, the
	// form the paper's Eq. 26 prints); it is the zero-value default.
	DegradedTransfer = population.DegradedTransfer
	// DegradedReject drops the edge request and its computing power from
	// the network (Eq. 8, §V's stated mode).
	DegradedReject = population.DegradedReject
)

// FixedPopulation is the point miner-count distribution (the fixed-N
// baseline evaluated through the same expected-utility machinery).
func FixedPopulation(n int) MinerCountPMF { return population.Degenerate(n) }

// SolvePopulationEquilibrium solves the homogeneous dynamic-population
// game (Problem 1d) for the given miner-count distribution.
func SolvePopulationEquilibrium(p MinerParams, pmf MinerCountPMF, budget float64, opts PopulationOptions) (PopulationEquilibrium, error) {
	return population.SymmetricEquilibrium(p, pmf, budget, opts)
}

// Mean-field class compression (DESIGN.md §12): miners sharing a budget
// are interchangeable in the aggregative subgame, so a population of N
// miners collapses into K budget classes weighted by their counts —
// O(K) work per pass of the share root — and million-miner markets clear in
// the time the exact solver needs for a thousand miners.
type (
	// MinerClass is one (budget, count) group of identical miners.
	MinerClass = miner.Class
	// ClassedPopulation is a miner population in compressed class form;
	// build one with ClassifyBudgets, MinersFromClasses or
	// Config.Classes.
	ClassedPopulation = miner.ClassedPopulation
	// ClassedEquilibrium is a solved miner subgame in compressed form —
	// one representative request per class; Expand materializes the full
	// profile.
	ClassedEquilibrium = core.ClassedEquilibrium
	// ClassedStackelbergResult is a solved two-stage game over a classed
	// population.
	ClassedStackelbergResult = core.ClassedStackelbergResult
	// PopulationStream is an evolving classed population: arrivals and
	// departures mutate class counts between pricing periods.
	PopulationStream = population.Stream
	// PopulationStreamConfig parameterizes the arrival/departure process.
	PopulationStreamConfig = population.StreamConfig
	// PopulationPeriod is one pricing period of a streaming run.
	PopulationPeriod = population.PeriodPoint
)

// ClassifyBudgets compresses a budget vector into a classed population:
// exact deduplication, falling back to quantile binning when the
// distinct budgets exceed maxClasses (≤ 0 means no cap). The
// population's BudgetSpread reports the worst within-class budget
// distance introduced by binning.
func ClassifyBudgets(budgets []float64, maxClasses int) ClassedPopulation {
	return miner.ClassifyQuantile(budgets, maxClasses)
}

// MinersFromClasses builds a classed population directly from (budget,
// count) pairs, never materializing per-miner state.
func MinersFromClasses(classes []MinerClass) (ClassedPopulation, error) {
	return miner.FromClasses(classes)
}

// SolveMinerEquilibriumClassed computes the miner-subgame equilibrium
// over a classed population at fixed prices in O(K) per pass; cfg.N
// must equal cp.N().
func SolveMinerEquilibriumClassed(cfg Config, cp ClassedPopulation, p Prices, opts NEOptions) (ClassedEquilibrium, error) {
	return core.SolveMinerEquilibriumClassed(cfg, cp, p, opts)
}

// SolveStackelbergClassed runs backward induction on the full two-stage
// game with the miner subgame compressed into classes: every
// leader-stage price probe clears the classed follower market.
func SolveStackelbergClassed(cfg Config, cp ClassedPopulation, opts StackelbergOptions) (ClassedStackelbergResult, error) {
	return core.SolveStackelbergClassed(cfg, cp, opts)
}

// NewPopulationStream creates a streaming classed population; Step
// advances one period of churn and SolvePeriods runs the full
// simulate-then-price loop.
func NewPopulationStream(classes []MinerClass, cfg PopulationStreamConfig, seed int64) (*PopulationStream, error) {
	return population.NewStream(classes, cfg, sim.NewRNG(seed, "minegame.PopulationStream"))
}

// Blockchain substrate (package chain).
type (
	// RaceConfig parameterizes the proof-of-work mining race.
	RaceConfig = chain.RaceConfig
	// Allocation is a miner's hash power split across providers.
	Allocation = chain.Allocation
	// WinStats aggregates simulated mining rounds.
	WinStats = chain.WinStats
	// Ledger is the fork-aware block store.
	Ledger = chain.Ledger
	// MiningNetwork grows a ledger one round race at a time.
	MiningNetwork = chain.Network
)

// SimulateRounds plays n independent mining races.
func SimulateRounds(cfg RaceConfig, n int, seed int64) (WinStats, error) {
	return chain.SimulateRounds(cfg, n, sim.NewRNG(seed, "minegame.SimulateRounds"))
}

// NewMiningNetwork creates an event-driven chain-growth simulation.
func NewMiningNetwork(cfg RaceConfig, seed int64) (*MiningNetwork, error) {
	return chain.NewNetwork(cfg, sim.NewRNG(seed, "minegame.MiningNetwork"))
}

// CollisionCDF is the fork (split) rate induced by a propagation delay.
func CollisionCDF(delay, interval float64) float64 {
	return chain.CollisionCDF(delay, interval)
}

// BetaEdge is the fork-rate parameter under which Eq. 6 is exact for the
// physical mining race.
func BetaEdge(edgeUnits, totalUnits, delay, interval float64) float64 {
	return chain.BetaEdge(edgeUnits, totalUnits, delay, interval)
}

// DelayForBeta inverts the all-network fork rate to a propagation delay.
func DelayForBeta(beta, interval float64) float64 {
	return chain.DelayForBeta(beta, interval)
}

// Edge-cloud service substrate (package netmodel).
type (
	// ServiceNetwork bundles the two providers.
	ServiceNetwork = netmodel.Network
	// ServiceRequest is a request vector bound to a miner ID.
	ServiceRequest = netmodel.Request
	// ServiceOutcome is one serviced request.
	ServiceOutcome = netmodel.Outcome
)

// Reinforcement learning framework (package rl, §VI-C).
type (
	// Learner is a stateless bandit.
	Learner = rl.Learner
	// Trainer runs repeated rounds with a stochastic population.
	Trainer = rl.Trainer
	// ActionGrid is the discretized request space.
	ActionGrid = rl.ActionGrid
	// Environment maps joint requests to per-miner payoffs.
	Environment = rl.Environment
	// ModelEnv pays the paper's expected utilities.
	ModelEnv = rl.ModelEnv
	// ChainEnv pays realized utilities from simulated mining races.
	ChainEnv = rl.ChainEnv
	// EpsilonGreedyConfig tunes the default learner.
	EpsilonGreedyConfig = rl.EpsilonGreedyConfig
)

// NewActionGrid discretizes the affordable request space.
func NewActionGrid(priceE, priceC, budget float64, nE, nC int) (ActionGrid, error) {
	return rl.NewActionGrid(priceE, priceC, budget, nE, nC)
}

// NewEpsilonGreedy creates the framework's default learner.
func NewEpsilonGreedy(nActions int, cfg EpsilonGreedyConfig) (Learner, error) {
	return rl.NewEpsilonGreedy(nActions, cfg)
}

// NewTrainer assembles a learning loop; pmf draws the per-round miner
// count (use FixedPopulation for a fixed one).
func NewTrainer(grid ActionGrid, env Environment, pmf MinerCountPMF, learners []Learner, seed int64) (*Trainer, error) {
	return rl.NewTrainer(grid, env, pmf, learners, sim.NewRNG(seed, "minegame.Trainer"))
}

// Experiments (package experiments).
type (
	// Experiment regenerates one paper figure or table.
	Experiment = experiments.Runner
	// ExperimentConfig tunes experiment scale.
	ExperimentConfig = experiments.Config
	// ExperimentResult is an experiment's output tables.
	ExperimentResult = experiments.Result
	// ResultTable is one numeric series of an experiment.
	ResultTable = experiments.Table
)

// Experiments lists every registered experiment in presentation order.
func Experiments() []Experiment { return experiments.All() }

// RunExperiment regenerates one paper artifact by ID (e.g. "fig4").
// When the default observer is enabled, each run records a span plus a
// wall-time/solver-work note on its first table.
func RunExperiment(id string, cfg ExperimentConfig) (ExperimentResult, error) {
	r, err := experiments.ByID(id)
	if err != nil {
		return ExperimentResult{}, err
	}
	return experiments.RunObserved(r, cfg, nil)
}

// ReplicateExperiment runs an experiment across nSeeds consecutive seeds
// and returns per-cell mean and standard-deviation tables — error bars
// for the stochastic artifacts.
func ReplicateExperiment(id string, cfg ExperimentConfig, nSeeds int) (ExperimentResult, error) {
	r, err := experiments.ByID(id)
	if err != nil {
		return ExperimentResult{}, err
	}
	return experiments.Replicate(r, cfg, nSeeds)
}

// PlotResultTable renders an experiment table as an ASCII chart (every
// numeric column against the first), for terminal-only environments.
func PlotResultTable(w io.Writer, tab ResultTable) error {
	return experiments.PlotTable(w, tab)
}

// Gossip overlay (package chain/topo): peer-graph block propagation,
// the mechanism behind the paper's Fig. 2 delays.
type (
	// GossipConfig parameterizes a random peer-to-peer overlay.
	GossipConfig = topo.GossipConfig
	// GossipNetwork is the overlay: a unit-hashrate peer graph.
	GossipNetwork = Topology
)

// NewGossipNetwork builds a random overlay with the given seed.
func NewGossipNetwork(cfg GossipConfig, seed int64) (*GossipNetwork, error) {
	return topo.Gossip(cfg, sim.NewRNG(seed, "minegame.Gossip"))
}

// GossipRNG derives the random stream used for gossip delay sampling, so
// callers can reproduce PropagationDelay estimates.
func GossipRNG(seed int64) *rand.Rand {
	return sim.NewRNG(seed, "minegame.GossipSample")
}

// Selfish mining (package chain): the Eyal–Sirer withholding strategy on
// the proof-of-work substrate, used to bound the honest-miner assumption
// behind Theorem 1.
type (
	// SelfishConfig parameterizes a selfish-mining simulation.
	SelfishConfig = chain.SelfishConfig
	// SelfishStats summarizes a selfish-mining run.
	SelfishStats = chain.SelfishStats
)

// SimulateSelfishMining runs the withholding strategy block by block.
func SimulateSelfishMining(cfg SelfishConfig, seed int64) (SelfishStats, error) {
	return chain.SimulateSelfishMining(cfg, sim.NewRNG(seed, "minegame.Selfish"))
}

// SelfishRevenueShare is the Eyal–Sirer closed-form relative revenue.
func SelfishRevenueShare(alpha, gamma float64) float64 {
	return chain.SelfishRevenueShare(alpha, gamma)
}

// SelfishThreshold is the pool share above which withholding beats
// honest mining: (1−γ)/(3−2γ).
func SelfishThreshold(gamma float64) float64 { return chain.SelfishThreshold(gamma) }

// NewGradientBandit creates a softmax gradient-bandit learner.
func NewGradientBandit(nActions int, alpha float64) (Learner, error) {
	return rl.NewGradientBandit(nActions, alpha)
}

// NewUCB1 creates an upper-confidence-bound learner.
func NewUCB1(nActions int, c, rewardScale float64) (Learner, error) {
	return rl.NewUCB1(nActions, c, rewardScale)
}

// NewExp3 creates an exponential-weights adversarial-bandit learner.
func NewExp3(nActions int, gamma, rewardScale float64) (Learner, error) {
	return rl.NewExp3(nActions, gamma, rewardScale)
}

// Observability layer (package obs): a zero-dependency metrics registry
// (counters, gauges, quantile histograms), named spans, and a JSONL
// trace sink, threaded through every iterative solver and simulator.
// Solvers accept an Observer via their options (e.g. NEOptions.Observer,
// StackelbergOptions.Observer) or fall back to the process default,
// which starts disabled and costs one atomic check per hot-loop probe.
type (
	// Observer is the metrics registry + trace sink handle.
	Observer = obs.Observer
	// ObserverFields is the structured payload on trace events/spans.
	ObserverFields = obs.Fields
	// ObserverSnapshot is a point-in-time copy of the registry.
	ObserverSnapshot = obs.Snapshot
	// ObserverSpan is a timed region recorded by an Observer.
	ObserverSpan = obs.Span
)

// NewObserver returns an enabled observer with no trace sink; attach one
// with SetTrace to stream JSONL convergence traces.
func NewObserver() *Observer { return obs.New() }

// DefaultObserver returns the process-wide observer instrumented code
// falls back to. It starts disabled.
func DefaultObserver() *Observer { return obs.Default() }

// SetDefaultObserver installs o as the process-wide observer and returns
// the previous one so callers can restore it.
func SetDefaultObserver(o *Observer) *Observer { return obs.SetDefault(o) }

// SetDefaultParallelism sets the process-default worker count used by
// every fork-join path whose options leave the count at 0 (leader price
// grids, Replicate's seed fan-out, experiment sweeps, gossip delay
// estimation) and returns the previous value so callers can restore it.
// 0 restores the GOMAXPROCS default; 1 forces sequential execution.
// Results are byte-identical at any setting (DESIGN.md §7).
func SetDefaultParallelism(n int) int { return parallel.SetDefaultWorkers(n) }

// DefaultParallelism reports the current process-default worker count.
func DefaultParallelism() int { return parallel.DefaultWorkers() }

// Serving layer (package serve): the resident warm-start daemon behind
// cmd/minegamed, exposing the solvers as a batched JSON API whose
// responses are byte-identical to single-shot solves (DESIGN.md §14).
type (
	// ServeConfig tunes the resident serving daemon.
	ServeConfig = serve.Config
	// ServeServer is the daemon: batched /v1 solver endpoints plus the
	// /metrics–/readyz telemetry surface, backed by one resident
	// single-flight result cache.
	ServeServer = serve.Server
	// DemandCache is a bounded, concurrency-safe, single-flight cache
	// of follower demand probes, each seeded at its own prices. It
	// admits probes up to its cap and never evicts; past the cap a new
	// price point is computed without being stored. It may be shared
	// across solves of the SAME market via
	// StackelbergOptions.DemandCache.
	DemandCache = core.DemandCache
	// DemandCacheStats is a point-in-time copy of a cache's counters.
	DemandCacheStats = core.DemandCacheStats
)

// ErrSolveCanceled is the sentinel wrapped into solver errors when the
// context on NEOptions.Ctx or StackelbergOptions.Ctx was canceled
// mid-solve; match it with errors.Is. Canceled work is never cached.
var ErrSolveCanceled = game.ErrCanceled

// NewDemandCache builds a warm-start cache that admits up to
// capEntries demand probes (0 picks the default of 4,096), registering
// its hit/miss series on ob (nil falls back to the process default
// observer).
func NewDemandCache(capEntries int, ob *Observer) *DemandCache {
	return core.NewDemandCache(capEntries, ob)
}

// NewServer builds a serving daemon; mount Handler on a listener or
// call Run.
func NewServer(cfg ServeConfig) (*ServeServer, error) { return serve.New(cfg) }

// ListenAndServe runs the serving daemon until SIGINT or SIGTERM, then
// drains gracefully. It is the whole body of cmd/minegamed.
func ListenAndServe(cfg ServeConfig) error { return serve.ListenAndServe(cfg) }

type (
	// VerifyOptions tunes certificate tolerances (zero value = defaults).
	VerifyOptions = verify.Options
	// VerifyCertificate is a machine-checkable verification verdict.
	VerifyCertificate = verify.Certificate
)

// Topology-aware fork model (package chain/topo): an event-driven race
// over an explicit peer graph with per-link delays measures an effective
// fork rate β_i per miner from its position in the network. Set the
// measured vector as Config.Betas and SolveStackelberg prices against
// the heterogeneous demand it induces.
type (
	// Topology is an explicit peer graph with per-link relay delays.
	Topology = topo.Topology
	// TopoNode is one mining peer: its hashrate and placement.
	TopoNode = topo.Node
	// TopoConfig parameterizes the topology fork race.
	TopoConfig = topo.Config
	// TopoResult reports per-miner fork rates and win shares with CIs.
	TopoResult = topo.Result
	// TopoMinerStats is one miner's race accounting.
	TopoMinerStats = topo.MinerStats
)

// Topology placements.
const (
	// TopoEdge marks a node co-located with the edge service.
	TopoEdge = topo.LocationEdge
	// TopoCloud marks a node placed behind the cloud path.
	TopoCloud = topo.LocationCloud
)

// NewTopology builds an empty peer graph over the given nodes; add links
// with AddLink/AddArc, or use the shape constructors below.
func NewTopology(nodes []TopoNode) *Topology { return topo.New(nodes) }

// TopoTwoNode is the two-node edge/cloud topology whose fork rate the
// analytic BetaEdge model describes — the cross-validation anchor.
func TopoTwoNode(edgeHash, cloudHash, upDelay, downDelay float64) (*Topology, error) {
	return topo.TwoNode(edgeHash, cloudHash, upDelay, downDelay)
}

// TopoStar builds a hub-and-spoke topology (node 0 is the hub).
func TopoStar(nodes []TopoNode, spokeDelays []float64) (*Topology, error) {
	return topo.Star(nodes, spokeDelays)
}

// TopoRing builds a cycle with uniform link delay.
func TopoRing(nodes []TopoNode, delay float64) (*Topology, error) {
	return topo.Ring(nodes, delay)
}

// TopoScaleFree builds a preferential-attachment graph with exponential
// link delays, deterministically from the seed.
func TopoScaleFree(nodes []TopoNode, attach int, meanDelay float64, seed int64) (*Topology, error) {
	return topo.ScaleFree(nodes, attach, meanDelay, sim.NewRNG(seed, "minegame.TopoScaleFree"))
}

// EstimateTopoBetas races the topology across replicas replicas and
// returns per-miner fork rates β_i and win shares with confidence
// intervals. The estimate is bit-identical at any parallelism setting.
func EstimateTopoBetas(t *Topology, cfg TopoConfig, seed int64, replicas int) (TopoResult, error) {
	return topo.EstimateReplicated(t, cfg, seed, replicas)
}

// CertifyStackelberg independently re-verifies a two-stage solution —
// including one solved under per-miner fork rates (Config.Betas) — and
// returns the machine-checkable certificate.
func CertifyStackelberg(cfg Config, res StackelbergResult, opts VerifyOptions) (VerifyCertificate, error) {
	return verify.CertifyStackelberg(cfg, res, opts)
}
