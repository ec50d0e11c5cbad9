package expo

// DefaultHelp maps the repository's stable metric names (raw,
// pre-sanitization) to their HELP text. Span-duration histograms
// ("<span>.ms") and other dynamically named series render without HELP,
// which the exposition format permits.
var DefaultHelp = map[string]string{
	// core: two-stage Stackelberg solver.
	"core.demand_probes_total":         "Follower demand-oracle evaluations during leader price search",
	"core.demand_memo_hits_total":      "Demand-oracle probes answered from the single-flight memo",
	"core.clearing_price_solves_total": "Market-clearing edge-price computations in the standalone SP stage",
	"core.warm_start_distance":         "Distance from each demand probe's start totals (E, C), the seed at its prices or the chained warm start, to its solved totals, relative to the latter",
	// game: iterative equilibrium solvers.
	"game.sweeps_total":        "Best-response sweeps and share-function passes across all solvers",
	"game.sweep_delta":         "Per-sweep largest strategy change (convergence residual)",
	"game.contraction_rate":    "Estimated geometric convergence factor per solve",
	"game.leader_rounds_total": "Leader-stage asynchronous best-response rounds",
	// miner: per-miner best responses.
	"miner.best_response_calls_total": "Best-response oracle invocations",
	"miner.kkt_warm_hits_total":       "Best responses answered by the KKT warm-start fast path",
	"miner.kkt_analytic_hits_total":   "Best responses answered by the KKT kernel (closed forms and Newton faces)",
	// parallel: deterministic worker pool.
	"parallel.tasks_total":     "Tasks executed by the deterministic worker pools",
	"parallel.pool_size":       "High-water worker count across pools",
	"parallel.task_ms":         "Per-task execution time",
	"parallel.queue_wait_ms":   "Per-task queue wait before a worker picked it up",
	"parallel.map.ms":          "parallel.Map call duration",
	"core.stackelberg.ms":      "Full two-stage Stackelberg solve duration",
	"game.solve_ne.ms":         "Follower NE solve duration (share root or best-response iteration)",
	"game.solve_vgne.ms":       "Variational GNEP solve duration",
	"game.solve_ne.iterations": "Sweeps or share passes per NE solve",
	// chain: mining race simulator.
	"chain.blocks_mined_total":     "Canonical blocks appended to the ledger",
	"chain.blocks_solved_total":    "Block solutions found (including discarded fork losers)",
	"chain.forks_total":            "Mining rounds that ended in a fork race",
	"chain.blocks_discarded_total": "Fork-losing block solutions discarded",
	"chain.wins.edge_total":        "Mining rounds won by edge-served miners",
	"chain.wins.cloud_total":       "Mining rounds won by cloud-served miners",
	"chain.round_duration_s":       "Simulated duration of each mining round",
	"chain.max_rivals_per_round":   "High-water count of rival solutions in one round",
	"chain.height":                 "Current ledger height",
	"chain.virtual_time_s":         "Simulated clock of the chain network",
	// rl: bandit training.
	"rl.episodes_total":          "RL training episodes completed",
	"rl.episode_reward":          "Mean per-episode reward across the learner pool",
	"rl.regret_vs_greedy_reward": "Per-episode reward gap to the greedy oracle policy",
	"rl.epsilon":                 "Current exploration rate",
	// verify: independent equilibrium certificates.
	"verify.certificates_total": "Equilibrium certificates checked",
	"verify.failures_total":     "Certificates whose residuals exceeded tolerance",
	"verify.epsilon_rel":        "Certified worst-case deviation gain relative to the reward R",
	// obs: the instrumentation layer itself.
	"obs.anomalies_total":   "Anomalies reported (non-converged solves, failed certificates, slow spans)",
	"obs.postmortems_total": "Flight-recorder postmortem bundles written",
	// serve: the resident warm-start serving daemon.
	"serve.requests_total":               "Batch requests received across the /v1 endpoints",
	"serve.request_errors_total":         "Requests rejected before solving (bad method, body, or batch size)",
	"serve.items_total":                  "Batch items resolved across all requests",
	"serve.item_errors_total":            "Batch items that resolved to an error",
	"serve.request_latency_ms":           "Per-request wall time across the /v1 endpoints",
	"serve.cache_hits_total":             "Demand-cache lookups answered from a stored or in-flight probe",
	"serve.cache_misses_total":           "Demand-cache lookups that ran a fresh follower solve",
	"serve.result_cache_hits_total":      "Item responses answered from the marshaled-result cache",
	"serve.result_cache_misses_total":    "Item responses that ran a solve",
	"serve.result_cache_evictions_total": "Marshaled responses dropped by the result-cache LRU bound",
}
