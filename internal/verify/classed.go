package verify

// Classed certificates: the O(K) ε-Nash / feasibility verdicts behind
// the mean-field compression layer. Because every member of a class
// plays the identical request against the identical environment, one
// deviation gain per class certifies all of its members EXACTLY — the
// certificate for a million-miner market costs K best responses, not N.
// CertifyExpandedSample complements that with a spot check on the
// actual O(N) expansion: it verifies the expansion is faithful to the
// representatives and re-derives a sampled subset of per-miner gains
// from the expanded rows alone.

import (
	"fmt"
	"math"

	"minegame/internal/core"
	"minegame/internal/miner"
	"minegame/internal/netmodel"
	"minegame/internal/numeric"
)

// CertifyClassed checks a solved classed miner-subgame equilibrium in
// O(K): per-class ε-Nash deviation gains (exact for every member),
// feasibility against the representative budgets, the weighted
// Theorem 1 winning-probability identities, internal consistency of
// the reported aggregates and per-class statistics, and the standalone
// shared-multiplier conditions. A population built by quantile binning
// certifies the BINNED game — its verdict transfers to the original
// budgets up to the population's BudgetSpread (DESIGN.md §12). The
// returned error reports malformed inputs only; the verification
// verdict is Certificate.OK.
func CertifyClassed(cfg core.Config, cp miner.ClassedPopulation, p core.Prices, eq core.ClassedEquilibrium, opts Options) (Certificate, error) {
	cert, err := certifyClassed(cfg, cp, p, eq, opts)
	if err == nil {
		opts.recordCert(cert)
	}
	return cert, err
}

func certifyClassed(cfg core.Config, cp miner.ClassedPopulation, p core.Prices, eq core.ClassedEquilibrium, opts Options) (Certificate, error) {
	if err := classedInputs(cfg, cp, p, len(eq.Requests)); err != nil {
		return Certificate{}, err
	}
	m := market{
		reqs:   eq.Requests,
		counts: cp.Counts(),
		budget: func(k int) float64 { return cp.Classes[k].Budget },
		gains:  core.DeviationsClassed(cfg, p, cp, eq.Requests),
		text:   &classedText,
	}
	sum := core.MinerEquilibrium{
		Requests:    eq.Requests,
		EdgeDemand:  eq.EdgeDemand,
		CloudDemand: eq.CloudDemand,
		TotalDemand: eq.TotalDemand,
		Utilities:   eq.Utilities,
		WinProbs:    eq.WinProbs,
		Multiplier:  eq.Multiplier,
	}
	return certifyMarket(cfg, p, m, &sum, opts), nil
}

var classedText = certText{
	kind:        "miner_ne_classed",
	budget:      "relative budget overspend max_k (spend_k - B_k)/(1 + B_k)",
	deviation:   "worst per-class best-response gain relative to the member's stake max(R·W_k, spend_k, R/N) (exact for all members)",
	winprobFull: "Theorem 1: weighted fully satisfied winning probabilities must sum to 1",
	utilities:   "reported vs recomputed per-class utilities",
	winprobs:    "reported vs recomputed per-class winning probabilities",
}

// CertifyExpandedSample certifies the O(N) EXPANSION of a classed
// equilibrium: it materializes the full profile, checks that the
// weighted class totals match an exact re-summation of all N rows, that
// the winning probabilities over the full expansion obey Theorem 1, and
// re-derives feasibility plus the ε-Nash deviation gain for an
// evenly-strided sample of individual miners straight from the expanded
// rows (sample ≤ 0 picks 64). This is the million-miner spot check: the
// per-class certificate already covers every miner exactly, so the
// sample's job is to catch a broken expansion, not to re-prove the
// equilibrium. The returned error reports malformed inputs only; the
// verification verdict is Certificate.OK.
func CertifyExpandedSample(cfg core.Config, cp miner.ClassedPopulation, p core.Prices, eq core.ClassedEquilibrium, sample int, opts Options) (Certificate, error) {
	if err := classedInputs(cfg, cp, p, len(eq.Requests)); err != nil {
		return Certificate{}, err
	}
	opts = opts.withDefaults()
	if sample <= 0 {
		sample = 64
	}
	if sample > cp.N() {
		sample = cp.N()
	}
	params := cfg.Params(p)
	cert := Certificate{Kind: "miner_ne_expanded_sample", Mode: cfg.Mode.String(), N: cfg.N, OK: true}

	prof := eq.Expand()
	cert.add("expansion_size", math.Abs(float64(len(prof)-cp.N())), 0,
		fmt.Sprintf("expanded %d rows for %d miners", len(prof), cp.N()))
	if len(prof) != cp.N() {
		return cert, nil // remaining checks need the full expansion
	}

	// Exact re-summation of all N rows vs the O(K) weighted totals.
	tot := cp.Aggregate(eq.Requests)
	full := prof.Aggregate()
	scale := 1 + math.Abs(full.Edge) + math.Abs(full.Cloud)
	aggRes := math.Max(math.Abs(full.Edge-tot.Edge), math.Abs(full.Cloud-tot.Cloud))
	// The weighted sum multiplies where the expansion adds N times, so
	// agreement is to summation roundoff, not bitwise: allow an N·ulp
	// cushion on top of the relative consistency tolerance.
	cert.add("totals_weighted_vs_expanded", aggRes/scale, opts.ConsistTol+float64(cp.N())*1e-16,
		fmt.Sprintf("weighted (%g, %g) vs expanded (%g, %g)", tot.Edge, tot.Cloud, full.Edge, full.Cloud))

	if full.Edge+full.Cloud > 0 {
		wFull := numeric.Sum(miner.WinProbsFull(cfg.Beta, prof))
		cert.add("winprob_sum_full", math.Abs(wFull-1), probTol,
			"Theorem 1 over the full expansion")
	}

	// Strided per-miner sample: each sampled row must be its class's
	// representative bit for bit, feasible for its budget, and unable to
	// gain more than ε by a unilateral best-response deviation.
	stride := cp.N() / sample
	if stride < 1 {
		stride = 1
	}
	var rowMismatch, nonneg, budget, eps, worst float64
	checked := 0
	for i := 0; i < cp.N() && checked < sample; i += stride {
		k := cp.ClassOf(i)
		own := prof[i]
		if own != eq.Requests[k] {
			rowMismatch++
		}
		nonneg = math.Max(nonneg, math.Max(-own.E, -own.C))
		b := cp.Classes[k].Budget
		if over := (params.Spend(own) - b) / (1 + b); over > budget {
			budget = over
		}
		env := tot.Env(own)
		var gain, w float64
		if cfg.Mode == netmodel.Connected {
			cur := miner.UtilityConnected(params, own, env)
			dev := miner.BestResponseConnected(params, b, env)
			gain = miner.UtilityConnected(params, dev, env) - cur
			w = miner.WinProbConnected(params.Beta, params.H, own, env)
		} else {
			cur := miner.UtilityStandalone(params, own, env)
			dev := miner.BestResponseStandalone(params, b, cfg.EdgeCapacity-env.EdgeOthers, env)
			gain = miner.UtilityStandalone(params, dev, env) - cur
			w = miner.WinProbFull(params.Beta, own, env)
		}
		eps = math.Max(eps, gain)
		worst = math.Max(worst, gain/stake(cfg.Reward, cfg.N, w, params.Spend(own)))
		checked++
	}
	cert.add("sample_rows_match", rowMismatch, 0,
		fmt.Sprintf("%d of %d sampled rows differ from their class representative", int(rowMismatch), checked))
	cert.add("nonneg", nonneg, feasibilityTol, "negative request coordinates in the sample")
	cert.add("budget", budget, feasibilityTol, "relative budget overspend across the sample")
	cert.Epsilon = eps
	cert.EpsilonRel = eps / cfg.Reward
	cert.add("deviation", worst, opts.GainTol,
		fmt.Sprintf("worst best-response gain over %d sampled miners, relative to each one's stake max(R·W_i, spend_i, R/N)", checked))
	opts.recordCert(cert)
	return cert, nil
}

// classedInputs validates the shared preconditions of the classed
// certificates.
func classedInputs(cfg core.Config, cp miner.ClassedPopulation, p core.Prices, reps int) error {
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	if cfg.Betas != nil {
		return fmt.Errorf("verify: classed certificates do not support per-miner fork rates (Config.Betas)")
	}
	if err := cfg.Params(p).Validate(); err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	if err := cp.Validate(); err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	if cp.N() != cfg.N {
		return fmt.Errorf("verify: classed population has %d miners, config has %d", cp.N(), cfg.N)
	}
	if reps != cp.K() {
		return fmt.Errorf("verify: equilibrium has %d representatives, population has %d classes", reps, cp.K())
	}
	return nil
}

// ClassedNECertifier adapts CertifyClassed into a core.ClassedCertifier
// for core.StackelbergOptions.CertifyClassedAfterSolve: it returns nil
// exactly when the certificate passes.
func ClassedNECertifier(opts Options) core.ClassedCertifier {
	return func(cfg core.Config, cp miner.ClassedPopulation, p core.Prices, eq core.ClassedEquilibrium) error {
		cert, err := CertifyClassed(cfg, cp, p, eq, opts)
		if err != nil {
			return err
		}
		return cert.Err()
	}
}
