// Package verify independently certifies solver outputs of the mining
// game: given a configuration and a solved profile it re-derives, from
// the model primitives alone, everything an equilibrium must satisfy —
// per-miner ε-Nash deviation bounds (the machine-checkable form of
// Algorithms 1–2's fixed points), budget/capacity feasibility residuals,
// the GNEP shared-multiplier consistency conditions, Theorem 1's
// winning-probability identities, and (for full Stackelberg results) the
// leaders' first-order residuals on the price stage.
//
// The package deliberately shares no solver internals: certificates are
// built from the public best-response and utility oracles, so a bug in
// an iterating solver cannot silently certify its own output. Every
// certificate is a plain data value with JSON encoding, suitable for
// logging next to the result it vouches for.
package verify

import (
	"fmt"
	"math"
	"strings"

	"minegame/internal/core"
	"minegame/internal/miner"
	"minegame/internal/netmodel"
	"minegame/internal/numeric"
	"minegame/internal/obs"
)

// Fixed certification tolerances.
const (
	// feasibilityTol is the relative feasibility tolerance on the
	// budget, the non-negativity and the shared-capacity constraints.
	feasibilityTol = 1e-6
	// probTol bounds the winning-probability identity residuals
	// (Theorem 1 and the connected-mode mass identity).
	probTol = 1e-6
	// slackTol bounds the standalone shared-capacity residuals: the
	// relative overshoot E − E_max of the profile, and the
	// complementary slackness of the multiplier (with μ > 0 the
	// capacity must clear to within slackTol·E_max). The variational
	// solver's own market-clearing tolerance is 1e-4·E_max, in either
	// direction.
	slackTol = 1e-3
	// leaderMove is the relative price perturbation used for the
	// leader first-order residuals, and leaderGainTol the relative
	// profit gain tolerated at the probes.
	leaderMove    = 1e-2
	leaderGainTol = 2e-2
)

// Options tunes certification tolerances. The zero value picks defaults
// calibrated so every equilibrium the iterating solvers produce at their
// default tolerances certifies cleanly, while a strategy perturbation
// visible at the third significant digit is flagged.
type Options struct {
	// GainTol bounds each miner's best-response gain RELATIVE to its
	// stake max(R·W_i, spend_i, R/N) — its expected reward, its spend,
	// or an even share of the reward, whichever is largest: the profile
	// is accepted as an ε-Nash equilibrium when every gain_i ≤
	// GainTol·max(R·W_i, spend_i, R/N). Default 1e-4.
	GainTol float64
	// ConsistTol is the relative tolerance on internal consistency of a
	// result struct (reported utilities, aggregates and profits vs
	// recomputation). Default 1e-9.
	ConsistTol float64
	// SkipLeader drops the leader checks entirely (they re-solve the
	// follower subgame at each probe, which costs a few
	// miner-equilibrium solves).
	SkipLeader bool
	// Observer receives certification telemetry: one
	// "verify.certificates_total" tick and a "verify.epsilon_rel" sample
	// per certificate, a "verify.failures_total" tick plus a
	// "certificate_failed" anomaly (which arms the flight recorder's
	// postmortem dump) per failing one. Nil falls back to the process
	// default, which starts disabled — certification is silent unless
	// somebody is watching.
	Observer *obs.Observer
}

func (o Options) observer() *obs.Observer {
	if o.Observer != nil {
		return o.Observer
	}
	return obs.Default()
}

// recordCert reports one finished certificate to the observer.
func (o Options) recordCert(c Certificate) {
	ob := o.observer()
	if !ob.Enabled() {
		return
	}
	ob.Count("verify.certificates_total", 1)
	ob.Observe("verify.epsilon_rel", c.EpsilonRel)
	if c.OK {
		return
	}
	ob.Count("verify.failures_total", 1)
	bad := c.Failures()
	names := make([]string, len(bad))
	for i, ck := range bad {
		names[i] = ck.Name
	}
	ob.ReportAnomaly("certificate_failed", obs.Fields{
		"kind": c.Kind, "mode": c.Mode, "miners": c.N,
		"checks": strings.Join(names, ","), "epsilon_rel": c.EpsilonRel,
	})
}

func (o Options) withDefaults() Options {
	if o.GainTol <= 0 {
		o.GainTol = 1e-4
	}
	if o.ConsistTol <= 0 {
		o.ConsistTol = 1e-9
	}
	return o
}

// Check is one verified property: a named residual compared against its
// tolerance. Residuals are oriented so that larger is worse and zero is
// perfect; OK is Residual ≤ Tol.
type Check struct {
	Name     string  // e.g. "deviation", "budget", "capacity"
	Residual float64 // measured violation / identity error
	Tol      float64 // bound applied
	OK       bool
	Detail   string `json:",omitempty"` // human-readable context
}

// Certificate is an independently derived verdict on a solver output.
type Certificate struct {
	// Kind identifies what was certified: "miner_ne", "stackelberg",
	// "multiesp" or "population".
	Kind string
	Mode string `json:",omitempty"` // ESP operation mode, when applicable
	N    int    // miners
	// Epsilon is the worst per-miner unilateral best-response gain in
	// utility units; EpsilonRel is Epsilon relative to the reward R —
	// the ε of the ε-Nash claim.
	Epsilon    float64
	EpsilonRel float64
	// Gains holds the per-miner deviation gains behind Epsilon.
	Gains  []float64 `json:",omitempty"`
	Checks []Check
	OK     bool // conjunction of every check
}

// Failures returns the checks that did not pass.
func (c Certificate) Failures() []Check {
	var bad []Check
	for _, ck := range c.Checks {
		if !ck.OK {
			bad = append(bad, ck)
		}
	}
	return bad
}

// Err returns nil for a passing certificate and otherwise one error
// naming every failed check with its residual and tolerance.
func (c Certificate) Err() error {
	bad := c.Failures()
	if len(bad) == 0 {
		return nil
	}
	parts := make([]string, len(bad))
	for i, ck := range bad {
		parts[i] = fmt.Sprintf("%s residual %.6g > tol %.6g", ck.Name, ck.Residual, ck.Tol)
		if ck.Detail != "" {
			parts[i] += " (" + ck.Detail + ")"
		}
	}
	return fmt.Errorf("verify: %s certificate failed: %s", c.Kind, strings.Join(parts, "; "))
}

// add appends a check, deriving OK from residual ≤ tol. NaN residuals
// never pass: a certificate must not vouch for poisoned arithmetic.
func (c *Certificate) add(name string, residual, tol float64, detail string) {
	ok := residual <= tol && !math.IsNaN(residual)
	c.Checks = append(c.Checks, Check{Name: name, Residual: residual, Tol: tol, OK: ok, Detail: detail})
	if !ok {
		c.OK = false
	}
}

// Certify checks a solved miner-subgame equilibrium: the profile-level
// ε-Nash and feasibility certificate of CertifyProfile plus internal
// consistency of the MinerEquilibrium summary (reported aggregates,
// utilities, winning probabilities and the shared-capacity multiplier
// must match what the profile implies). The returned error reports
// malformed inputs only; the verification verdict is Certificate.OK.
func Certify(cfg core.Config, p core.Prices, eq core.MinerEquilibrium, opts Options) (Certificate, error) {
	cert, err := certify(cfg, p, eq, opts)
	if err == nil {
		opts.recordCert(cert)
	}
	return cert, err
}

// certify is Certify without the telemetry record, for wrappers that
// extend the certificate before reporting it exactly once.
func certify(cfg core.Config, p core.Prices, eq core.MinerEquilibrium, opts Options) (Certificate, error) {
	if err := profileInputs(cfg, p, eq.Requests); err != nil {
		return Certificate{}, err
	}
	return certifyMarket(cfg, p, exactMarket(cfg, p, eq.Requests), &eq, opts), nil
}

// CertifyProfile certifies a bare strategy profile at the given prices:
// per-miner ε-Nash deviation gains, budget and non-negativity residuals,
// the standalone shared-capacity residual, and Theorem 1's
// winning-probability identities (with cfg.Betas set, each miner is
// charged its own fork rate and every W_i is bounded to [0, 1]
// instead). It is the certificate core shared by
// every richer result shape (and the right entry point for profiles that
// carry no solver summary, e.g. an RL learner's greedy profile). The
// returned error reports malformed inputs only; the verification verdict
// is Certificate.OK.
func CertifyProfile(cfg core.Config, p core.Prices, prof miner.Profile, opts Options) (Certificate, error) {
	cert, err := certifyProfile(cfg, p, prof, opts)
	if err == nil {
		opts.recordCert(cert)
	}
	return cert, err
}

// certifyProfile is CertifyProfile without the telemetry record.
func certifyProfile(cfg core.Config, p core.Prices, prof miner.Profile, opts Options) (Certificate, error) {
	if err := profileInputs(cfg, p, prof); err != nil {
		return Certificate{}, err
	}
	return certifyMarket(cfg, p, exactMarket(cfg, p, prof), nil, opts), nil
}

// profileInputs validates the preconditions of the exact certificates:
// a valid config and price pair, and one request per miner.
func profileInputs(cfg core.Config, p core.Prices, prof miner.Profile) error {
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	if err := cfg.Params(p).Validate(); err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	if len(prof) != cfg.N {
		return fmt.Errorf("verify: profile has %d entries, config has %d miners", len(prof), cfg.N)
	}
	return nil
}

// market is a certificate's view of a solved follower market in
// weighted-type form: one request per type, type k standing for
// counts[k] identical miners with budget budget(k). The exact market is
// one type per miner with nil counts; a classed market weights each
// class representative by its count. gains holds the per-type deviation
// gains from the public best-response oracles, and text the wording of
// the certificate kind.
type market struct {
	reqs   []numeric.Point2
	counts []int
	budget func(k int) float64
	gains  []float64
	text   *certText
}

// certText is the wording one certificate kind gives its checks.
type certText struct {
	kind, budget, deviation, winprobFull, utilities, winprobs string
}

var exactText = certText{
	kind:        "miner_ne",
	budget:      "relative budget overspend max_i (spend_i - B_i)/(1 + B_i)",
	deviation:   "worst unilateral best-response gain relative to the miner's stake max(R·W_i, spend_i, R/N)",
	winprobFull: "Theorem 1: fully satisfied winning probabilities must sum to 1",
	utilities:   "reported vs recomputed miner utilities",
	winprobs:    "reported vs recomputed winning probabilities",
}

// exactMarket is the N-miner market of a bare profile.
func exactMarket(cfg core.Config, p core.Prices, prof []numeric.Point2) market {
	return market{reqs: prof, budget: cfg.Budget, gains: core.Deviations(cfg, p, prof), text: &exactText}
}

// weight is the number of miners type k stands for.
func (m market) weight(k int) float64 {
	if m.counts == nil {
		return 1
	}
	return float64(m.counts[k])
}

// certifyMarket is the one certificate body behind Certify,
// CertifyProfile and CertifyClassed. It checks the requests — per-type
// feasibility, the standalone shared capacity, ε-Nash deviation gains,
// and Theorem 1's winning-probability identities weighted by the type
// counts (with cfg.Betas set, each miner is charged its own fork rate
// and every W_i is bounded to [0, 1] instead) — and, when eq is
// non-nil, the internal consistency of the solver's summary: reported
// aggregates, utilities, winning probabilities and the shared-capacity
// multiplier must match what the requests imply. One member's checks
// certify every member of its type exactly, since all of them play the
// same request against the same environment. Inputs must be validated.
func certifyMarket(cfg core.Config, p core.Prices, m market, eq *core.MinerEquilibrium, opts Options) Certificate {
	opts = opts.withDefaults()
	params := cfg.Params(p)
	cert := Certificate{Kind: m.text.kind, Mode: cfg.Mode.String(), N: cfg.N, OK: true}

	// Feasibility residuals: every request in its polytope, and (in
	// standalone mode) the shared capacity respected jointly.
	var nonneg, budget float64
	var tot miner.Totals
	for k, r := range m.reqs {
		nonneg = math.Max(nonneg, math.Max(-r.E, -r.C))
		b := m.budget(k)
		if over := (params.Spend(r) - b) / (1 + b); over > budget {
			budget = over
		}
		w := m.weight(k)
		tot.Edge += w * r.E
		tot.Cloud += w * r.C
	}
	cert.add("nonneg", nonneg, feasibilityTol, "negative request coordinates")
	cert.add("budget", budget, feasibilityTol, m.text.budget)
	if cfg.Mode == netmodel.Standalone && !math.IsInf(cfg.EdgeCapacity, 1) {
		// The variational solver clears the shared market to 1e-4·E_max by
		// contract, so the overshoot bound is SlackTol, not the (tighter)
		// per-miner feasibility tolerance.
		cert.add("capacity", (tot.Edge-cfg.EdgeCapacity)/cfg.EdgeCapacity, slackTol,
			fmt.Sprintf("relative shared-capacity overshoot, E=%g E_max=%g", tot.Edge, cfg.EdgeCapacity))
	}

	// Each type's utility and winning probability in the mode's form
	// (Eq. 9 with the miner's own fork rate connected, Eq. 6 standalone).
	us := make([]float64, len(m.reqs))
	ws := make([]float64, len(m.reqs))
	for k, r := range m.reqs {
		pk := params
		if cfg.Betas != nil {
			pk.Beta = cfg.Betas[k]
		}
		env := tot.Env(r)
		if cfg.Mode == netmodel.Connected {
			us[k] = miner.UtilityConnected(pk, r, env)
			ws[k] = miner.WinProbConnected(pk.Beta, cfg.SatisfyProb, r, env)
		} else {
			us[k] = miner.UtilityStandalone(pk, r, env)
			ws[k] = miner.WinProbFull(pk.Beta, r, env)
		}
	}

	// ε-Nash: per-type best-response deviation gains, each bounded by
	// its type's stake (GainTol); Epsilon and EpsilonRel report the
	// largest gain in utility units and relative to R.
	var eps, worst float64
	for k, g := range m.gains {
		eps = math.Max(eps, g)
		worst = math.Max(worst, g/stake(cfg.Reward, cfg.N, ws[k], params.Spend(m.reqs[k])))
	}
	cert.Gains = m.gains
	cert.Epsilon = eps
	cert.EpsilonRel = eps / cfg.Reward
	cert.add("deviation", worst, opts.GainTol, m.text.deviation)

	// Theorem 1: the fully satisfied winning probabilities sum to one;
	// in connected mode the expected mass is (1−β) + βh·1{E > 0}. The
	// identities are scalar-β facts — with per-miner fork rates the fork
	// corrections no longer telescope — so a Betas market bounds each W_i
	// to [0, 1] instead.
	switch {
	case cfg.Betas != nil:
		var wRange float64
		for _, w := range ws {
			wRange = math.Max(wRange, math.Max(-w, w-1))
		}
		cert.add("winprob_range", wRange, probTol, "every W_i must lie in [0, 1] under per-miner betas")
	case tot.Edge+tot.Cloud > 0:
		var wFull, wConn float64
		for k, r := range m.reqs {
			w := m.weight(k)
			wFull += w * miner.WinProbFull(cfg.Beta, r, tot.Env(r))
			wConn += w * ws[k]
		}
		cert.add("winprob_sum_full", math.Abs(wFull-1), probTol, m.text.winprobFull)
		if cfg.Mode == netmodel.Connected {
			want := 1 - cfg.Beta
			if tot.Edge > 1e-12 {
				want += cfg.Beta * cfg.SatisfyProb
			}
			cert.add("winprob_sum_connected", math.Abs(wConn-want), probTol,
				"connected-mode mass identity ΣW = (1−β) + βh·1{E>0}")
		}
	}
	if eq == nil {
		return cert
	}

	// Aggregate consistency: the summary's E, C, S vs fresh summation.
	scale := 1 + math.Abs(tot.Edge) + math.Abs(tot.Cloud)
	aggRes := math.Max(math.Abs(tot.Edge-eq.EdgeDemand), math.Abs(tot.Cloud-eq.CloudDemand))
	aggRes = math.Max(aggRes, math.Abs(tot.Edge+tot.Cloud-eq.TotalDemand))
	cert.add("aggregates", aggRes/scale, opts.ConsistTol,
		fmt.Sprintf("reported E=%g C=%g S=%g", eq.EdgeDemand, eq.CloudDemand, eq.TotalDemand))

	// Reported utilities and winning probabilities vs recomputation.
	uRes, uScale := sliceResidual(us, eq.Utilities)
	cert.add("utilities", uRes/uScale, opts.ConsistTol, m.text.utilities)
	wRes, _ := sliceResidual(ws, eq.WinProbs)
	cert.add("winprobs_reported", wRes, opts.ConsistTol, m.text.winprobs)

	// GNEP shared-multiplier consistency (standalone only): μ ≥ 0, and a
	// strictly positive μ prices a BINDING capacity, so the market must
	// clear to within the slackness tolerance.
	if cfg.Mode == netmodel.Standalone {
		cert.add("multiplier_sign", math.Max(0, -eq.Multiplier), 0, "shared-capacity shadow price must be non-negative")
		if !math.IsInf(cfg.EdgeCapacity, 1) {
			slack := math.Max(0, cfg.EdgeCapacity-tot.Edge)
			res := 0.0
			if eq.Multiplier > opts.ConsistTol*params.PriceE {
				res = slack / cfg.EdgeCapacity
			}
			cert.add("multiplier_slackness", res, slackTol,
				fmt.Sprintf("mu=%g, capacity slack=%g", eq.Multiplier, slack))
		}
	}
	return cert
}

// stake is the scale a miner's deviation gain is judged against: the
// largest of its expected reward R·W, its spend and the even share R/N.
// A bound relative to R alone would exceed a miner's whole expected
// reward once N passes 1/GainTol.
func stake(reward float64, n int, w, spend float64) float64 {
	return math.Max(math.Max(reward*w, spend), reward/float64(n))
}

// sliceResidual returns the largest absolute difference between two
// equal-length slices and a scale (1 + largest magnitude seen) for
// relative comparison. Length mismatches return an infinite residual:
// a summary that lost entries cannot certify.
func sliceResidual(want, got []float64) (res, scale float64) {
	scale = 1
	if len(want) != len(got) {
		return math.Inf(1), scale
	}
	for i := range want {
		if d := math.Abs(want[i] - got[i]); d > res {
			res = d
		}
		if m := math.Abs(want[i]); m+1 > scale {
			scale = m + 1
		}
	}
	return res, scale
}

// NECertifier adapts Certify into a core.Certifier suitable for
// core.StackelbergOptions.CertifyAfterSolve and the experiment drivers'
// CertifyAfterSolve hooks: it returns nil exactly when the certificate
// passes.
func NECertifier(opts Options) core.Certifier {
	return func(cfg core.Config, p core.Prices, eq core.MinerEquilibrium) error {
		cert, err := Certify(cfg, p, eq, opts)
		if err != nil {
			return err
		}
		return cert.Err()
	}
}
