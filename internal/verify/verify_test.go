package verify

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"minegame/internal/core"
	"minegame/internal/game"
	"minegame/internal/miner"
	"minegame/internal/multiesp"
	"minegame/internal/netmodel"
	"minegame/internal/numeric"
	"minegame/internal/population"
	"minegame/internal/rl"
	"minegame/internal/sim"
)

func connectedConfig() core.Config {
	return core.Config{
		N: 5, Budgets: []float64{200}, Reward: 1000, Beta: 0.2, SatisfyProb: 0.7,
		Mode: netmodel.Connected, CostE: 2, CostC: 1,
	}
}

func standaloneConfig() core.Config {
	cfg := connectedConfig()
	cfg.Mode = netmodel.Standalone
	cfg.EdgeCapacity = 60
	return cfg
}

// connectedSummary returns every miner's connected-mode utility and win
// probability (Eq. 9) at the profile.
func connectedSummary(p miner.Params, prof miner.Profile) (us, ws []float64) {
	tot := prof.Aggregate()
	for _, r := range prof {
		env := tot.Env(r)
		us = append(us, miner.UtilityConnected(p, r, env))
		ws = append(ws, miner.WinProbConnected(p.Beta, p.H, r, env))
	}
	return us, ws
}

func checkByName(t *testing.T, cert Certificate, name string) Check {
	t.Helper()
	for _, c := range cert.Checks {
		if c.Name == name {
			return c
		}
	}
	t.Fatalf("certificate %q has no check named %q (checks: %+v)", cert.Kind, name, cert.Checks)
	return Check{}
}

func TestCertifyConnectedNE(t *testing.T) {
	cfg := connectedConfig()
	p := core.Prices{Edge: 8, Cloud: 4}
	eq, err := core.SolveMinerEquilibrium(cfg, p, game.NEOptions{})
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	cert, err := Certify(cfg, p, eq, Options{})
	if err != nil {
		t.Fatalf("certify: %v", err)
	}
	if !cert.OK {
		t.Fatalf("connected NE failed certification: %v", cert.Err())
	}
	if cert.Kind != "miner_ne" || cert.N != cfg.N {
		t.Errorf("certificate header = %q/%d, want miner_ne/%d", cert.Kind, cert.N, cfg.N)
	}
	if cert.EpsilonRel > 1e-10 {
		t.Errorf("converged solver should be essentially exact, EpsilonRel = %g", cert.EpsilonRel)
	}
	if len(cert.Gains) != cfg.N {
		t.Errorf("want %d per-miner gains, got %d", cfg.N, len(cert.Gains))
	}
	if err := cert.Err(); err != nil {
		t.Errorf("Err on passing certificate: %v", err)
	}
	// Connected mode must not carry GNEP checks.
	for _, c := range cert.Checks {
		if strings.HasPrefix(c.Name, "multiplier") || c.Name == "capacity" {
			t.Errorf("connected certificate carries standalone check %q", c.Name)
		}
	}
}

func TestCertifyStandaloneGNE(t *testing.T) {
	cfg := standaloneConfig()
	p := core.Prices{Edge: 8, Cloud: 4}
	eq, err := core.SolveMinerGNE(cfg, p, game.NEOptions{})
	if err != nil {
		t.Fatalf("solve GNE: %v", err)
	}
	cert, err := Certify(cfg, p, eq, Options{})
	if err != nil {
		t.Fatalf("certify: %v", err)
	}
	if !cert.OK {
		t.Fatalf("standalone GNE failed certification: %v", cert.Err())
	}
	checkByName(t, cert, "capacity")
	checkByName(t, cert, "multiplier_sign")
	checkByName(t, cert, "multiplier_slackness")
}

// TestCertifyFlagsPerturbedEquilibrium is the headline acceptance check:
// a deliberate strategy perturbation — with every summary field
// recomputed so the result is internally consistent — must still be
// rejected, and specifically by the deviation (ε-Nash) check.
func TestCertifyFlagsPerturbedEquilibrium(t *testing.T) {
	cfg := connectedConfig()
	p := core.Prices{Edge: 8, Cloud: 4}
	params := cfg.Params(p)
	eq, err := core.SolveMinerEquilibrium(cfg, p, game.NEOptions{})
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	eq.Requests = eq.Requests.Clone()
	eq.Requests[0].E *= 0.5
	eq.Requests[0].C *= 1.3
	tot := eq.Requests.Aggregate()
	eq.EdgeDemand, eq.CloudDemand, eq.TotalDemand = tot.Edge, tot.Cloud, tot.Edge+tot.Cloud
	eq.Utilities, eq.WinProbs = connectedSummary(params, eq.Requests)

	cert, err := Certify(cfg, p, eq, Options{})
	if err != nil {
		t.Fatalf("certify: %v", err)
	}
	if cert.OK {
		t.Fatal("perturbed equilibrium certified as OK")
	}
	if c := checkByName(t, cert, "deviation"); c.OK {
		t.Errorf("deviation check passed on perturbed profile (residual %g)", c.Residual)
	}
	// Consistency checks must still pass — the summary was recomputed.
	for _, name := range []string{"aggregates", "utilities", "winprobs_reported"} {
		if c := checkByName(t, cert, name); !c.OK {
			t.Errorf("consistency check %q failed, want only deviation to fail: %+v", name, c)
		}
	}
	if cert.Err() == nil {
		t.Error("Err must be non-nil on a failing certificate")
	}
}

func TestCertifyFlagsInconsistentSummary(t *testing.T) {
	cfg := standaloneConfig()
	p := core.Prices{Edge: 8, Cloud: 4}
	eq, err := core.SolveMinerGNE(cfg, p, game.NEOptions{})
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	eq.EdgeDemand += 1 // reported aggregate no longer matches the profile
	cert, err := Certify(cfg, p, eq, Options{})
	if err != nil {
		t.Fatalf("certify: %v", err)
	}
	if c := checkByName(t, cert, "aggregates"); c.OK {
		t.Error("aggregates check passed with a falsified EdgeDemand")
	}
	if cert.OK {
		t.Error("certificate passed with a falsified EdgeDemand")
	}
}

func TestCertifyProfileFeasibilityResiduals(t *testing.T) {
	cfg := connectedConfig()
	p := core.Prices{Edge: 8, Cloud: 4}
	// Overspend: a profile costing double the budget.
	over := make(miner.Profile, cfg.N)
	for i := range over {
		over[i] = numeric.Point2{E: 2 * cfg.Budget(i) / p.Edge, C: 0}
	}
	cert, err := CertifyProfile(cfg, p, over, Options{})
	if err != nil {
		t.Fatalf("certify: %v", err)
	}
	if c := checkByName(t, cert, "budget"); c.OK {
		t.Error("budget check passed on a 2x overspend")
	}

	// Negative coordinate.
	neg := make(miner.Profile, cfg.N)
	neg[0] = numeric.Point2{E: -1, C: 1}
	cert, err = CertifyProfile(cfg, p, neg, Options{})
	if err != nil {
		t.Fatalf("certify: %v", err)
	}
	if c := checkByName(t, cert, "nonneg"); c.OK {
		t.Error("nonneg check passed with a negative request")
	}

	// Capacity overshoot in standalone mode.
	scfg := standaloneConfig()
	crowd := make(miner.Profile, scfg.N)
	for i := range crowd {
		crowd[i] = numeric.Point2{E: scfg.EdgeCapacity, C: 0} // jointly 5x capacity
	}
	cert, err = CertifyProfile(scfg, p, crowd, Options{})
	if err != nil {
		t.Fatalf("certify: %v", err)
	}
	if c := checkByName(t, cert, "capacity"); c.OK {
		t.Error("capacity check passed with demand at 5x the shared capacity")
	}
}

func TestCertifyRejectsMalformedInputs(t *testing.T) {
	cfg := connectedConfig()
	p := core.Prices{Edge: 8, Cloud: 4}
	if _, err := CertifyProfile(cfg, p, make(miner.Profile, cfg.N+1), Options{}); err == nil {
		t.Error("want error for profile/config size mismatch")
	}
	bad := cfg
	bad.Reward = math.NaN()
	if _, err := CertifyProfile(bad, p, make(miner.Profile, cfg.N), Options{}); err == nil {
		t.Error("want error for NaN reward")
	}
	if _, err := CertifyProfile(cfg, core.Prices{Edge: -8, Cloud: 4}, make(miner.Profile, cfg.N), Options{}); err == nil {
		t.Error("want error for negative price")
	}
}

func TestCertifyStackelbergBothModes(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  core.Config
	}{
		{"connected", connectedConfig()},
		{"standalone", func() core.Config {
			cfg := standaloneConfig()
			cfg.EdgeCapacity = 25
			cfg.Budgets = []float64{1000}
			return cfg
		}()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := core.SolveStackelberg(tc.cfg, core.StackelbergOptions{})
			if err != nil {
				t.Fatalf("solve: %v", err)
			}
			cert, err := CertifyStackelberg(tc.cfg, res, Options{})
			if err != nil {
				t.Fatalf("certify: %v", err)
			}
			if !cert.OK {
				t.Fatalf("stackelberg %s failed certification: %v", tc.name, cert.Err())
			}
			if cert.Kind != "stackelberg" {
				t.Errorf("Kind = %q, want stackelberg", cert.Kind)
			}
			checkByName(t, cert, "profits")
			checkByName(t, cert, "price_floor")
			if tc.name == "standalone" {
				checkByName(t, cert, "esp_clearing_lo")
				checkByName(t, cert, "esp_clearing_hi")
			} else {
				checkByName(t, cert, "leader_foc_esp")
			}
			checkByName(t, cert, "leader_foc_csp")

			// SkipLeader drops the probe-based checks but keeps the rest.
			fast, err := CertifyStackelberg(tc.cfg, res, Options{SkipLeader: true})
			if err != nil {
				t.Fatalf("certify skip-leader: %v", err)
			}
			if !fast.OK {
				t.Fatalf("skip-leader certificate failed: %v", fast.Err())
			}
			for _, c := range fast.Checks {
				if strings.HasPrefix(c.Name, "leader_foc") || strings.HasPrefix(c.Name, "esp_clearing") {
					t.Errorf("SkipLeader certificate still carries %q", c.Name)
				}
			}
		})
	}
}

func TestCertifyStackelbergFlagsFalseProfit(t *testing.T) {
	cfg := connectedConfig()
	res, err := core.SolveStackelberg(cfg, core.StackelbergOptions{})
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	res.ProfitE *= 1.5
	cert, err := CertifyStackelberg(cfg, res, Options{SkipLeader: true})
	if err != nil {
		t.Fatalf("certify: %v", err)
	}
	if c := checkByName(t, cert, "profits"); c.OK {
		t.Error("profits check passed with an inflated ProfitE")
	}
}

func TestCertifyStackelbergFlagsOffEquilibriumPrices(t *testing.T) {
	// Solve the follower at deliberately bad prices and present it as a
	// Stackelberg solution: the follower is a genuine NE, so only the
	// leader first-order checks can catch it.
	cfg := connectedConfig()
	res, err := core.SolveStackelberg(cfg, core.StackelbergOptions{})
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	bad := core.Prices{Edge: res.Prices.Edge * 3, Cloud: res.Prices.Cloud * 0.4}
	eq, err := core.SolveMinerEquilibrium(cfg, bad, game.NEOptions{})
	if err != nil {
		t.Fatalf("solve follower at off prices: %v", err)
	}
	fake := core.StackelbergResult{
		Prices:   bad,
		Follower: eq,
		ProfitE:  (bad.Edge - cfg.CostE) * eq.EdgeDemand,
		ProfitC:  (bad.Cloud - cfg.CostC) * eq.CloudDemand,
	}
	cert, err := CertifyStackelberg(cfg, fake, Options{})
	if err != nil {
		t.Fatalf("certify: %v", err)
	}
	if cert.OK {
		t.Fatal("off-equilibrium prices certified as a Stackelberg solution")
	}
	failed := cert.Failures()
	leaderFailed := false
	for _, c := range failed {
		if strings.HasPrefix(c.Name, "leader_foc") {
			leaderFailed = true
		}
	}
	if !leaderFailed {
		t.Errorf("want a leader_foc check to fail, failures: %+v", failed)
	}
}

// TestNECertifierIntegration wires the verify certifier into the
// solver's CertifyAfterSolve hook, on a scalar-β market and on a
// per-miner-β (Config.Betas) one: the hook runs exactly once, on the
// final follower equilibrium, and a failing certificate fails the solve.
func TestNECertifierIntegration(t *testing.T) {
	for _, cfg := range []core.Config{connectedConfig(), topoConfig()} {
		t.Run(fmt.Sprintf("betas=%v", cfg.Betas != nil), func(t *testing.T) {
			calls := 0
			certify := NECertifier(Options{})
			opts := core.StackelbergOptions{CertifyAfterSolve: func(c core.Config, p core.Prices, eq core.MinerEquilibrium) error {
				calls++
				if !reflect.DeepEqual(c.Betas, cfg.Betas) {
					t.Errorf("certifier saw betas %v, want %v", c.Betas, cfg.Betas)
				}
				return certify(c, p, eq)
			}}
			if _, err := core.SolveStackelberg(cfg, opts); err != nil {
				t.Fatalf("certified solve failed: %v", err)
			}
			if calls != 1 {
				t.Errorf("certifier ran %d times, want exactly once", calls)
			}
			// An impossible tolerance must reject the solve with a certificate error.
			opts.CertifyAfterSolve = func(cfg core.Config, p core.Prices, eq core.MinerEquilibrium) error {
				cert, err := Certify(cfg, p, eq, Options{ConsistTol: 1e-9})
				if err != nil {
					return err
				}
				cert.add("always_fails", 1, 0, "forced failure for plumbing test")
				return cert.Err()
			}
			if _, err := core.SolveStackelberg(cfg, opts); err == nil || !strings.Contains(err.Error(), "always_fails") {
				t.Fatalf("want SolveStackelberg to surface the certifier failure, got %v", err)
			}
		})
	}
}

func TestCertificateJSONRoundTrip(t *testing.T) {
	cfg := standaloneConfig()
	p := core.Prices{Edge: 8, Cloud: 4}
	eq, err := core.SolveMinerGNE(cfg, p, game.NEOptions{})
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	cert, err := Certify(cfg, p, eq, Options{})
	if err != nil {
		t.Fatalf("certify: %v", err)
	}
	blob, err := json.Marshal(cert)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Certificate
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back.Kind != cert.Kind || back.OK != cert.OK || back.N != cert.N ||
		len(back.Checks) != len(cert.Checks) || len(back.Gains) != len(cert.Gains) {
		t.Errorf("round trip lost structure: %+v vs %+v", back, cert)
	}
	if math.Abs(back.Epsilon-cert.Epsilon) > 0 || math.Abs(back.EpsilonRel-cert.EpsilonRel) > 0 {
		t.Errorf("round trip changed epsilon: %g vs %g", back.Epsilon, cert.Epsilon)
	}
	for i, c := range back.Checks {
		if c.Name != cert.Checks[i].Name || c.OK != cert.Checks[i].OK {
			t.Errorf("check %d mismatch after round trip: %+v vs %+v", i, c, cert.Checks[i])
		}
	}
}

func TestCertifyMultiESP(t *testing.T) {
	cfg := multiesp.Config{
		N: 4, Budget: 200, Reward: 1000, Beta: 0.2,
		ESPs:   []multiesp.ESP{{Price: 8, H: 0.7}, {Price: 10, H: 0.9}},
		PriceC: 4,
	}
	eq, err := multiesp.Solve(cfg)
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	cert, err := CertifyMultiESP(cfg, eq, Options{})
	if err != nil {
		t.Fatalf("certify: %v", err)
	}
	if !cert.OK {
		t.Fatalf("multiesp equilibrium failed certification: %v", cert.Err())
	}
	if cert.Kind != "multiesp" {
		t.Errorf("Kind = %q", cert.Kind)
	}

	// Perturb one miner and recompute the summary: deviation must flag it.
	perturbMultiESP(cfg, &eq, 0.3)
	cert, err = CertifyMultiESP(cfg, eq, Options{})
	if err != nil {
		t.Fatalf("certify perturbed: %v", err)
	}
	if cert.OK {
		t.Fatal("perturbed multiesp profile certified as OK")
	}
	if c := checkByName(t, cert, "deviation"); c.OK {
		t.Error("deviation check passed on perturbed multiesp profile")
	}

	if _, err := CertifyMultiESP(cfg, multiesp.Equilibrium{}, Options{}); err == nil {
		t.Error("want error for empty equilibrium")
	}
}

// perturbMultiESP scales miner 0's request by f and recomputes the
// summary, so only the deviation check can object.
func perturbMultiESP(cfg multiesp.Config, eq *multiesp.Equilibrium, f float64) {
	for d := range eq.Requests[0] {
		eq.Requests[0][d] *= f
	}
	dims := len(cfg.ESPs) + 1
	demands := make(numeric.Vec, dims)
	for _, x := range eq.Requests {
		for d, v := range x {
			demands[d] += v
		}
	}
	eq.Demands = demands
	others := make(numeric.Vec, dims)
	for i, x := range eq.Requests {
		for d := range others {
			others[d] = demands[d] - x[d]
		}
		eq.Utilities[i] = cfg.Utility(x, others)
		eq.WinProbs[i] = cfg.WinProb(x, others)
	}
}

func TestCertifyPopulation(t *testing.T) {
	params := miner.Params{Reward: 1000, Beta: 0.2, H: 0.7, PriceE: 8, PriceC: 4}
	model := population.Model{Mu: 5, Sigma: 1.5, MaxN: 12}
	pmf, err := model.PMF()
	if err != nil {
		t.Fatalf("pmf: %v", err)
	}
	eq, err := population.SymmetricEquilibrium(params, pmf, 200, population.SolveOptions{})
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	cert, err := CertifyPopulation(params, pmf, 200, 0, eq, Options{})
	if err != nil {
		t.Fatalf("certify: %v", err)
	}
	if !cert.OK {
		t.Fatalf("population equilibrium failed certification: %v", cert.Err())
	}

	// A strategy far from the fixed point must fail the deviation check.
	bad := eq
	bad.Request = eq.Request.Scale(0.2)
	mean := pmf.Mean()
	bad.ExpectedEdgeDemand = mean * bad.Request.E
	bad.ExpectedCloudDemand = mean * bad.Request.C
	bad.Utility = population.ExpectedUtilityForm(params, pmf, bad.Request, bad.Request, population.DegradedTransfer)
	cert, err = CertifyPopulation(params, pmf, 200, 0, bad, Options{})
	if err != nil {
		t.Fatalf("certify perturbed: %v", err)
	}
	if cert.OK {
		t.Fatal("off-equilibrium population strategy certified as OK")
	}
	if c := checkByName(t, cert, "deviation"); c.OK {
		t.Error("deviation check passed on off-equilibrium strategy")
	}

	if _, err := CertifyPopulation(params, numeric.DiscretePMF{}, 200, 0, eq, Options{}); err == nil {
		t.Error("want error for empty pmf")
	}
	if _, err := CertifyPopulation(params, pmf, math.NaN(), 0, eq, Options{}); err == nil {
		t.Error("want error for NaN budget")
	}
}

// TestCertifyPopulationLoneMiner: with all mass at N = 1 (m = 0) the
// answer is the smallest counted request, and it certifies in both
// degraded forms.
func TestCertifyPopulationLoneMiner(t *testing.T) {
	params := miner.Params{Reward: 1000, Beta: 0.2, H: 0.7, PriceE: 8, PriceC: 4}
	for _, form := range []population.Degraded{population.DegradedTransfer, population.DegradedReject} {
		eq, err := population.SymmetricEquilibrium(params, population.Degenerate(1), 200, population.SolveOptions{Form: form})
		if err != nil {
			t.Fatalf("form %d: %v", form, err)
		}
		cert, err := CertifyPopulation(params, population.Degenerate(1), 200, form, eq, Options{})
		if err != nil || !eq.Converged || !cert.OK {
			t.Errorf("form %d: %+v: %v %v", form, eq, err, cert.Err())
		}
	}
}

// TestCertifyMultiESPPureCandidates certifies the solver's pick across
// the band where both pure profiles hold: the budget ESP at P₂ = 5.6,
// the premium one at 5.8 and 5.9.
func TestCertifyMultiESPPureCandidates(t *testing.T) {
	for _, tc := range []struct {
		p2   float64
		want int
	}{{5.6, 1}, {5.8, 0}, {5.9, 0}} {
		cfg := multiesp.Config{
			N: 5, Budget: 200, Reward: 1000, Beta: 0.2,
			ESPs:   []multiesp.ESP{{Price: 9, H: 0.9}, {Price: tc.p2, H: 0.4}},
			PriceC: 4,
		}
		eq, err := multiesp.Solve(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if eq.Demands[tc.want] <= 0 || eq.Demands[1-tc.want] != 0 {
			t.Errorf("P₂ = %g: demands %v, want all edge on ESP %d", tc.p2, eq.Demands, tc.want)
		}
		cert, err := CertifyMultiESP(cfg, eq, Options{})
		if err != nil || !cert.OK {
			t.Errorf("P₂ = %g: %v %v", tc.p2, err, cert.Err())
		}
	}
}

// TestCertifyRLGreedyProfile closes the loop on the learning pipeline:
// the greedy profile of trained bandits is certified as an approximate
// equilibrium under a tolerance matched to the action-grid resolution.
func TestCertifyRLGreedyProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("RL training loop")
	}
	const (
		n      = 5
		budget = 200.0
		priceE = 8.0
		priceC = 4.0
	)
	net := netmodel.Network{
		ESP:           netmodel.ESP{Mode: netmodel.Connected, SatisfyProb: 0.7, Cost: 2, Price: priceE},
		CSP:           netmodel.CSP{Cost: 1, Price: priceC, Delay: 133.9},
		BlockInterval: 600,
	}
	grid, err := rl.NewActionGrid(priceE, priceC, budget, 11, 11)
	if err != nil {
		t.Fatalf("grid: %v", err)
	}
	pool := make([]rl.Learner, n)
	for i := range pool {
		l, err := rl.NewEpsilonGreedy(len(grid.Actions), rl.EpsilonGreedyConfig{})
		if err != nil {
			t.Fatalf("learner: %v", err)
		}
		pool[i] = l
	}
	tr, err := rl.NewTrainer(grid, rl.ModelEnv{Net: net, Reward: 1000}, population.Degenerate(n), pool, sim.NewRNG(21, "verify-rl"))
	if err != nil {
		t.Fatalf("trainer: %v", err)
	}
	if err := tr.Train(40000); err != nil {
		t.Fatalf("train: %v", err)
	}
	cfg := core.Config{
		N: n, Budgets: []float64{budget}, Reward: 1000, Beta: net.Beta(), SatisfyProb: 0.7,
		Mode: netmodel.Connected, CostE: 2, CostC: 1,
	}
	prof := miner.Profile(tr.GreedyProfile())
	// The grid is coarse (steps of 2.5 edge / 5 cloud units), so the
	// learned profile is an ε-equilibrium with grid-sized ε only.
	cert, err := CertifyProfile(cfg, core.Prices{Edge: priceE, Cloud: priceC}, prof, Options{GainTol: 0.15})
	if err != nil {
		t.Fatalf("certify: %v", err)
	}
	if !cert.OK {
		t.Fatalf("trained RL profile failed grid-tolerance certification: %v", cert.Err())
	}
	// And the same profile must NOT pass at solver-grade tolerance: the
	// certificate separates learned approximations from numeric equilibria.
	tight, err := CertifyProfile(cfg, core.Prices{Edge: priceE, Cloud: priceC}, prof, Options{})
	if err != nil {
		t.Fatalf("certify tight: %v", err)
	}
	if c := checkByName(t, tight, "deviation"); c.OK {
		t.Log("note: RL profile certified even at solver-grade tolerance (unusually lucky grid)")
	}
}
