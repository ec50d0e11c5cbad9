package verify

import (
	"math"
	"math/rand"
	"testing"

	"minegame/internal/core"
	"minegame/internal/game"
	"minegame/internal/miner"
	"minegame/internal/multiesp"
	"minegame/internal/netmodel"
	"minegame/internal/numeric"
	"minegame/internal/population"
)

// deviationCheck returns the certificate's deviation check.
func deviationCheck(t *testing.T, cert Certificate) Check {
	t.Helper()
	for _, ck := range cert.Checks {
		if ck.Name == "deviation" {
			return ck
		}
	}
	t.Fatalf("certificate %s has no deviation check", cert.Kind)
	return Check{}
}

// TestStakeScaledCertificateFailsExact perturbs one miner of the
// solve-wide N = 1000 market: doubling its request costs it about 1e-6
// of R — 5e-4 of its own stake, five times GainTol. A bound of
// GainTol·R would still accept the profile; the stake-scaled bound must
// reject it, and must accept the unperturbed root.
func TestStakeScaledCertificateFailsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	budgets := make([]float64, 1000)
	for i := range budgets {
		budgets[i] = 8 + 4*rng.Float64()
	}
	cfg := core.Config{
		N: 1000, Budgets: budgets, Reward: 100, Beta: 0.5, SatisfyProb: 0.9,
		Mode: netmodel.Connected, CostE: 1, CostC: 0.5,
	}
	p := core.Prices{Edge: 2, Cloud: 1}
	eq, err := core.SolveMinerEquilibrium(cfg, p, game.NEOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cert, err := Certify(cfg, p, eq, Options{})
	if err != nil || !cert.OK {
		t.Fatalf("root must certify: %v %v", err, cert.Err())
	}
	prof := eq.Requests.Clone()
	prof[0] = prof[0].Scale(2)
	cert, err = CertifyProfile(cfg, p, prof, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cert.EpsilonRel >= 1e-4 {
		t.Fatalf("perturbation gain %g·R is not below the old GainTol·R bound; pick a smaller one", cert.EpsilonRel)
	}
	if ck := deviationCheck(t, cert); ck.OK {
		t.Errorf("stake-scaled deviation check accepted a miner losing %g·R: %+v", cert.EpsilonRel, ck)
	}
}

// TestStakeScaledCertificateFailsClassed perturbs one budget class of
// a million-miner market by 1%: each member then loses about 1e-9 of R,
// over 1e-3 of its own stake, while the gain stays far below GainTol·R.
// Both the O(K) classed certificate and the sampled expansion must
// reject it, and accept the root.
func TestStakeScaledCertificateFailsClassed(t *testing.T) {
	const n = 1_000_000
	cfg := core.Config{
		N: n, Budgets: []float64{150}, Reward: 1000, Beta: 0.2, SatisfyProb: 0.7,
		Mode: netmodel.Connected, CostE: 2, CostC: 1,
	}
	classes := make([]miner.Class, 7)
	for k := range classes {
		classes[k] = miner.Class{Budget: 150 + 15*float64(k), Count: n / 7}
	}
	classes[0].Count += n - 7*(n/7)
	cp, err := miner.FromClasses(classes)
	if err != nil {
		t.Fatal(err)
	}
	p := core.Prices{Edge: 8, Cloud: 4}
	eq, err := core.SolveMinerEquilibriumClassed(cfg, cp, p, game.NEOptions{})
	if err != nil {
		t.Fatal(err)
	}
	certify := func(eq core.ClassedEquilibrium) (Certificate, Certificate) {
		t.Helper()
		cc, err := CertifyClassed(cfg, cp, p, eq, Options{})
		if err != nil {
			t.Fatal(err)
		}
		cs, err := CertifyExpandedSample(cfg, cp, p, eq, 0, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return cc, cs
	}
	if cc, cs := certify(eq); !cc.OK || !cs.OK {
		t.Fatalf("root must certify: classed %v, sample %v", cc.Err(), cs.Err())
	}

	reps := append([]numeric.Point2(nil), eq.Requests...)
	reps[0] = reps[0].Scale(1.01)
	tot := cp.Aggregate(reps)
	bad := eq
	bad.Requests = reps
	bad.EdgeDemand, bad.CloudDemand, bad.TotalDemand = tot.Edge, tot.Cloud, tot.Edge+tot.Cloud
	cc, cs := certify(bad)
	for _, cert := range []Certificate{cc, cs} {
		if cert.EpsilonRel >= 1e-4 || math.IsNaN(cert.EpsilonRel) {
			t.Fatalf("%s: perturbation gain %g·R is not below the old GainTol·R bound", cert.Kind, cert.EpsilonRel)
		}
		if ck := deviationCheck(t, cert); ck.OK {
			t.Errorf("%s: stake-scaled deviation check accepted a class losing %g·R: %+v", cert.Kind, cert.EpsilonRel, ck)
		}
	}
}

// TestStakeScaledCertificateFailsPopulation moves the common strategy of
// a μ = 200 population 1% off the symmetric equilibrium: a deviating
// miner then gains far less than GainTol·R but more than GainTol times
// its stake, about R/200. The certificate must reject it and accept the
// equilibrium, here the interior closed form
// e = hβR·m/(P_e − P_c), s = (1−β)R·m/P_c with m = E[(N−1)/N²].
func TestStakeScaledCertificateFailsPopulation(t *testing.T) {
	p := miner.Params{Reward: 1000, Beta: 0.2, H: 0.7, PriceE: 8, PriceC: 4}
	pmf, err := population.Model{Mu: 200, Sigma: 10}.PMF()
	if err != nil {
		t.Fatal(err)
	}
	var m float64
	for i, prob := range pmf.P {
		k := float64(pmf.Lo + i)
		m += prob * (k - 1) / (k * k)
	}
	e := p.H * p.Beta * p.Reward * m / (p.PriceE - p.PriceC)
	summary := func(x numeric.Point2) population.Equilibrium {
		return population.Equilibrium{
			Request:             x,
			ExpectedEdgeDemand:  pmf.Mean() * x.E,
			ExpectedCloudDemand: pmf.Mean() * x.C,
			Utility:             population.ExpectedUtility(p, pmf, x, x),
		}
	}
	root := numeric.Point2{E: e, C: (1-p.Beta)*p.Reward*m/p.PriceC - e}
	cert, err := CertifyPopulation(p, pmf, 200, 0, summary(root), Options{})
	if err != nil || !cert.OK {
		t.Fatalf("the equilibrium must certify: %v %v", err, cert.Err())
	}
	cert, err = CertifyPopulation(p, pmf, 200, 0, summary(numeric.Point2{E: 1.01 * root.E, C: 1.01 * root.C}), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cert.EpsilonRel >= 1e-4 {
		t.Fatalf("perturbation gain %g·R is not below the old GainTol·R bound; pick a smaller one", cert.EpsilonRel)
	}
	if ck := deviationCheck(t, cert); ck.OK {
		t.Errorf("stake-scaled deviation check accepted a gain of %g·R: %+v", cert.EpsilonRel, ck)
	}
}

// TestStakeScaledCertificateFailsMultiESP scales one of 50 miners'
// requests by 0.9 in a two-ESP market: its best response then gains far
// less than GainTol·R but more than GainTol times its stake, about R/50.
func TestStakeScaledCertificateFailsMultiESP(t *testing.T) {
	cfg := multiesp.Config{
		N: 50, Budget: 200, Reward: 1000, Beta: 0.2,
		ESPs:   []multiesp.ESP{{Price: 9, H: 0.9}, {Price: 6, H: 0.4}},
		PriceC: 4,
	}
	eq, err := multiesp.Solve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cert, err := CertifyMultiESP(cfg, eq, Options{})
	if err != nil || !cert.OK {
		t.Fatalf("solution must certify: %v %v", err, cert.Err())
	}
	perturbMultiESP(cfg, &eq, 0.9)
	cert, err = CertifyMultiESP(cfg, eq, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cert.EpsilonRel >= 1e-4 {
		t.Fatalf("perturbation gain %g·R is not below the old GainTol·R bound; pick a smaller one", cert.EpsilonRel)
	}
	if ck := deviationCheck(t, cert); ck.OK {
		t.Errorf("stake-scaled deviation check accepted a gain of %g·R: %+v", cert.EpsilonRel, ck)
	}
}
