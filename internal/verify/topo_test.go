package verify

import (
	"math"
	"strings"
	"testing"

	"minegame/internal/core"
	"minegame/internal/game"
	"minegame/internal/netmodel"
)

// topoConfig is connectedConfig with per-miner fork rates.
func topoConfig() core.Config {
	cfg := connectedConfig()
	cfg.Betas = []float64{0.05, 0.1, 0.2, 0.3, 0.4}
	return cfg
}

func TestCertifyTopoNE(t *testing.T) {
	cfg := topoConfig()
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
		t.Fatalf("per-miner-beta NE failed certification: %v", cert.Err())
	}
	if cert.Kind != "miner_ne" || cert.N != cfg.N {
		t.Errorf("certificate header = %q/%d, want miner_ne/%d", cert.Kind, cert.N, cfg.N)
	}
	for _, name := range []string{"nonneg", "budget", "deviation", "aggregates", "utilities", "winprobs_reported", "winprob_range"} {
		if c := checkByName(t, cert, name); !c.OK {
			t.Errorf("check %q failed: residual %g > tol %g", name, c.Residual, c.Tol)
		}
	}
	// Theorem 1's sum identities do not survive heterogeneous betas.
	for _, c := range cert.Checks {
		if strings.HasPrefix(c.Name, "winprob_sum") {
			t.Errorf("scalar-beta identity %q applied to a per-miner-beta market", c.Name)
		}
	}
}

// TestCertifyTopoCatchesPerturbation: pushing one miner off its best
// response must blow the deviation check, and lying about the reported
// win probabilities must blow the consistency check.
func TestCertifyTopoCatchesPerturbation(t *testing.T) {
	cfg := topoConfig()
	p := core.Prices{Edge: 8, Cloud: 4}
	eq, err := core.SolveMinerEquilibrium(cfg, p, game.NEOptions{})
	if err != nil {
		t.Fatalf("solve: %v", err)
	}

	bent := eq
	bent.Requests = eq.Requests.Clone()
	bent.Requests[2].E *= 0.2
	cert, err := Certify(cfg, p, bent, Options{})
	if err != nil {
		t.Fatalf("certify: %v", err)
	}
	if cert.OK {
		t.Error("perturbed profile must fail certification")
	}
	if c := checkByName(t, cert, "deviation"); c.OK {
		t.Errorf("deviation check passed on a perturbed profile: residual %g", c.Residual)
	}

	lied := eq
	lied.WinProbs = append([]float64(nil), eq.WinProbs...)
	lied.WinProbs[0] += 0.05
	cert, err = Certify(cfg, p, lied, Options{})
	if err != nil {
		t.Fatalf("certify: %v", err)
	}
	if c := checkByName(t, cert, "winprobs_reported"); c.OK {
		t.Error("misreported win probabilities must fail the consistency check")
	}
}

func TestCertifyTopoInputValidation(t *testing.T) {
	cfg := topoConfig()
	p := core.Prices{Edge: 8, Cloud: 4}
	eq, err := core.SolveMinerEquilibrium(cfg, p, game.NEOptions{})
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	short := cfg
	short.Betas = cfg.Betas[:2]
	if _, err := Certify(short, p, eq, Options{}); err == nil {
		t.Error("short betas vector must be rejected")
	}
	bad := topoConfig()
	bad.Betas[1] = math.NaN()
	if _, err := Certify(bad, p, eq, Options{}); err == nil {
		t.Error("NaN beta must be rejected")
	}
	standalone := topoConfig()
	standalone.Mode = netmodel.Standalone
	standalone.EdgeCapacity = 60
	if _, err := Certify(standalone, p, eq, Options{}); err == nil || !strings.Contains(err.Error(), "connected") {
		t.Errorf("standalone mode must be rejected, got %v", err)
	}
	cp, err := connectedConfig().Classes(0)
	if err != nil {
		t.Fatal(err)
	}
	ceq, err := core.SolveMinerEquilibriumClassed(connectedConfig(), cp, p, game.NEOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CertifyClassed(cfg, cp, p, ceq, Options{}); err == nil {
		t.Error("classed certificate must reject a per-miner-beta market")
	}
}

func TestCertifyStackelbergTopo(t *testing.T) {
	cfg := topoConfig()
	res, err := core.SolveStackelberg(cfg, core.StackelbergOptions{})
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	cert, err := CertifyStackelberg(cfg, res, Options{})
	if err != nil {
		t.Fatalf("certify: %v", err)
	}
	if cert.Kind != "stackelberg" {
		t.Errorf("kind = %q, want stackelberg", cert.Kind)
	}
	if !cert.OK {
		t.Fatalf("solved per-miner-beta Stackelberg failed certification: %v", cert.Err())
	}
	for _, name := range []string{"winprob_range", "profits", "price_floor", "leader_foc_esp", "leader_foc_csp"} {
		if c := checkByName(t, cert, name); !c.OK {
			t.Errorf("check %q failed: residual %g > tol %g", name, c.Residual, c.Tol)
		}
	}
}
