package experiments

// The harness-level certification hook: every equilibrium behind the
// paper tables must survive the independent ε-Nash / feasibility
// certificate, and turning certification on must not change a single
// output byte (it only validates final solves, never probes).

import (
	"errors"
	"strings"
	"testing"

	"minegame/internal/core"
	"minegame/internal/verify"
)

func TestRunnersPassCertification(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment runs")
	}
	cfg := Config{
		Seed: 1, Quick: true, Parallel: 1,
		CertifyAfterSolve: verify.NECertifier(verify.Options{}),
	}
	for _, id := range []string{"fig4", "fig5", "fig6", "fig7", "tab2", "headline", "hetero", "topo"} {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			r, err := ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := r.Run(cfg); err != nil {
				t.Errorf("%s with certification enabled: %v", id, err)
			}
		})
	}
}

func TestCertificationDoesNotChangeOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment runs")
	}
	base := Config{Seed: 1, Quick: true, Parallel: 1}
	certified := base
	certified.CertifyAfterSolve = verify.NECertifier(verify.Options{})
	for _, id := range []string{"fig4", "tab2"} {
		if got, want := renderAll(t, id, certified), renderAll(t, id, base); got != want {
			t.Errorf("%s: certification changed the rendered output", id)
		}
	}
}

func TestCertificationFailureFailsRunner(t *testing.T) {
	boom := errors.New("rejected by test certifier")
	cfg := Config{
		Seed: 1, Quick: true, Parallel: 1,
		CertifyAfterSolve: func(core.Config, core.Prices, core.MinerEquilibrium) error {
			return boom
		},
	}
	for _, id := range []string{"fig4", "hetero", "topo"} {
		r, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		_, err = r.Run(cfg)
		if !errors.Is(err, boom) {
			t.Fatalf("%s: certifier rejection must fail the runner, got %v", id, err)
		}
		if !strings.Contains(err.Error(), id) {
			t.Errorf("error %q should name the failing sweep point", err)
		}
	}
}
