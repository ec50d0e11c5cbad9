package expo

import (
	"encoding/json"
	"errors"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"minegame/internal/obs"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenSnapshot builds a deterministic snapshot through the real
// Observer path: counters, gauges, and a histogram with few enough
// samples that quantiles are exact.
func goldenSnapshot() obs.Snapshot {
	o := obs.New()
	o.SetEnabled(true)
	o.Count("core.demand_probes_total", 42)
	o.Count("obs.anomalies_total", 1)
	o.SetGauge("chain.height", 128)
	o.SetGauge("rl.epsilon", 0.05)
	for _, v := range []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10} {
		o.Observe("game.sweep_delta", v/10)
	}
	o.Observe("unregistered.9weird-name", 2.5)
	return o.Snapshot()
}

func TestWriteOpenMetricsGolden(t *testing.T) {
	var b strings.Builder
	if err := WriteOpenMetrics(&b, goldenSnapshot(), DefaultHelp); err != nil {
		t.Fatalf("WriteOpenMetrics: %v", err)
	}
	got := b.String()

	goldenPath := filepath.Join("testdata", "metrics.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if got != string(want) {
		t.Errorf("exposition output drifted from golden file.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestWriteOpenMetricsFormatInvariants(t *testing.T) {
	var b strings.Builder
	if err := WriteOpenMetrics(&b, goldenSnapshot(), nil); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.HasSuffix(out, "# EOF\n") {
		t.Errorf("output must terminate with %q, got tail %q", "# EOF\n", out[max(0, len(out)-20):])
	}
	for _, want := range []string{
		"# TYPE core_demand_probes counter\n",
		"core_demand_probes_total 42\n",
		"# TYPE chain_height gauge\n",
		"chain_height 128\n",
		"# TYPE game_sweep_delta summary\n",
		"game_sweep_delta{quantile=\"0\"} 0.1\n",
		"game_sweep_delta{quantile=\"1\"} 1\n",
		"game_sweep_delta_count 10\n",
		// Name outside the convention still sanitizes to a legal family.
		"unregistered_9weird_name_sum 2.5\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q\n%s", want, out)
		}
	}
	// OpenMetrics forbids duplicate metadata: each # TYPE line appears once.
	seen := map[string]bool{}
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			if seen[line] {
				t.Errorf("duplicate metadata line %q", line)
			}
			seen[line] = true
		}
	}
}

func TestWriteOpenMetricsEmptySnapshot(t *testing.T) {
	var b strings.Builder
	if err := WriteOpenMetrics(&b, obs.Snapshot{}, nil); err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != "# EOF\n" {
		t.Errorf("empty snapshot should render bare EOF, got %q", got)
	}
}

func TestMetricsHandlerContentTypeAndBody(t *testing.T) {
	h := MetricsHandler(goldenSnapshot, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != ContentType {
		t.Errorf("Content-Type = %q, want %q", ct, ContentType)
	}
	if body := rec.Body.String(); !strings.Contains(body, "core_demand_probes_total 42") {
		t.Errorf("body missing counter sample:\n%s", body)
	}
}

func TestDebugHandlerServesJSON(t *testing.T) {
	h := DebugHandler(goldenSnapshot)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/obs", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	if body := rec.Body.String(); !strings.Contains(body, "\"core.demand_probes_total\": 42") {
		t.Errorf("JSON body missing raw-named counter:\n%s", body)
	}
}

// TestDebugHandlerServesUnsetGauge pins /debug/obs on a registry
// holding a registered but unset gauge (NaN): the body is one whole
// JSON object, without that gauge.
func TestDebugHandlerServesUnsetGauge(t *testing.T) {
	h := DebugHandler(func() obs.Snapshot {
		o := obs.New()
		o.Gauge("serve.cache_hit_ratio")
		o.Count("core.demand_probes_total", 1)
		return o.Snapshot()
	})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/obs", nil))
	var snap obs.Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("body is not JSON: %v\n%s", err, rec.Body.String())
	}
	if _, ok := snap.Gauges["serve.cache_hit_ratio"]; ok || snap.Counters["core.demand_probes_total"] != 1 {
		t.Errorf("snapshot = %+v, want the counter and no unset gauge", snap)
	}
}

func TestProbesStateTransitions(t *testing.T) {
	p := NewProbes()
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()

	status := func() (int, string) {
		resp, err := http.Get(srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	if code, body := status(); code != http.StatusOK || body != "ok\n" {
		t.Fatalf("empty registry: got %d %q, want 200 \"ok\\n\"", code, body)
	}

	// Probes close over live state: the endpoint flips as the state does.
	healthy := false
	p.Register("solver", func() error {
		if !healthy {
			return errors.New("warmup not finished")
		}
		return nil
	})
	p.Register("always", func() error { return nil })

	if code, body := status(); code != http.StatusServiceUnavailable ||
		!strings.Contains(body, "solver: warmup not finished") ||
		!strings.Contains(body, "always: ok") {
		t.Fatalf("failing probe: got %d %q", code, body)
	}

	healthy = true
	if code, body := status(); code != http.StatusOK || !strings.Contains(body, "solver: ok") {
		t.Fatalf("recovered probe: got %d %q", code, body)
	}

	p.Deregister("solver")
	p.Deregister("always")
	if code, _ := status(); code != http.StatusOK {
		t.Fatalf("after deregister: got %d", code)
	}
}

func TestNilProbesAlwaysHealthy(t *testing.T) {
	var p *Probes
	p.Register("x", func() error { return errors.New("never runs") })
	p.Deregister("x")
	ok, report := p.Check()
	if !ok || report != "ok\n" {
		t.Fatalf("nil Probes: ok=%v report=%q", ok, report)
	}
	rec := httptest.NewRecorder()
	p.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("nil Probes handler: %d", rec.Code)
	}
}

func TestNewMuxMountsEndpoints(t *testing.T) {
	if _, err := NewMux(MuxConfig{}); err == nil {
		t.Fatal("NewMux without Snapshot should error")
	}
	ready := NewProbes()
	ready.Register("warm", func() error { return errors.New("not yet") })
	mux, err := NewMux(MuxConfig{Snapshot: goldenSnapshot, Readiness: ready})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(mux)
	defer srv.Close()

	for _, tc := range []struct {
		path     string
		wantCode int
		wantBody string
	}{
		{"/metrics", http.StatusOK, "# EOF"},
		{"/healthz", http.StatusOK, "ok"},
		{"/readyz", http.StatusServiceUnavailable, "warm: not yet"},
		{"/debug/obs", http.StatusOK, "counters"},
	} {
		resp, err := http.Get(srv.URL + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.wantCode {
			t.Errorf("%s: status %d, want %d", tc.path, resp.StatusCode, tc.wantCode)
		}
		if !strings.Contains(string(body), tc.wantBody) {
			t.Errorf("%s: body %q missing %q", tc.path, string(body), tc.wantBody)
		}
	}
}
