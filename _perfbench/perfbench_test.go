package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"reflect"
	"testing"
)

// TestInputsFollowSeed pins the input contract: the same seed gives
// byte-identical request bodies and identical topologies, another seed
// gives different ones.
func TestInputsFollowSeed(t *testing.T) {
	bodies := func(seed int64) [][]byte {
		t.Helper()
		hit, err := hitSet(seed)
		if err != nil {
			t.Fatal(err)
		}
		var out [][]byte
		for _, r := range hit {
			out = append(out, r.body)
		}
		for i := 0; i < 9; i++ {
			pm, err := priceMissRequest(seed, labelTimed, i)
			if err != nil {
				t.Fatal(err)
			}
			sw, err := solveWideRequest(seed, labelTimed, i)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, pm.body, sw.body)
		}
		return out
	}
	a, b, c := bodies(7), bodies(7), bodies(8)
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("body %d differs between two generations from seed 7", i)
		}
		if bytes.Equal(a[i], c[i]) {
			t.Fatalf("body %d is the same for seeds 7 and 8", i)
		}
	}
	for i := 0; i < 3; i++ {
		x, err := newTopoItem(7, labelTimed, i)
		if err != nil {
			t.Fatal(err)
		}
		y, _ := newTopoItem(7, labelTimed, i)
		z, _ := newTopoItem(8, labelTimed, i)
		if !reflect.DeepEqual(x, y) {
			t.Fatalf("topology %d differs between two generations from seed 7", i)
		}
		if reflect.DeepEqual(x, z) {
			t.Fatalf("topology %d is the same for seeds 7 and 8", i)
		}
	}
}

// TestNormalizationCancelsSlowdown: a machine twice as slow makes every
// item and every kernel measurement take twice as long; the normalized
// times must not change.
func TestNormalizationCancelsSlowdown(t *testing.T) {
	refs := []float64{0.6, 0.7, 0.55, 1.9, 0.62, 0.64}
	at := []float64{0, 0.4, 0.9, 1.3, 2.8, 4.1}
	items := [][2]float64{{0.01, 0.38}, {0.41, 0.88}, {0.92, 1.29}, {1.31, 2.79}, {2.81, 4.05}}
	raw := []float64{370, 470, 370, 1480, 1240}
	norm := func(scale float64) []float64 {
		var out []float64
		r := make([]float64, len(refs))
		for j := range refs {
			r[j] = scale * refs[j]
		}
		for j, it := range items {
			out = append(out, normalize(scale*raw[j], refAround(r, at, j, it[0], it[1])))
		}
		return out
	}
	if a, b := norm(1), norm(2); !reflect.DeepEqual(a, b) {
		t.Fatalf("normalized times changed under a uniform 2x slowdown: %v vs %v", a, b)
	}
	// The stall measured at 1.3 s falls outside the first item's window
	// and must not reach it.
	if got := refAround(refs, at, 0, items[0][0], items[0][1]); got > 0.7 {
		t.Fatalf("first item's reference %g picked up the later stall", got)
	}
}

// benchmarkMetrics reads the metric names and units BENCHMARK.json
// declares.
func benchmarkMetrics(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// TestSmoke runs every workload at a tiny scale, untraced and traced,
// and checks the result line: correct, and exactly the metrics
// BENCHMARK.json declares, each with its unit and a valid name.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	endToEnd, perLayer := benchmarkMetrics(t)
	for _, w := range workloads {
		for trace, want := range []map[string]string{endToEnd, perLayer} {
			cfg := runConfig{seed: 3, seconds: 0.4, traceDir: t.TempDir()}
			run := runPlain
			if trace == 1 {
				run = runTraced
			}
			res, err := run(w, cfg, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%d: %v", w.name, trace, err)
			}
			if !res.Correct || res.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d checks=%v", w.name, trace, res.Correct, res.Attempted, res.checks)
			}
			if _, err := res.marshal(); err != nil {
				t.Errorf("%s trace=%d: %v", w.name, trace, err)
			}
			for name, unit := range want {
				if got, ok := res.Metrics[name]; !ok || got.Unit != unit {
					t.Errorf("%s trace=%d: metric %s = %+v, want unit %s", w.name, trace, name, got, unit)
				}
			}
			for name := range res.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s trace=%d: metric %s is not declared in BENCHMARK.json", w.name, trace, name)
				}
			}
		}
	}
}

func TestValidName(t *testing.T) {
	for name, want := range map[string]bool{
		"latency_p50_ms": true, "serve.result_cache_hit_ratio": true, "wall.items_per_s": true,
		"": false, "_x": false, "a b": false, "a/b": false,
	} {
		if validName(name) != want {
			t.Errorf("validName(%q) = %v", name, !want)
		}
	}
}
