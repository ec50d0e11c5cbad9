package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"minegame/internal/core"
	"minegame/internal/game"
	"minegame/internal/netmodel"
	"minegame/internal/obs"
	"minegame/internal/verify"
)

// testMarket is a small homogeneous connected market.
func testMarket() Market {
	return Market{N: 5, Budget: 10, Reward: 100, Beta: 0.5, H: 0.9, CE: 1, CC: 0.5}
}

// heteroMarket is a small heterogeneous connected market.
func heteroMarket() Market {
	m := testMarket()
	m.Budget = 0
	m.Budgets = []float64{8, 9, 10, 11, 12}
	return m
}

// classedMarket is a small two-class market.
func classedMarket() Market {
	m := testMarket()
	m.N = 0
	m.Classes = []ClassSpec{{Budget: 9, Count: 3}, {Budget: 11, Count: 3}}
	return m
}

// newTestServer builds a server plus an httptest frontend.
func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	return newTestServerWith(t, Config{})
}

// newTestServerWith is newTestServer over cfg, with a fresh observer
// unless cfg carries one.
func newTestServerWith(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Observer == nil {
		cfg.Observer = obs.New()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// envelope mirrors the batch response wire shape.
type envelope struct {
	Items []struct {
		Result json.RawMessage `json:"result"`
		Error  string          `json:"error"`
	} `json:"items"`
}

// post sends one request body and returns status plus raw response.
func post(t *testing.T, url, path string, req Request) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal request: %v", err)
	}
	resp, err := http.Post(url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	return resp.StatusCode, raw
}

// decodeEnvelope parses a 200 batch response.
func decodeEnvelope(t *testing.T, raw []byte) envelope {
	t.Helper()
	var env envelope
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatalf("decode envelope: %v\nbody: %s", err, raw)
	}
	return env
}

// cliBytes encodes v with the minegame CLI's -json emitter
// (encoding/json, two-space indent, trailing newline): the reference
// every served result must equal byte for byte.
func cliBytes(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatalf("encode: %v", err)
	}
	return buf.Bytes()
}

// TestSolveMatchesDirectCLIBytes pins the headline byte-identity
// contract: a served item's result, extracted from the envelope and
// terminated with the CLI's trailing newline, is byte-identical to the
// single-shot library solve the CLI would emit.
func TestSolveMatchesDirectCLIBytes(t *testing.T) {
	_, ts := newTestServer(t)
	req := Request{Items: []Item{
		{Market: testMarket(), PriceE: 8, PriceC: 4},
		{Market: heteroMarket(), PriceE: 8, PriceC: 4},
		{Market: classedMarket(), PriceE: 8, PriceC: 4},
	}}
	status, raw := post(t, ts.URL, "/v1/solve", req)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	env := decodeEnvelope(t, raw)
	if len(env.Items) != 3 {
		t.Fatalf("got %d items, want 3", len(env.Items))
	}
	for i, it := range env.Items {
		if it.Error != "" {
			t.Fatalf("item %d error: %s", i, it.Error)
		}
	}
	prices := core.Prices{Edge: 8, Cloud: 4}
	for i, m := range []Market{testMarket(), heteroMarket()} {
		cfg, _, _, err := m.coreConfig()
		if err != nil {
			t.Fatalf("coreConfig: %v", err)
		}
		eq, err := core.SolveMinerEquilibrium(cfg, prices, game.NEOptions{})
		if err != nil {
			t.Fatalf("direct solve: %v", err)
		}
		want := cliBytes(t, eq)
		got := append(append([]byte(nil), env.Items[i].Result...), '\n')
		if !bytes.Equal(got, want) {
			t.Errorf("item %d: served bytes differ from direct CLI solve\nserved: %s\ndirect: %s", i, got, want)
		}
	}
	cfg, cp, classed, err := classedMarket().coreConfig()
	if err != nil || !classed {
		t.Fatalf("classed coreConfig: classed=%v err=%v", classed, err)
	}
	eq, err := core.SolveMinerEquilibriumClassed(cfg, cp, prices, game.NEOptions{})
	if err != nil {
		t.Fatalf("direct classed solve: %v", err)
	}
	want := cliBytes(t, eq)
	got := append(append([]byte(nil), env.Items[2].Result...), '\n')
	if !bytes.Equal(got, want) {
		t.Errorf("classed item: served bytes differ from direct CLI solve")
	}
}

// TestPriceMatchesDirectSolve pins the same contract for the two-stage
// endpoint: the per-solve demand cache, the result cache and batch
// multiplexing must not change a single byte relative to a fresh
// direct solve.
func TestPriceMatchesDirectSolve(t *testing.T) {
	_, ts := newTestServer(t)
	req := Request{Items: []Item{{Market: testMarket()}}, Workers: 4}
	status, raw := post(t, ts.URL, "/v1/price", req)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	env := decodeEnvelope(t, raw)
	if env.Items[0].Error != "" {
		t.Fatalf("item error: %s", env.Items[0].Error)
	}
	cfg, _, _, err := testMarket().coreConfig()
	if err != nil {
		t.Fatalf("coreConfig: %v", err)
	}
	res, err := core.SolveStackelberg(cfg, core.StackelbergOptions{Workers: 1})
	if err != nil {
		t.Fatalf("direct solve: %v", err)
	}
	want := cliBytes(t, res)
	got := append(append([]byte(nil), env.Items[0].Result...), '\n')
	if !bytes.Equal(got, want) {
		t.Errorf("served price bytes differ from direct solve\nserved: %s\ndirect: %s", got, want)
	}

	// A warm repeat — now answered from the result cache — returns the
	// same bytes again.
	_, raw2 := post(t, ts.URL, "/v1/price", req)
	if !bytes.Equal(raw, raw2) {
		t.Errorf("warm repeat response differs from cold response")
	}
}

// TestWorkerCountInvariance pins the determinism criterion: identical
// batches answered with different worker budgets and different cache
// temperatures are byte-identical. Its servers allow 8 workers, so a
// request's budget of 4 or 8 fans out that wide on any host rather
// than stopping at the server's GOMAXPROCS default.
func TestWorkerCountInvariance(t *testing.T) {
	req := Request{Items: []Item{
		{Market: testMarket(), PriceE: 8, PriceC: 4},
		{Market: heteroMarket(), PriceE: 8, PriceC: 4},
		{Market: classedMarket(), PriceE: 8, PriceC: 4},
		{Market: testMarket(), PriceE: 6, PriceC: 3},
		{Market: testMarket()},
	}}
	var reference []byte
	for _, workers := range []int{1, 4, 8} {
		_, ts := newTestServerWith(t, Config{Workers: 8}) // fresh server: cold caches every time
		req.Workers = workers
		status, raw := post(t, ts.URL, "/v1/solve", Request{Items: req.Items[:4], Workers: workers})
		if status != http.StatusOK {
			t.Fatalf("workers=%d status %d: %s", workers, status, raw)
		}
		if reference == nil {
			reference = raw
		} else if !bytes.Equal(reference, raw) {
			t.Errorf("workers=%d response differs from workers=1 response", workers)
		}
		ts.Close()
	}
}

// TestRequestWorkersCappedByServer pins the server's worker budget as a
// cap: a request asking for 64 workers on a Workers: 2 server fans out
// over at most 2, and answers with the bytes of a sequential request.
func TestRequestWorkersCappedByServer(t *testing.T) {
	ob := obs.New()
	s, err := New(Config{Observer: ob, Workers: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	items := make([]Item, 8)
	for i := range items {
		items[i] = Item{Market: testMarket(), PriceE: 4 + float64(i), PriceC: 3}
	}
	status, got := post(t, ts.URL, "/v1/solve", Request{Items: items, Workers: 64})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, got)
	}
	if size := ob.Gauge("parallel.pool_size").Value(); size > 2 {
		t.Errorf("parallel.pool_size = %v, want at most the server's 2 workers", size)
	}
	_, refTS := newTestServer(t)
	status, want := post(t, refTS.URL, "/v1/solve", Request{Items: items, Workers: 1})
	if status != http.StatusOK {
		t.Fatalf("reference status %d: %s", status, want)
	}
	if !bytes.Equal(got, want) {
		t.Error("workers=64 response differs from the workers=1 response")
	}
}

// TestRaceHammerSingleFlight hammers one server from many goroutines
// with overlapping items and pins, by counter, that the single-flight
// result cache never ran a duplicate solve — and that every response is
// byte-identical to the sequential reference. Run under -race this is
// also the package's data-race gate.
func TestRaceHammerSingleFlight(t *testing.T) {
	s, ts := newTestServer(t)
	req := Request{Items: []Item{
		{Market: testMarket(), PriceE: 8, PriceC: 4},
		{Market: classedMarket(), PriceE: 8, PriceC: 4},
	}, Workers: 2}

	// Sequential reference from an independent cold server.
	_, refTS := newTestServer(t)
	status, want := post(t, refTS.URL, "/v1/solve", Request{Items: req.Items, Workers: 1})
	if status != http.StatusOK {
		t.Fatalf("reference status %d: %s", status, want)
	}

	const goroutines = 8
	const repeats = 5
	responses := make([][]byte, goroutines*repeats)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < repeats; r++ {
				body, _ := json.Marshal(req)
				resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				raw, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Errorf("goroutine %d: read: %v", g, err)
					return
				}
				responses[g*repeats+r] = raw
			}
		}(g)
	}
	wg.Wait()

	for i, raw := range responses {
		if !bytes.Equal(raw, want) {
			t.Fatalf("response %d differs from sequential reference\ngot:  %s\nwant: %s", i, raw, want)
		}
	}

	// Single-flight pin: 2 distinct items were requested 80 times each
	// concurrently; exactly 2 solves may have run.
	hits, misses, _, entries := s.results.stats()
	wantCalls := int64(goroutines * repeats * len(req.Items))
	if misses != int64(len(req.Items)) {
		t.Errorf("result cache misses = %d, want %d (duplicate solves ran)", misses, len(req.Items))
	}
	if hits != wantCalls-int64(len(req.Items)) {
		t.Errorf("result cache hits = %d, want %d", hits, wantCalls-int64(len(req.Items)))
	}
	if entries != len(req.Items) {
		t.Errorf("result cache entries = %d, want %d", entries, len(req.Items))
	}
}

// TestCertifyEndpoint pins every certify shape byte for byte against
// a direct solve plus certificate encoded by the CLI's emitter:
// fixed-price exact and classed, two-stage exact and classed, and an
// N = 1000 heterogeneous fixed-price item.
func TestCertifyEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	req := Request{Items: []Item{
		{Market: testMarket(), PriceE: 8, PriceC: 4},
		{Market: classedMarket(), PriceE: 8, PriceC: 4},
		{Market: testMarket()},
		{Market: classedMarket()},
		{Market: wideMarket(1000), PriceE: 8, PriceC: 4},
	}}
	status, raw := post(t, ts.URL, "/v1/certify", req)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	env := decodeEnvelope(t, raw)
	if len(env.Items) != len(req.Items) {
		t.Fatalf("got %d items, want %d", len(env.Items), len(req.Items))
	}

	prices := core.Prices{Edge: 8, Cloud: 4}
	cfg, _, _, err := testMarket().coreConfig()
	if err != nil {
		t.Fatalf("coreConfig: %v", err)
	}
	ccfg, cp, _, err := classedMarket().coreConfig()
	if err != nil {
		t.Fatalf("classed coreConfig: %v", err)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("direct solve or certificate: %v", err)
		}
	}
	eq, err := core.SolveMinerEquilibrium(cfg, prices, game.NEOptions{})
	must(err)
	cert, err := verify.Certify(cfg, prices, eq, verify.Options{})
	must(err)
	ceq, err := core.SolveMinerEquilibriumClassed(ccfg, cp, prices, game.NEOptions{})
	must(err)
	ccert, err := verify.CertifyClassed(ccfg, cp, prices, ceq, verify.Options{})
	must(err)
	res, err := core.SolveStackelberg(cfg, core.StackelbergOptions{Workers: 1})
	must(err)
	rcert, err := verify.CertifyStackelberg(cfg, res, verify.Options{})
	must(err)
	cres, err := core.SolveStackelbergClassed(ccfg, cp, core.StackelbergOptions{Workers: 1})
	must(err)
	crcert, err := verify.CertifyClassed(ccfg, cp, cres.Prices, cres.Follower, verify.Options{})
	must(err)
	want := []any{
		certified[core.MinerEquilibrium]{Equilibrium: eq, Certificate: cert},
		certified[core.ClassedEquilibrium]{Equilibrium: ceq, Certificate: ccert},
		certifiedFull[core.StackelbergResult]{Result: res, Certificate: rcert},
		certifiedFull[core.ClassedStackelbergResult]{Result: cres, Certificate: crcert},
		wideCertified(t, 1000),
	}
	for i, it := range env.Items {
		if it.Error != "" {
			t.Fatalf("item %d error: %s", i, it.Error)
		}
		got := append(append([]byte(nil), it.Result...), '\n')
		if w := cliBytes(t, want[i]); !bytes.Equal(got, w) {
			t.Errorf("item %d: served certify bytes differ from the direct solve\nserved: %.400s\ndirect: %.400s", i, got, w)
		}
	}
}

// TestRequestValidation exercises the request-level error surface.
func TestRequestValidation(t *testing.T) {
	_, ts := newTestServer(t)

	resp, err := http.Get(ts.URL + "/v1/solve")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET status = %d, want 405", resp.StatusCode)
	}

	status, _ := post(t, ts.URL, "/v1/solve", Request{})
	if status != http.StatusBadRequest {
		t.Errorf("empty batch status = %d, want 400", status)
	}

	// Item-level failures land in the envelope, not the status code.
	status, raw := post(t, ts.URL, "/v1/solve", Request{Items: []Item{
		{Market: testMarket()}, // no prices on /v1/solve
		{Market: Market{N: 3, Reward: 100, Beta: 0.5, H: 0.9, CE: 1, CC: 0.5, Mode: "weird"}, PriceE: 8, PriceC: 4}, // bad mode
		{Market: testMarket(), PriceE: 8, PriceC: 4},                                                                // fine
	}})
	if status != http.StatusOK {
		t.Fatalf("mixed batch status = %d, want 200", status)
	}
	env := decodeEnvelope(t, raw)
	if !strings.Contains(env.Items[0].Error, "fixed prices") {
		t.Errorf("priceless solve error = %q, want fixed-prices hint", env.Items[0].Error)
	}
	if !strings.Contains(env.Items[1].Error, "unknown mode") {
		t.Errorf("bad mode error = %q, want unknown-mode", env.Items[1].Error)
	}
	if env.Items[2].Error != "" || len(env.Items[2].Result) == 0 {
		t.Errorf("valid item failed: %q", env.Items[2].Error)
	}
}

// TestBatchCap pins the MaxBatch guard.
func TestBatchCap(t *testing.T) {
	s, err := New(Config{Observer: obs.New(), MaxBatch: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	items := []Item{
		{Market: testMarket(), PriceE: 8, PriceC: 4},
		{Market: testMarket(), PriceE: 7, PriceC: 4},
		{Market: testMarket(), PriceE: 6, PriceC: 4},
	}
	status, _ := post(t, ts.URL, "/v1/solve", Request{Items: items})
	if status != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized batch status = %d, want 413", status)
	}
}

// TestBodyCap pins the request-body guard: a body over maxBodyBytes
// gets 413, and the valid item at its head is never solved into the
// result cache.
func TestBodyCap(t *testing.T) {
	s, ts := newTestServer(t)
	item, err := json.Marshal(Item{Market: testMarket(), PriceE: 8, PriceC: 4})
	if err != nil {
		t.Fatal(err)
	}
	body := fmt.Sprintf(`{"items":[%s],"pad":"%s"}`, item, strings.Repeat("x", maxBodyBytes))
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body status = %d, want 413", resp.StatusCode)
	}
	if _, _, _, entries := s.results.stats(); entries != 0 {
		t.Errorf("result cache holds %d entries after a rejected body, want 0", entries)
	}
	// The same item in a body under the cap is solved and cached.
	if status, _ := post(t, ts.URL, "/v1/solve", Request{Items: []Item{{Market: testMarket(), PriceE: 8, PriceC: 4}}}); status != http.StatusOK {
		t.Fatalf("small body status = %d, want 200", status)
	}
	if _, _, _, entries := s.results.stats(); entries != 1 {
		t.Errorf("result cache holds %d entries after one solve, want 1", entries)
	}
}

// TestDrainFlipsReadiness runs the full lifecycle: Run serves, the
// context cancels, readiness flips to 503 during the drain grace while
// the telemetry surface still answers, and Run returns cleanly.
func TestDrainFlipsReadiness(t *testing.T) {
	addrCh := make(chan string, 1)
	s, err := New(Config{
		Addr:       "127.0.0.1:0",
		Observer:   obs.New(),
		DrainGrace: 500 * time.Millisecond,
		OnListen:   func(addr string) { addrCh <- addr },
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() { runErr <- s.Run(ctx) }()
	var addr string
	select {
	case addr = <-addrCh:
	case <-time.After(5 * time.Second):
		t.Fatal("server never listened")
	}
	base := "http://" + addr

	get := func(path string) int {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get("/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz before drain = %d, want 200", code)
	}

	cancel()
	deadline := time.Now().Add(2 * time.Second)
	flipped := false
	for time.Now().Before(deadline) {
		if get("/readyz") == http.StatusServiceUnavailable {
			flipped = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !flipped {
		t.Fatal("/readyz never flipped to 503 during drain")
	}
	// Mid-drain the daemon still answers its telemetry surface.
	if code := get("/metrics"); code != http.StatusOK {
		t.Errorf("/metrics during drain = %d, want 200", code)
	}
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("Run returned %v, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run never returned after drain")
	}
}

// TestModeRoundTrip pins the wire-to-core mode mapping.
func TestModeRoundTrip(t *testing.T) {
	m := testMarket()
	cfg, _, _, err := m.coreConfig()
	if err != nil || cfg.Mode != netmodel.Connected {
		t.Fatalf("default mode: %v mode=%v", err, cfg.Mode)
	}
	m.Mode = "standalone"
	m.EMax = 30
	cfg, _, _, err = m.coreConfig()
	if err != nil || cfg.Mode != netmodel.Standalone {
		t.Fatalf("standalone mode: %v mode=%v", err, cfg.Mode)
	}
}

// TestEnvelopeShape pins the hand-assembled envelope against the
// stdlib decoder and the item ordering.
func TestEnvelopeShape(t *testing.T) {
	rec := httptest.NewRecorder()
	writeEnvelope(rec, []outcome{
		{raw: []byte("{\n  \"x\": 1\n}\n")},
		{err: fmt.Errorf("boom \"quoted\"")},
	})
	var env envelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatalf("envelope is not valid JSON: %v\n%s", err, rec.Body.Bytes())
	}
	if len(env.Items) != 2 {
		t.Fatalf("items = %d, want 2", len(env.Items))
	}
	got := append(append([]byte(nil), env.Items[0].Result...), '\n')
	if string(got) != "{\n  \"x\": 1\n}\n" {
		t.Errorf("raw bytes not preserved: %q", got)
	}
	if env.Items[1].Error != "boom \"quoted\"" {
		t.Errorf("error round-trip: %q", env.Items[1].Error)
	}
}
