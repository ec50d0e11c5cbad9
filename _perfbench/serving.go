package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"time"

	"minegame/internal/core"
	"minegame/internal/game"
	"minegame/internal/miner"
	"minegame/internal/netmodel"
	"minegame/internal/obs"
	"minegame/internal/serve"
	"minegame/internal/verify"
)

// host is an in-process minegamed: serve.New configured as
// cmd/minegamed configures it (every limit at its default), mounted on
// a loopback listener and driven by one client connection.
type host struct {
	srv    *serve.Server
	ob     *obs.Observer
	hs     *http.Server
	url    string
	client *http.Client
	served chan error
}

func startHost() (*host, error) {
	// An explicit fresh observer is what serve.New installs for a nil
	// one; holding it lets the benchmark read the serving counters.
	ob := obs.New()
	srv, err := serve.New(serve.Config{Observer: ob})
	if err != nil {
		return nil, fmt.Errorf("serve.New: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	h := &host{
		srv: srv, ob: ob,
		hs:  &http.Server{Handler: srv.Handler()},
		url: "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true,
		}},
		served: make(chan error, 1),
	}
	go func() { h.served <- h.hs.Serve(ln) }()
	return h, nil
}

// post sends one request body and returns the status and full response.
func (h *host) post(endpoint string, body []byte) (int, []byte, error) {
	resp, err := h.client.Post(h.url+"/v1/"+endpoint, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, fmt.Errorf("read response: %w", err)
	}
	return resp.StatusCode, raw, nil
}

// stop shuts the listener down and waits for the serving goroutine.
func (h *host) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := h.hs.Shutdown(ctx)
	if serr := <-h.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	h.client.CloseIdleConnections()
	return err
}

type serveKind int

const (
	kindHit serveKind = iota
	kindPriceMiss
	kindSolveWide
)

// Labels of the generated input streams: the warm-up prefix and the
// timed items never share a market.
const (
	labelWarm  = "warm"
	labelTimed = "timed"
)

type serveSession struct {
	kind serveKind
	seed int64
	h    *host

	// serve-hit: the resident bodies, their warm-up responses and
	// failed-item counts, and the seeded order requests draw them in.
	hit        []request
	golden     [][]byte
	goldenFail []int
	order      *rand.Rand
	pick       []int

	cur    request
	status int
	resp   []byte

	// replayOb receives the replayed solves' telemetry, so the serving
	// counters keep only the timed round trips.
	replayOb *obs.Observer

	bodyBytes, bodyItems int
	eps                  []float64
	lastWide             *wideSolution
}

// wideSolution is one replayed solve-wide equilibrium, kept for the
// direct best-response timing.
type wideSolution struct {
	cfg core.Config
	p   core.Prices
	eq  core.MinerEquilibrium
}

func newServeSession(kind serveKind, seed int64) (*serveSession, error) {
	h, err := startHost()
	if err != nil {
		return nil, err
	}
	s := &serveSession{kind: kind, seed: seed, h: h, replayOb: obs.New()}
	if err := s.warm(); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// warm is the untimed warm-up prefix: every serve-hit body once (so
// every timed item is a result-cache hit), or the first items of a
// separate stream for the miss workloads.
func (s *serveSession) warm() error {
	switch s.kind {
	case kindHit:
		bodies, err := hitSet(s.seed)
		if err != nil {
			return err
		}
		s.hit = bodies
		for _, b := range bodies {
			status, resp, err := s.h.post(b.endpoint, b.body)
			if err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
			failed, _ := checkResponse(b, status, resp)
			s.golden = append(s.golden, resp)
			s.goldenFail = append(s.goldenFail, failed)
		}
		s.order = rngFor(s.seed, "serve-hit-order", 0)
		return nil
	case kindPriceMiss:
		// One classed market: the cheapest price-miss shape, and the
		// one whose solve time varies least with the seed.
		return s.warmStream(priceMissRequest, 2, 3)
	default:
		return s.warmStream(solveWideRequest, 0, 2)
	}
}

// warmStream sends items [from, to) of the warm-up stream.
func (s *serveSession) warmStream(gen func(int64, string, int) (request, error), from, to int) error {
	for i := from; i < to; i++ {
		req, err := gen(s.seed, labelWarm, i)
		if err != nil {
			return err
		}
		if _, _, err := s.h.post(req.endpoint, req.body); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

func (s *serveSession) finish() []string { return nil }

func (s *serveSession) observers() []*obs.Observer { return []*obs.Observer{s.h.ob} }

func (s *serveSession) close() error {
	if s.h == nil {
		return nil
	}
	err := s.h.stop()
	s.h = nil
	return err
}

// request regenerates item i's request.
func (s *serveSession) request(i int) (request, error) {
	switch s.kind {
	case kindHit:
		for len(s.pick) <= i {
			s.pick = append(s.pick, s.order.Intn(len(s.hit)))
		}
		return s.hit[s.pick[i]], nil
	case kindPriceMiss:
		return priceMissRequest(s.seed, labelTimed, i)
	default:
		return solveWideRequest(s.seed, labelTimed, i)
	}
}

func (s *serveSession) prepare(i int) error {
	req, err := s.request(i)
	if err != nil {
		return err
	}
	s.cur = req
	s.bodyBytes += len(req.body)
	s.bodyItems += len(req.items)
	return nil
}

func (s *serveSession) do(int) error {
	var err error
	s.status, s.resp, err = s.h.post(s.cur.endpoint, s.cur.body)
	return err
}

func (s *serveSession) check(i int) (int, int, []string) {
	n := len(s.cur.items)
	if s.kind == kindHit {
		b := s.pick[i]
		if s.status != http.StatusOK || !bytes.Equal(s.resp, s.golden[b]) {
			return n, n, []string{fmt.Sprintf("serve-hit item %d: response differs from the warm-up response to body %d", i, b)}
		}
		return n, s.goldenFail[b], nil
	}
	failed, bad := checkResponse(s.cur, s.status, s.resp)
	for j := range bad {
		bad[j] = fmt.Sprintf("item %d: %s", i, bad[j])
	}
	return n, failed, bad
}

// envelope is the batch response wire shape.
type envelope struct {
	Items []struct {
		Result json.RawMessage `json:"result"`
		Error  string          `json:"error"`
	} `json:"items"`
}

// Result shapes of the three endpoints, as serve encodes them.
type (
	certifiedEq struct {
		Equilibrium core.MinerEquilibrium `json:"equilibrium"`
		Certificate verify.Certificate    `json:"certificate"`
	}
	certifiedFull struct {
		Result      core.StackelbergResult `json:"result"`
		Certificate verify.Certificate     `json:"certificate"`
	}
	certifiedClassed struct {
		Result      core.ClassedStackelbergResult `json:"result"`
		Certificate verify.Certificate            `json:"certificate"`
	}
)

// checkResponse counts the failed items of one response: a non-200
// status fails all of them; an item fails on an error, a rejected
// certificate or converged=false. Rejected certificates and unreadable
// results are also failed output checks.
func checkResponse(req request, status int, resp []byte) (int, []string) {
	n := len(req.items)
	if status != http.StatusOK {
		return n, nil
	}
	var env envelope
	if err := json.Unmarshal(resp, &env); err != nil || len(env.Items) != n {
		return n, []string{"unreadable response envelope"}
	}
	failed := 0
	var bad []string
	for j, it := range env.Items {
		if it.Error != "" {
			failed++
			continue
		}
		ok, check := checkResult(req.endpoint, req.items[j], it.Result)
		if !ok {
			failed++
		}
		if check != "" {
			bad = append(bad, check)
		}
	}
	return failed, bad
}

// checkResult decodes one item's result and reports whether it
// converged with a passing certificate, plus a failed-check message.
func checkResult(endpoint string, it serve.Item, raw []byte) (bool, string) {
	fixed := it.PriceE > 0 || it.PriceC > 0
	certOK := func(c verify.Certificate) string {
		if !c.OK {
			return "certificate rejected: " + fmt.Sprint(c.Err())
		}
		return ""
	}
	var err error
	switch {
	case endpoint == "solve":
		var eq core.MinerEquilibrium
		if err = json.Unmarshal(raw, &eq); err == nil {
			return eq.Converged, ""
		}
	case endpoint == "price":
		var r core.StackelbergResult
		if err = json.Unmarshal(raw, &r); err == nil {
			return r.Converged && r.Follower.Converged, ""
		}
	case fixed:
		var r certifiedEq
		if err = json.Unmarshal(raw, &r); err == nil {
			msg := certOK(r.Certificate)
			return msg == "" && r.Equilibrium.Converged, msg
		}
	case len(it.Classes) > 0:
		var r certifiedClassed
		if err = json.Unmarshal(raw, &r); err == nil {
			msg := certOK(r.Certificate)
			return msg == "" && r.Result.Converged && r.Result.Follower.Converged, msg
		}
	default:
		var r certifiedFull
		if err = json.Unmarshal(raw, &r); err == nil {
			msg := certOK(r.Certificate)
			return msg == "" && r.Result.Converged && r.Result.Follower.Converged, msg
		}
	}
	return false, "unreadable result: " + err.Error()
}

// coreConfig converts a wire market into solver inputs the way the
// minegame CLI flags do.
func coreConfig(m serve.Market) (core.Config, miner.ClassedPopulation, error) {
	cfg := core.Config{
		N: m.N, Reward: m.Reward, Beta: m.Beta, SatisfyProb: m.H,
		EdgeCapacity: m.EMax, CostE: m.CE, CostC: m.CC, Mode: netmodel.Connected,
	}
	if m.Mode == "standalone" {
		cfg.Mode = netmodel.Standalone
	}
	cfg.Budgets = m.Budgets
	if len(m.Budgets) == 0 {
		cfg.Budgets = []float64{m.Budget}
	}
	if len(m.Classes) == 0 {
		return cfg, miner.ClassedPopulation{}, nil
	}
	cs := make([]miner.Class, len(m.Classes))
	for i, c := range m.Classes {
		cs[i] = miner.Class{Budget: c.Budget, Count: c.Count}
	}
	cp, err := miner.FromClasses(cs)
	if err != nil {
		return cfg, cp, err
	}
	cfg.N = cp.N()
	cfg.Budgets = []float64{m.Budget}
	return cfg, cp, nil
}

// encodeCLI marshals a result the way the minegame CLI's -json does.
func encodeCLI(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(v)
	return buf.Bytes(), err
}

// replay re-runs item i outside the server. serve-hit replays the body
// through Handler().ServeHTTP in-process; the miss workloads re-solve
// the item with direct decode, core, verify and encode calls and check
// the bytes against the served result.
func (s *serveSession) replay(i int, rec *recorder) ([]string, error) {
	req, err := s.request(i)
	if err != nil {
		return nil, err
	}
	if s.kind == kindHit {
		w := httptest.NewRecorder()
		r := httptest.NewRequest(http.MethodPost, "/v1/"+req.endpoint, bytes.NewReader(req.body))
		rec.call("serve.handler", -1, i, func() error { s.h.srv.Handler().ServeHTTP(w, r); return nil })
		if !bytes.Equal(w.Body.Bytes(), s.golden[s.pick[i]]) {
			return []string{fmt.Sprintf("serve-hit item %d: in-process handler response differs from the round trip", i)}, nil
		}
		return nil, nil
	}
	// A repeat of the item is a result-cache hit: it returns the bytes
	// the timed round trip was served.
	status, resp, err := s.h.post(req.endpoint, req.body)
	if err != nil {
		return nil, err
	}
	var env envelope
	if status != http.StatusOK || json.Unmarshal(resp, &env) != nil || len(env.Items) != 1 || env.Items[0].Error != "" {
		return []string{fmt.Sprintf("item %d: no served result to compare the direct solve with", i)}, nil
	}
	served := append(append([]byte(nil), env.Items[0].Result...), '\n')

	root := rec.open("replay", -1, i)
	var direct []byte
	err = func() error {
		var body serve.Request
		if err := rec.call("serve.decode", root, i, func() error { return json.Unmarshal(req.body, &body) }); err != nil {
			return err
		}
		it := body.Items[0]
		cfg, cp, err := coreConfig(it.Market)
		if err != nil {
			return err
		}
		var out any
		switch {
		case s.kind == kindSolveWide:
			out, err = s.replayFollower(rec, root, i, cfg, core.Prices{Edge: it.PriceE, Cloud: it.PriceC})
		case len(it.Classes) > 0:
			out, err = s.replayClassed(rec, root, i, cfg, cp)
		default:
			out, err = s.replayStackelberg(rec, root, i, cfg)
		}
		if err != nil {
			return err
		}
		return rec.call("serve.encode", root, i, func() error {
			var err error
			direct, err = encodeCLI(out)
			return err
		})
	}()
	rec.close(root)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(direct, served) {
		return []string{fmt.Sprintf("item %d: served result differs from the direct core solve", i)}, nil
	}
	return nil, nil
}

// stackelbergOpts are the options serve gives a two-stage solve: one
// in-solve worker, a context and a fresh per-market demand cache.
func stackelbergOpts(ob *obs.Observer) core.StackelbergOptions {
	return core.StackelbergOptions{
		Workers: 1, Ctx: context.Background(), Observer: ob,
		DemandCache: core.NewDemandCache(0, ob),
	}
}

func (s *serveSession) replayStackelberg(rec *recorder, root, i int, cfg core.Config) (any, error) {
	var res core.StackelbergResult
	err := rec.call("core.stackelberg", root, i, func() error {
		var err error
		res, err = core.SolveStackelberg(cfg, stackelbergOpts(s.replayOb))
		return err
	})
	if err != nil {
		return nil, err
	}
	var cert verify.Certificate
	err = rec.call("verify.certify", root, i, func() error {
		var err error
		cert, err = verify.CertifyStackelberg(cfg, res, verify.Options{})
		return err
	})
	s.eps = append(s.eps, cert.EpsilonRel)
	return certifiedFull{Result: res, Certificate: cert}, err
}

func (s *serveSession) replayClassed(rec *recorder, root, i int, cfg core.Config, cp miner.ClassedPopulation) (any, error) {
	var res core.ClassedStackelbergResult
	err := rec.call("core.stackelberg", root, i, func() error {
		var err error
		res, err = core.SolveStackelbergClassed(cfg, cp, stackelbergOpts(s.replayOb))
		return err
	})
	if err != nil {
		return nil, err
	}
	var cert verify.Certificate
	err = rec.call("verify.certify", root, i, func() error {
		var err error
		cert, err = verify.CertifyClassed(cfg, cp, res.Prices, res.Follower, verify.Options{})
		return err
	})
	s.eps = append(s.eps, cert.EpsilonRel)
	return certifiedClassed{Result: res, Certificate: cert}, err
}

func (s *serveSession) replayFollower(rec *recorder, root, i int, cfg core.Config, p core.Prices) (any, error) {
	var eq core.MinerEquilibrium
	err := rec.call("core.follower", root, i, func() error {
		var err error
		eq, err = core.SolveMinerEquilibrium(cfg, p, game.NEOptions{Ctx: context.Background()})
		return err
	})
	if err != nil {
		return nil, err
	}
	var cert verify.Certificate
	err = rec.call("verify.certify", root, i, func() error {
		var err error
		cert, err = verify.Certify(cfg, p, eq, verify.Options{})
		return err
	})
	s.eps = append(s.eps, cert.EpsilonRel)
	s.lastWide = &wideSolution{cfg: cfg, p: p, eq: eq}
	return certifiedEq{Equilibrium: eq, Certificate: cert}, err
}

func (s *serveSession) layers(t *tracedRun, m map[string]metric) {
	c := func(name string) float64 { return float64(t.counters[name]) }
	items := float64(t.traced.items)
	requests := float64(len(t.traced.normMs))
	m["serve.roundtrip_ms_p50"] = metric{median(t.traced.normMs), "ms"}
	m["serve.roundtrip_ms_p99"] = metric{quantile(t.traced.normMs, 0.99), "ms"}
	m["serve.alloc_kb_per_request"] = metric{ratio(t.traced.allocB/1e3, requests), "kB"}
	m["serve.request_kb_per_item"] = metric{ratio(float64(s.bodyBytes)/1e3, float64(s.bodyItems)), "kB"}
	hits, misses := c("serve.result_cache_hits_total"), c("serve.result_cache_misses_total")
	m["serve.result_cache_hit_ratio"] = metric{ratio(hits, hits+misses), "ratio"}
	minerLayers(t, m)

	if s.kind == kindHit {
		m["serve.handler_ms_p50"] = metric{median(t.rec.byName("serve.handler")), "ms"}
		return
	}
	probes, memo := c("core.demand_probes_total"), c("core.demand_memo_hits_total")
	m["core.demand_probes_per_item"] = metric{ratio(probes, items), "count"}
	m["core.demand_memo_hit_ratio"] = metric{ratio(memo, memo+probes), "ratio"}
	m["core.clearing_solves_per_item"] = metric{ratio(c("core.clearing_price_solves_total"), items), "count"}
	m["core.demand_cache_evictions_per_item"] = metric{ratio(c("serve.cache_evictions_total"), items), "count"}
	m["game.leader_rounds_per_item"] = metric{ratio(c("game.leader_rounds_total"), items), "count"}
	m["game.gne_probes_per_item"] = metric{ratio(c("game.gne_multiplier_probes_total"), items), "count"}
	if s.kind == kindPriceMiss {
		m["game.sweeps_per_probe"] = metric{ratio(c("game.sweeps_total"), probes), "count"}
	} else {
		m["game.sweeps_per_solve"] = metric{ratio(c("game.sweeps_total"), items), "count"}
	}
	m["core.stackelberg_ms_p50"] = metric{median(t.rec.byName("core.stackelberg")), "ms"}
	m["core.follower_ms_p50"] = metric{median(t.rec.byName("core.follower")), "ms"}
	m["verify.certify_ms_p50"] = metric{median(t.rec.byName("verify.certify")), "ms"}
	m["verify.eps_rel_p50"] = metric{median(s.eps), "ratio"}

	var roundtrip float64
	for _, i := range t.replayed {
		roundtrip += t.reqMs(i)
	}
	n := float64(len(t.replayed))
	decode, encode := t.rec.selfByName("serve.decode"), t.rec.selfByName("serve.encode")
	solve := t.rec.selfByName("core.stackelberg") + t.rec.selfByName("core.follower")
	certify := t.rec.selfByName("verify.certify")
	m["ledger.roundtrip_ms"] = metric{ratio(roundtrip, n), "ms"}
	m["ledger.decode_self_ms"] = metric{ratio(decode, n), "ms"}
	m["ledger.solve_self_ms"] = metric{ratio(solve, n), "ms"}
	m["ledger.certify_self_ms"] = metric{ratio(certify, n), "ms"}
	m["ledger.encode_self_ms"] = metric{ratio(encode, n), "ms"}
	m["ledger.unexplained_pct"] = metric{100 * (1 - ratio(decode+solve+certify+encode, roundtrip)), "%"}
	if s.lastWide != nil {
		m["miner.best_response_ns"] = metric{bestResponseNs(t.k, s.lastWide), "ns"}
	}
}

// bestResponseNs times direct BestResponseConnected calls on a fixed
// sample of the environments of a solved solve-wide equilibrium.
func bestResponseNs(k *refKernel, w *wideSolution) float64 {
	const sample, reps = 64, 200
	params := w.cfg.Params(w.p)
	prof := w.eq.Requests
	step := len(prof) / sample
	envs := make([]miner.Env, sample)
	budgets := make([]float64, sample)
	for j := range envs {
		envs[j] = prof.Env(j * step)
		budgets[j] = w.cfg.Budget(j * step)
	}
	k0 := k.measure()
	start := time.Now()
	for r := 0; r < reps; r++ {
		for j := range envs {
			_ = miner.BestResponseConnected(params, budgets[j], envs[j])
		}
	}
	raw := float64(time.Since(start).Nanoseconds()) / (sample * reps)
	return normalize(raw, (k0+k.measure())/2)
}
