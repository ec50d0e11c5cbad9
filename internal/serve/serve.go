package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"minegame/internal/core"
	"minegame/internal/game"
	"minegame/internal/miner"
	"minegame/internal/obs"
	"minegame/internal/obs/expo"
	"minegame/internal/parallel"
	"minegame/internal/verify"
)

// Config tunes the serving daemon.
type Config struct {
	// Addr is the listen address ("", ":8080", "127.0.0.1:0", ...).
	Addr string
	// Observer records the serving metrics surfaced on /metrics. Nil
	// gets a fresh enabled observer (a daemon without metrics is
	// blind).
	Observer *obs.Observer
	// Workers is the per-request batch fan-out budget: the fan-out of
	// a request that does not set its own, and the cap on one that does
	// (0 = process default).
	Workers int
	// MaxBatch caps the items of one request; 0 picks 1024.
	MaxBatch int
	// DrainGrace is how long the daemon keeps serving after readiness
	// flips to 503 on shutdown, giving load balancers time to stop
	// routing before in-flight work is drained.
	DrainGrace time.Duration
	// ShutdownTimeout bounds the graceful drain itself; 0 picks 10s.
	ShutdownTimeout time.Duration
	// OnListen, when non-nil, is called with the bound address once
	// the listener is up (before serving starts).
	OnListen func(addr string)
}

func (c Config) withDefaults() Config {
	if c.Observer == nil {
		c.Observer = obs.New()
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 1024
	}
	if c.ShutdownTimeout <= 0 {
		c.ShutdownTimeout = 10 * time.Second
	}
	return c
}

// Server is the resident solver daemon: three batched solver endpoints
// plus the expo telemetry surface, backed by one single-flight result
// cache that survives across requests.
//
//	POST /v1/solve    miner subgame at fixed prices (items need pe/pc)
//	POST /v1/price    full two-stage Stackelberg solve
//	POST /v1/certify  solve + independent internal/verify certificate
//	GET  /metrics /healthz /readyz /debug/obs
type Server struct {
	cfg     Config
	ob      *obs.Observer
	mux     *http.ServeMux
	results *resultCache
	ready   atomic.Bool

	reqC, reqErrC, itemC, itemErrC *obs.Counter
	latH                           *obs.Histogram
}

// New builds a server (not yet listening — use Run, or mount Handler
// on a listener of your own).
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	ob := cfg.Observer
	s := &Server{
		cfg:      cfg,
		ob:       ob,
		results:  newResultCache(ob),
		reqC:     ob.Counter("serve.requests_total"),
		reqErrC:  ob.Counter("serve.request_errors_total"),
		itemC:    ob.Counter("serve.items_total"),
		itemErrC: ob.Counter("serve.item_errors_total"),
		latH:     ob.Histogram("serve.request_latency_ms"),
	}
	readiness := expo.NewProbes()
	readiness.Register("drain", func() error {
		if !s.ready.Load() {
			return errors.New("draining")
		}
		return nil
	})
	mux, err := expo.NewMux(expo.MuxConfig{
		Snapshot:  func() obs.Snapshot { return ob.Snapshot() },
		Readiness: readiness,
	})
	if err != nil {
		return nil, err
	}
	mux.HandleFunc("/v1/solve", s.batchHandler("solve"))
	mux.HandleFunc("/v1/price", s.batchHandler("price"))
	mux.HandleFunc("/v1/certify", s.batchHandler("certify"))
	s.mux = mux
	s.ready.Store(true)
	return s, nil
}

// Handler returns the server's full route set (solver endpoints plus
// the telemetry surface).
func (s *Server) Handler() http.Handler { return s.mux }

// Ready reports whether the server would answer /readyz with 200.
func (s *Server) Ready() bool { return s.ready.Load() }

// maxBodyBytes caps a /v1/* request body. A 1000-miner item is about
// 20 kB, so the cap leaves room for hundreds of them while a client
// cannot make the server buffer an unbounded body.
const maxBodyBytes = 8 << 20

// outcome is one batch item's terminal state.
type outcome struct {
	raw []byte
	err error
}

// batchHandler builds the POST handler for one endpoint.
func (s *Server) batchHandler(endpoint string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.reqC.Inc()
		if r.Method != http.MethodPost {
			s.reqErrC.Inc()
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		var req Request
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
			s.reqErrC.Inc()
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				http.Error(w, fmt.Sprintf("request body exceeds %d bytes", maxBodyBytes), http.StatusRequestEntityTooLarge)
				return
			}
			http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
			return
		}
		if len(req.Items) == 0 {
			s.reqErrC.Inc()
			http.Error(w, "empty batch", http.StatusBadRequest)
			return
		}
		if len(req.Items) > s.cfg.MaxBatch {
			s.reqErrC.Inc()
			http.Error(w, fmt.Sprintf("batch of %d exceeds the %d-item cap", len(req.Items), s.cfg.MaxBatch), http.StatusRequestEntityTooLarge)
			return
		}
		// The server's budget caps what a request may ask for.
		budget := parallel.New(s.cfg.Workers).Workers()
		workers := budget
		if req.Workers > 0 {
			workers = min(req.Workers, budget)
		}
		pool := parallel.New(workers).WithObserver(s.ob)
		outs, err := parallel.Map(pool, req.Items, func(i int, it Item) (outcome, error) {
			raw, err := s.resolveItem(r.Context(), endpoint, it)
			s.itemC.Inc()
			if err != nil {
				s.itemErrC.Inc()
			}
			return outcome{raw: raw, err: err}, nil
		})
		if err != nil {
			// Unreachable — the item callback never returns an error —
			// but a silent drop would be worse than a 500.
			s.reqErrC.Inc()
			http.Error(w, "batch execution failed: "+err.Error(), http.StatusInternalServerError)
			return
		}
		writeEnvelope(w, outs)
		s.latH.Observe(float64(time.Since(start).Nanoseconds()) / 1e6)
	}
}

// writeEnvelope emits the batch response. The envelope is assembled by
// hand so each successful item embeds its cached CLI-identical bytes
// VERBATIM (minus the trailing newline): extracting items[i].result as
// a json.RawMessage and appending "\n" reproduces the single-shot CLI
// output byte for byte. The buffer is sized once from the items'
// lengths, so a large item is copied exactly once.
func writeEnvelope(w http.ResponseWriter, outs []outcome) {
	const head, tail = `{"items":[`, "]}\n"
	// parts[i] is item i's payload: its marshaled error message, or
	// its raw bytes without the CLI's trailing newline, which inside
	// the envelope would be insignificant whitespace.
	parts := make([][]byte, len(outs))
	size := len(head) + len(tail)
	for i, o := range outs {
		if o.err != nil {
			msg, merr := json.Marshal(o.err.Error())
			if merr != nil {
				msg = []byte(`"item failed"`)
			}
			parts[i] = msg
			size += len(`,{"error":}`) + len(msg)
			continue
		}
		parts[i] = bytes.TrimRight(o.raw, "\n")
		size += len(`,{"result":}`) + len(parts[i])
	}
	buf := make([]byte, 0, size)
	buf = append(buf, head...)
	for i, p := range parts {
		if i > 0 {
			buf = append(buf, ',')
		}
		if outs[i].err != nil {
			buf = append(buf, `{"error":`...)
		} else {
			buf = append(buf, `{"result":`...)
		}
		buf = append(append(buf, p...), '}')
	}
	buf = append(buf, tail...)
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(buf) //lint:allow errflow a write failure here means the client hung up; there is no response channel left to report it on
}

// resolveItem answers one batch item through the single-flight result
// cache: identical in-flight items coalesce onto one solve, repeats
// return the first solve's exact bytes.
func (s *Server) resolveItem(ctx context.Context, endpoint string, it Item) ([]byte, error) {
	key, err := itemKey(endpoint, it)
	if err != nil {
		return nil, err
	}
	raw, err, _ := s.results.do(key, func() ([]byte, error) {
		return s.computeItem(ctx, endpoint, it)
	})
	return raw, err
}

// computeItem runs one item's solve, producing the CLI-identical
// marshaled result.
func (s *Server) computeItem(ctx context.Context, endpoint string, it Item) ([]byte, error) {
	cfg, cp, classed, err := it.Market.coreConfig()
	if err != nil {
		return nil, err
	}
	prices := core.Prices{Edge: it.PriceE, Cloud: it.PriceC}
	fixedPrices := it.PriceE > 0 || it.PriceC > 0
	switch endpoint {
	case "solve":
		if !fixedPrices {
			return nil, errors.New("solve items need fixed prices (pe/pc); use /v1/price for the two-stage solve")
		}
		if classed {
			eq, err := core.SolveMinerEquilibriumClassed(cfg, cp, prices, game.NEOptions{Ctx: ctx})
			if err != nil {
				return nil, err
			}
			return encodeResult(eq)
		}
		eq, err := core.SolveMinerEquilibrium(cfg, prices, game.NEOptions{Ctx: ctx})
		if err != nil {
			return nil, err
		}
		return encodeResult(eq)
	case "price":
		opts := s.stackelbergOpts(ctx)
		if classed {
			res, err := core.SolveStackelbergClassed(cfg, cp, opts)
			if err != nil {
				return nil, err
			}
			return encodeResult(res)
		}
		res, err := core.SolveStackelberg(cfg, opts)
		if err != nil {
			return nil, err
		}
		return encodeResult(res)
	case "certify":
		return s.computeCertify(ctx, cfg, cp, classed, prices, fixedPrices)
	default:
		return nil, fmt.Errorf("unknown endpoint %q", endpoint)
	}
}

// stackelbergOpts assembles the two-stage options for one item: one
// in-solve worker (batch items are the parallel axis) and the
// request's context. The solve builds its own per-solve demand cache.
func (s *Server) stackelbergOpts(ctx context.Context) core.StackelbergOptions {
	return core.StackelbergOptions{Workers: 1, Ctx: ctx, Observer: s.ob}
}

// certified pairs a fixed-price equilibrium with its certificate on
// the wire.
type certified[E any] struct {
	Equilibrium E                  `json:"equilibrium"`
	Certificate verify.Certificate `json:"certificate"`
}

// certifiedFull pairs a two-stage result with its certificate.
type certifiedFull[R any] struct {
	Result      R                  `json:"result"`
	Certificate verify.Certificate `json:"certificate"`
}

// computeCertify solves one item and independently certifies the
// equilibrium via internal/verify. With fixed prices it certifies the
// fixed-price follower subgame; otherwise the full two-stage solve
// (classed two-stage results certify the follower at the winning
// prices — there is no classed leader certifier yet).
func (s *Server) computeCertify(ctx context.Context, cfg core.Config, cp miner.ClassedPopulation, classed bool, prices core.Prices, fixedPrices bool) ([]byte, error) {
	vopts := verify.Options{}
	if fixedPrices {
		if classed {
			eq, err := core.SolveMinerEquilibriumClassed(cfg, cp, prices, game.NEOptions{Ctx: ctx})
			if err != nil {
				return nil, err
			}
			cert, err := verify.CertifyClassed(cfg, cp, prices, eq, vopts)
			if err != nil {
				return nil, fmt.Errorf("certificate rejected: %w", err)
			}
			return encodeResult(certified[core.ClassedEquilibrium]{Equilibrium: eq, Certificate: cert})
		}
		eq, err := core.SolveMinerEquilibrium(cfg, prices, game.NEOptions{Ctx: ctx})
		if err != nil {
			return nil, err
		}
		cert, err := verify.Certify(cfg, prices, eq, vopts)
		if err != nil {
			return nil, fmt.Errorf("certificate rejected: %w", err)
		}
		return encodeResult(certified[core.MinerEquilibrium]{Equilibrium: eq, Certificate: cert})
	}
	opts := s.stackelbergOpts(ctx)
	if classed {
		res, err := core.SolveStackelbergClassed(cfg, cp, opts)
		if err != nil {
			return nil, err
		}
		cert, err := verify.CertifyClassed(cfg, cp, res.Prices, res.Follower, vopts)
		if err != nil {
			return nil, fmt.Errorf("certificate rejected: %w", err)
		}
		return encodeResult(certifiedFull[core.ClassedStackelbergResult]{Result: res, Certificate: cert})
	}
	res, err := core.SolveStackelberg(cfg, opts)
	if err != nil {
		return nil, err
	}
	cert, err := verify.CertifyStackelberg(cfg, res, vopts)
	if err != nil {
		return nil, fmt.Errorf("certificate rejected: %w", err)
	}
	return encodeResult(certifiedFull[core.StackelbergResult]{Result: res, Certificate: cert})
}

// Run listens on cfg.Addr and serves until ctx is canceled, then
// drains gracefully in two steps: readiness flips to 503 first and
// DrainGrace elapses (giving load balancers time to stop routing while
// requests are still answered), and only then is the listener shut
// down with in-flight requests allowed ShutdownTimeout to finish.
func (s *Server) Run(ctx context.Context) error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	if s.cfg.OnListen != nil {
		s.cfg.OnListen(ln.Addr().String())
	}
	srv := &http.Server{Handler: s.mux}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	s.ready.Store(false)
	if s.cfg.DrainGrace > 0 {
		t := time.NewTimer(s.cfg.DrainGrace)
		defer t.Stop()
		select {
		case <-t.C:
		case err := <-errCh:
			return err
		}
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), s.cfg.ShutdownTimeout)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return err
	}
	if err := <-errCh; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// ListenAndServe builds a server from cfg and runs it until SIGINT or
// SIGTERM, then drains. It is the whole body of cmd/minegamed: the
// signal plumbing lives here so the command package stays free of
// concurrency primitives.
func ListenAndServe(cfg Config) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	s, err := New(cfg)
	if err != nil {
		return err
	}
	return s.Run(ctx)
}
