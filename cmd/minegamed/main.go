// Command minegamed is the resident solver daemon: it keeps the
// single-flight result cache of internal/serve alive across requests
// and exposes the repository's solvers as a batched JSON API.
//
//	POST /v1/solve    miner subgame at fixed prices (items carry pe/pc)
//	POST /v1/price    full two-stage Stackelberg solve
//	POST /v1/certify  solve plus an independent internal/verify certificate
//	GET  /metrics /healthz /readyz /debug/obs
//
// Responses are byte-identical to single-shot `minegame -json` solves
// of the same markets; the resident cache changes only latency, never
// results. SIGINT/SIGTERM triggers a graceful drain: /readyz flips to
// 503, -drain-grace elapses so load balancers stop routing, then
// in-flight requests finish.
//
// Usage:
//
//	minegamed [-addr :8080] [-workers n] [-max-batch n]
//	          [-drain-grace d] [-shutdown-timeout d]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"minegame/internal/serve"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses flags and blocks serving until a shutdown signal.
func run(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("minegamed", flag.ContinueOnError)
	fs.SetOutput(errw)
	addr := fs.String("addr", ":8080", "listen address")
	workers := fs.Int("workers", 0, "per-request batch fan-out, and its cap on requests that set their own (0 = GOMAXPROCS pool)")
	maxBatch := fs.Int("max-batch", 0, "max items per request (0 = 1024)")
	drainGrace := fs.Duration("drain-grace", 2*time.Second, "how long /readyz reports draining before the listener closes")
	shutdownTimeout := fs.Duration("shutdown-timeout", 10*time.Second, "bound on the in-flight request drain")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	err := serve.ListenAndServe(serve.Config{
		Addr:            *addr,
		Workers:         *workers,
		MaxBatch:        *maxBatch,
		DrainGrace:      *drainGrace,
		ShutdownTimeout: *shutdownTimeout,
		OnListen: func(a string) {
			fmt.Fprintf(out, "minegamed listening on %s\n", a)
		},
	})
	if err != nil {
		fmt.Fprintln(errw, "minegamed:", err)
		return 1
	}
	return 0
}
