// Command minegame solves instances of the mobile blockchain mining game
// from the command line: the miner subgame at fixed prices, or the full
// two-stage Stackelberg game, in either ESP operation mode.
//
// Examples:
//
//	minegame -stage miners -mode connected -pe 8 -pc 4
//	minegame -stage full -mode standalone -emax 25 -budget 1000
//	minegame -stage compare -emax 25 -budget 1000
//
// With -miners the miner market is class-compressed (DESIGN.md §12):
// a million-miner Stackelberg solve with certificates spot-checked on
// 64 expanded miners:
//
//	minegame -stage full -miners 1000000 -classes 7 -certify-sample 64
//
// The verify subcommand certifies previously solved artifacts (JSON
// solves or experiment CSV directories) with internal/verify:
//
//	minegame verify -in eq.json -pe 8 -pc 4
//	minegame verify -results results/
//
// The trace subcommand analyzes a JSONL trace offline — span-tree
// reconstruction, per-name aggregates, the critical path, and the
// slowest solves:
//
//	minegame trace -in /tmp/solve.jsonl
//	minegame trace -in postmortem-001-solve_not_converged.jsonl -format json
//
// Observability (see README.md "Observability"):
//
//	minegame -stage full -trace /tmp/solve.jsonl -metrics
//	minegame -stage full -serve-metrics localhost:9090
//	minegame -stage compare -cpuprofile cpu.out -pprof localhost:6060
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"minegame"
	"minegame/internal/obs/obscli"
	"minegame/internal/parallel"
	"minegame/internal/verify"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "minegame:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) > 0 && args[0] == "verify" {
		return runVerify(args[1:], out)
	}
	if len(args) > 0 && args[0] == "trace" {
		return runTrace(args[1:], out)
	}
	fs := flag.NewFlagSet("minegame", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		stage    = fs.String("stage", "full", "what to solve: miners | full | compare | selfbeta | endoh | population")
		mode     = fs.String("mode", "connected", "ESP operation mode: connected | standalone")
		n        = fs.Int("n", 5, "number of miners")
		budget   = fs.Float64("budget", 200, "per-miner budget B")
		reward   = fs.Float64("reward", 1000, "mining reward R")
		beta     = fs.Float64("beta", 0.2, "blockchain fork rate β")
		h        = fs.Float64("h", 0.7, "connected ESP satisfy probability h")
		emax     = fs.Float64("emax", 60, "standalone ESP capacity E_max")
		costE    = fs.Float64("ce", 2, "ESP unit cost C_e")
		costC    = fs.Float64("cc", 1, "CSP unit cost C_c")
		priceE   = fs.Float64("pe", 8, "ESP unit price P_e (miners/selfbeta/endoh stages)")
		priceC   = fs.Float64("pc", 4, "CSP unit price P_c (miners/selfbeta/endoh stages)")
		delay    = fs.Float64("delay", 134, "CSP propagation delay in seconds (selfbeta stage)")
		interval = fs.Float64("interval", 600, "mean block time in seconds (selfbeta stage)")
		espUnits = fs.Float64("espunits", 30, "physical ESP computing units (endoh stage)")
		asJSON   = fs.Bool("json", false, "emit machine-readable JSON instead of text")
		mu       = fs.Float64("mu", 10, "mean miner count (population stage)")
		sigma    = fs.Float64("sigma", 2, "miner-count std dev (population stage)")
		par      = fs.Int("parallel", 0, "worker count for the leader-stage price grids (0 = GOMAXPROCS, 1 = sequential; results are identical at any count)")
		miners   = fs.Int("miners", 0, "solve a class-compressed market of this many miners instead of the exact N-miner game (miners/full stages; 0 = exact)")
		classes  = fs.Int("classes", 7, "budget classes of the compressed market: levels spread ±15% around -budget (with -miners)")
		certSamp = fs.Int("certify-sample", 0, "certify the compressed equilibrium and spot-check this many expanded miners (with -miners)")
	)
	obsFlags := obscli.Bind(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := minegame.Config{
		N:            *n,
		Budgets:      []float64{*budget},
		Reward:       *reward,
		Beta:         *beta,
		SatisfyProb:  *h,
		EdgeCapacity: *emax,
		CostE:        *costE,
		CostC:        *costC,
	}
	switch *mode {
	case "connected":
		cfg.Mode = minegame.Connected
	case "standalone":
		cfg.Mode = minegame.Standalone
	default:
		return fmt.Errorf("unknown mode %q", *mode)
	}

	defer parallel.SetDefaultWorkers(parallel.SetDefaultWorkers(*par))
	sess, err := obsFlags.Start()
	if err != nil {
		return err
	}

	emit := func(v any, text func()) error {
		if *asJSON {
			enc := json.NewEncoder(out)
			enc.SetIndent("", "  ")
			return enc.Encode(v)
		}
		text()
		return nil
	}

	runErr := func() error {
		switch *stage {
		case "miners":
			if *miners > 0 {
				cfg, cp, err := classedMarket(cfg, *miners, *classes, *budget)
				if err != nil {
					return err
				}
				eq, err := minegame.SolveMinerEquilibriumClassed(cfg, cp, minegame.Prices{Edge: *priceE, Cloud: *priceC}, minegame.NEOptions{})
				if err != nil {
					return err
				}
				if err := certifyClassed(out, cfg, cp, minegame.Prices{Edge: *priceE, Cloud: *priceC}, eq, *certSamp, *asJSON); err != nil {
					return err
				}
				return emit(eq, func() { printClassedEquilibrium(out, cfg, cp, eq) })
			}
			eq, err := minegame.SolveMinerEquilibrium(cfg, minegame.Prices{Edge: *priceE, Cloud: *priceC}, minegame.NEOptions{})
			if err != nil {
				return err
			}
			return emit(eq, func() { printMinerEquilibrium(out, cfg, eq) })
		case "full":
			if *miners > 0 {
				cfg, cp, err := classedMarket(cfg, *miners, *classes, *budget)
				if err != nil {
					return err
				}
				res, err := minegame.SolveStackelbergClassed(cfg, cp, minegame.StackelbergOptions{Workers: *par})
				if err != nil {
					return err
				}
				if err := certifyClassed(out, cfg, cp, res.Prices, res.Follower, *certSamp, *asJSON); err != nil {
					return err
				}
				return emit(res, func() { printClassedStackelberg(out, cfg, cp, res) })
			}
			res, err := minegame.SolveStackelberg(cfg, minegame.StackelbergOptions{Workers: *par})
			if err != nil {
				return err
			}
			return emit(res, func() { printStackelberg(out, cfg, res) })
		case "compare":
			cmp, err := minegame.CompareModes(cfg, minegame.StackelbergOptions{Workers: *par})
			if err != nil {
				return err
			}
			return emit(cmp, func() {
				fmt.Fprintln(out, "--- connected mode ---")
				printStackelberg(out, cfg, cmp.Connected)
				fmt.Fprintln(out, "--- standalone mode ---")
				printStackelberg(out, cfg, cmp.Standalone)
			})
		case "selfbeta":
			res, err := minegame.SolveSelfConsistentBeta(cfg,
				minegame.Prices{Edge: *priceE, Cloud: *priceC}, *delay, *interval, minegame.NEOptions{})
			if err != nil {
				return err
			}
			return emit(res, func() {
				fmt.Fprintf(out, "self-consistent fork rate (delay %.0fs, block time %.0fs)\n", *delay, *interval)
				fmt.Fprintf(out, "  exogenous β = %.4f  →  β* = %.6f (converged=%v, %d iterations)\n",
					res.ExogenousBeta, res.Beta, res.Converged, res.Iterations)
				printMinerEquilibrium(out, cfg, res.Equilibrium)
			})
		case "endoh":
			res, err := minegame.SolveEndogenousTransfer(cfg,
				minegame.Prices{Edge: *priceE, Cloud: *priceC}, *espUnits, minegame.NEOptions{})
			if err != nil {
				return err
			}
			return emit(res, func() {
				fmt.Fprintf(out, "endogenous transfer rate (ESP owns %.1f units)\n", *espUnits)
				fmt.Fprintf(out, "  exogenous h = %.3f  →  h* = %.4f at offered load %.3f\n",
					res.ExogenousH, res.SatisfyProb, res.EdgeDemand)
				printMinerEquilibrium(out, cfg, res.Equilibrium)
			})
		case "population":
			params := minegame.MinerParams{
				Reward: *reward, Beta: *beta, H: *h,
				PriceE: *priceE, PriceC: *priceC,
			}
			fixed, err := minegame.SolvePopulationEquilibrium(params,
				minegame.FixedPopulation(int(*mu)), *budget, minegame.PopulationOptions{})
			if err != nil {
				return err
			}
			pmf, err := minegame.PopulationModel{Mu: *mu, Sigma: *sigma}.PMF()
			if err != nil {
				return err
			}
			dyn, err := minegame.SolvePopulationEquilibrium(params, pmf, *budget, minegame.PopulationOptions{})
			if err != nil {
				return err
			}
			type popOut struct {
				Fixed, Dynamic minegame.PopulationEquilibrium
			}
			return emit(popOut{Fixed: fixed, Dynamic: dyn}, func() {
				fmt.Fprintf(out, "population uncertainty (μ=%g, σ=%g, budget %g)\n", *mu, *sigma, *budget)
				fmt.Fprintf(out, "  fixed N=%d:  e*=%.4f c*=%.4f (utility %.3f)\n",
					int(*mu), fixed.Request.E, fixed.Request.C, fixed.Utility)
				fmt.Fprintf(out, "  dynamic:     e*=%.4f c*=%.4f (utility %.3f)\n",
					dyn.Request.E, dyn.Request.C, dyn.Utility)
				fmt.Fprintf(out, "  uncertainty premium on edge demand: %+.4f per miner\n",
					dyn.Request.E-fixed.Request.E)
			})
		default:
			return fmt.Errorf("unknown stage %q", *stage)
		}
	}()
	// Close even when the solve failed: it stops profiles, flushes the
	// trace, and restores the default observer.
	closeErr := sess.Close(out, *asJSON)
	if runErr != nil {
		return runErr
	}
	return closeErr
}

// classedMarket synthesizes the class-compressed market behind -miners:
// k budget levels spread ±15% around the base budget with the n miners
// split evenly across them (remainder to the lowest classes), never
// materializing per-miner state. It returns the config resized to n.
func classedMarket(cfg minegame.Config, n, k int, budget float64) (minegame.Config, minegame.ClassedPopulation, error) {
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	cs := make([]minegame.MinerClass, k)
	for j := range cs {
		b := budget
		if k > 1 {
			b = budget * (0.85 + 0.3*float64(j)/float64(k-1))
		}
		cs[j] = minegame.MinerClass{Budget: b, Count: n / k}
	}
	for j := 0; j < n%k; j++ {
		cs[j].Count++
	}
	cp, err := minegame.MinersFromClasses(cs)
	if err != nil {
		return cfg, cp, err
	}
	cfg.N = n
	cfg.Budgets = []float64{budget}
	return cfg, cp, nil
}

// certifyClassed runs the O(K) classed certificate plus, with a
// positive sample, the expanded-profile spot check over that many
// evenly strided miners of the full market.
func certifyClassed(out io.Writer, cfg minegame.Config, cp minegame.ClassedPopulation, p minegame.Prices, eq minegame.ClassedEquilibrium, sample int, quiet bool) error {
	if sample <= 0 {
		return nil
	}
	cert, err := verify.CertifyClassed(cfg, cp, p, eq, verify.Options{})
	if err != nil {
		return err
	}
	if err := cert.Err(); err != nil {
		return err
	}
	sampled, err := verify.CertifyExpandedSample(cfg, cp, p, eq, sample, verify.Options{})
	if err != nil {
		return err
	}
	if err := sampled.Err(); err != nil {
		return err
	}
	if !quiet {
		fmt.Fprintf(out, "certificates: %s OK (eps_rel %.3g), %s OK over %d of %d miners (eps_rel %.3g)\n",
			cert.Kind, cert.EpsilonRel, sampled.Kind, sample, cp.N(), sampled.EpsilonRel)
	}
	return nil
}

func printClassedEquilibrium(out io.Writer, cfg minegame.Config, cp minegame.ClassedPopulation, eq minegame.ClassedEquilibrium) {
	fmt.Fprintf(out, "classed miner equilibrium (%s mode, %d miners in %d classes, compression %.3gx)\n",
		cfg.Mode, cp.N(), cp.K(), cp.CompressRatio())
	fmt.Fprintf(out, "  converged: %v after %d passes\n", eq.Converged, eq.Iterations)
	for k, c := range cp.Classes {
		r := eq.Requests[k]
		fmt.Fprintf(out, "  class %d: %d miners, budget %.4g: e=%.6f c=%.6f  utility=%.3f  win prob=%.3g\n",
			k+1, c.Count, c.Budget, r.E, r.C, eq.Utilities[k], eq.WinProbs[k])
	}
	fmt.Fprintf(out, "  aggregate: E=%.4f C=%.4f S=%.4f\n", eq.EdgeDemand, eq.CloudDemand, eq.TotalDemand)
	if eq.Multiplier > 0 {
		fmt.Fprintf(out, "  capacity shadow price: %.4f\n", eq.Multiplier)
	}
}

func printClassedStackelberg(out io.Writer, cfg minegame.Config, cp minegame.ClassedPopulation, res minegame.ClassedStackelbergResult) {
	fmt.Fprintf(out, "classed Stackelberg equilibrium (%s mode, %d miners in %d classes)\n",
		cfg.Mode, cp.N(), cp.K())
	fmt.Fprintf(out, "  prices: P_e=%.4f P_c=%.4f (converged=%v)\n", res.Prices.Edge, res.Prices.Cloud, res.Converged)
	fmt.Fprintf(out, "  profits: V_e=%.3f V_c=%.3f\n", res.ProfitE, res.ProfitC)
	fmt.Fprintf(out, "  demand: E=%.4f C=%.4f\n", res.Follower.EdgeDemand, res.Follower.CloudDemand)
	if len(res.Follower.Requests) > 0 {
		r := res.Follower.Requests[0]
		fmt.Fprintf(out, "  class-1 request: e=%.6f c=%.6f\n", r.E, r.C)
	}
}

func printMinerEquilibrium(out io.Writer, cfg minegame.Config, eq minegame.MinerEquilibrium) {
	fmt.Fprintf(out, "miner subgame equilibrium (%s mode, %d miners)\n", cfg.Mode, cfg.N)
	fmt.Fprintf(out, "  converged: %v after %d passes\n", eq.Converged, eq.Iterations)
	for i, r := range eq.Requests {
		fmt.Fprintf(out, "  miner %d: e=%.4f c=%.4f  utility=%.3f  win prob=%.4f\n",
			i+1, r.E, r.C, eq.Utilities[i], eq.WinProbs[i])
	}
	fmt.Fprintf(out, "  aggregate: E=%.4f C=%.4f S=%.4f\n", eq.EdgeDemand, eq.CloudDemand, eq.TotalDemand)
	if eq.Multiplier > 0 {
		fmt.Fprintf(out, "  capacity shadow price: %.4f\n", eq.Multiplier)
	}
}

func printStackelberg(out io.Writer, cfg minegame.Config, res minegame.StackelbergResult) {
	fmt.Fprintf(out, "Stackelberg equilibrium (%s mode)\n", cfg.Mode)
	fmt.Fprintf(out, "  prices: P_e=%.4f P_c=%.4f (converged=%v)\n", res.Prices.Edge, res.Prices.Cloud, res.Converged)
	fmt.Fprintf(out, "  profits: V_e=%.3f V_c=%.3f\n", res.ProfitE, res.ProfitC)
	fmt.Fprintf(out, "  demand: E=%.4f C=%.4f\n", res.Follower.EdgeDemand, res.Follower.CloudDemand)
	if len(res.Follower.Requests) > 0 {
		r := res.Follower.Requests[0]
		fmt.Fprintf(out, "  per-miner request: e=%.4f c=%.4f\n", r.E, r.C)
	}
}
