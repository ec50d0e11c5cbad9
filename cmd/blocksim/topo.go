package main

// The -topo mode: race an explicit peer graph, report each miner's
// measured fork rate β_i and win share with confidence intervals, and
// optionally solve the Stackelberg game under them (Config.Betas) with
// independent certification. All output is a pure function of the
// flags — byte-identical at any -parallel worker count.

import (
	"encoding/json"
	"fmt"
	"io"

	"minegame"
)

// topoReport is the JSON shape of one -topo run.
type topoReport struct {
	Shape    string              `json:"shape"`
	Nodes    int                 `json:"nodes"`
	Quorum   float64             `json:"quorum"`
	Replicas int                 `json:"replicas"`
	Race     minegame.TopoResult `json:"race"`
	Solve    *topoSolveReport    `json:"solve,omitempty"`
}

type topoSolveReport struct {
	PriceEdge   float64 `json:"price_edge"`
	PriceCloud  float64 `json:"price_cloud"`
	ProfitEdge  float64 `json:"profit_edge"`
	ProfitCloud float64 `json:"profit_cloud"`
	Certified   bool    `json:"certified"`
}

// buildTopology constructs the named shape: every node mines at unit
// hashrate, and the star's spokes stretch with the node index so the
// graph carries real placement asymmetry.
func buildTopology(shape string, n int, linkDelay float64, seed int64) (*minegame.Topology, error) {
	nodes := make([]minegame.TopoNode, n)
	for i := range nodes {
		loc := minegame.TopoCloud
		if i%2 == 0 {
			loc = minegame.TopoEdge
		}
		nodes[i] = minegame.TopoNode{Hashrate: 1, Location: loc}
	}
	switch shape {
	case "star":
		spokes := make([]float64, n-1)
		for i := range spokes {
			spokes[i] = linkDelay * float64(1+i)
		}
		return minegame.TopoStar(nodes, spokes)
	case "ring":
		return minegame.TopoRing(nodes, linkDelay)
	case "line":
		tp := minegame.NewTopology(nodes)
		for i := 0; i+1 < n; i++ {
			if err := tp.AddLink(i, i+1, linkDelay); err != nil {
				return nil, err
			}
		}
		return tp, nil
	case "scale-free":
		return minegame.TopoScaleFree(nodes, 2, linkDelay, seed)
	default:
		return nil, fmt.Errorf("unknown -topo shape %q (want star, ring, line, or scale-free)", shape)
	}
}

func topoRace(out io.Writer, shape string, n int, linkDelay, quorum float64, blocks int, interval float64, replicas int, seed int64, jsonOut, solve, certify bool) error {
	tp, err := buildTopology(shape, n, linkDelay, seed)
	if err != nil {
		return err
	}
	cfg := minegame.TopoConfig{Interval: interval, Blocks: blocks, Quorum: quorum}
	res, err := minegame.EstimateTopoBetas(tp, cfg, seed, replicas)
	if err != nil {
		return err
	}

	report := topoReport{Shape: shape, Nodes: n, Quorum: quorum, Replicas: replicas, Race: res}
	if solve || certify {
		game := minegame.Config{
			N:            n,
			Budgets:      []float64{200},
			Reward:       1000,
			Beta:         0.2,
			SatisfyProb:  0.7,
			Mode:         minegame.Connected,
			EdgeCapacity: 60,
			CostE:        2,
			CostC:        1,
			Betas:        res.Betas(),
		}
		sres, err := minegame.SolveStackelberg(game, minegame.StackelbergOptions{})
		if err != nil {
			return fmt.Errorf("topo stackelberg: %w", err)
		}
		sr := &topoSolveReport{
			PriceEdge:   sres.Prices.Edge,
			PriceCloud:  sres.Prices.Cloud,
			ProfitEdge:  sres.ProfitE,
			ProfitCloud: sres.ProfitC,
		}
		if certify {
			cert, err := minegame.CertifyStackelberg(game, sres, minegame.VerifyOptions{})
			if err != nil {
				return fmt.Errorf("topo certificate: %w", err)
			}
			if err := cert.Err(); err != nil {
				return fmt.Errorf("topo certificate failed: %w", err)
			}
			sr.Certified = true
		}
		report.Solve = sr
	}

	if jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(report)
	}

	fmt.Fprintf(out, "%s topology: %d nodes, quorum %.2f, %d replicas × %d blocks\n",
		shape, n, quorum, replicas, blocks)
	fmt.Fprintf(out, "canonical %d of %d decided blocks across %d events\n",
		res.Canonical, res.Decided, res.Events)
	fmt.Fprintln(out, "node  delay_s    beta ±95%CI       winprob ±95%CI    mined  credited  orphaned")
	for i, s := range res.Stats {
		fmt.Fprintf(out, "%4d  %7.1f  %7.4f ±%7.4f  %7.4f ±%7.4f  %5d  %8d  %8d\n",
			i, res.Delays[i], s.Beta, s.BetaErr, s.WinProb, s.WinProbErr, s.Mined, s.Credited, s.Orphaned)
	}
	if report.Solve != nil {
		fmt.Fprintf(out, "stackelberg under measured betas: P_e=%.4f P_c=%.4f profit_e=%.2f profit_c=%.2f\n",
			report.Solve.PriceEdge, report.Solve.PriceCloud, report.Solve.ProfitEdge, report.Solve.ProfitCloud)
		if report.Solve.Certified {
			fmt.Fprintln(out, "certificate: OK")
		}
	}
	return nil
}
