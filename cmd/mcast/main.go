// Command mcast analyses a Series-of-Multicasts instance: it loads a
// platform (from a file in the graph text format, or a generated
// Tiers-like topology), computes the paper's LP bounds, runs the
// heuristics, and optionally the exact optimum on small instances.
//
// Usage:
//
//	mcast -platform file.graph -source S -targets a,b,c [-exact] [-dot out.dot]
//	mcast -tiers small -seed 1 -density 0.4 [-exact]
//	mcast -tiers small -seed 1 -whatif [-whatif-factors 0,4]
//
// -whatif runs the resilience engine after the bounds and heuristics:
// every node failure, the per-edge scenarios of -whatif-factors (0 is
// a link failure, f > 1 multiplies the edge cost), and every source
// promotion, each warm-started from the baseline solve, then prints
// the criticality ranking.
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"strconv"
	"strings"

	"repro/internal/exp"
	"repro/internal/graph"
	"repro/internal/heur"
	"repro/internal/steady"
	"repro/internal/tiers"
	"repro/internal/tree"
	"repro/internal/whatif"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mcast: ")
	var (
		platformFile = flag.String("platform", "", "platform file in the graph text format")
		sourceName   = flag.String("source", "", "source node name (with -platform)")
		targetNames  = flag.String("targets", "", "comma-separated target node names (with -platform)")
		tiersSize    = flag.String("tiers", "", `generate a Tiers-like platform: "small" or "big"`)
		seed         = flag.Int64("seed", 1, "random seed (with -tiers)")
		density      = flag.Float64("density", 0.4, "target density over LAN hosts (with -tiers)")
		exact        = flag.Bool("exact", false, "also compute the exact optimum (exponential; small instances only)")
		dotFile      = flag.String("dot", "", "write the platform as Graphviz DOT to this file")
		doWhatif     = flag.Bool("whatif", false, "run the resilience engine (node/edge failures, source promotions)")
		whatifFacts  = flag.String("whatif-factors", "0", "comma-separated per-edge scenario factors for -whatif (0 = link failure)")
	)
	flag.Parse()

	g, source, targets, err := load(*platformFile, *sourceName, *targetNames, *tiersSize, *seed, *density)
	if err != nil {
		log.Fatal(err)
	}
	p, err := steady.NewProblem(g, source, targets)
	if err != nil {
		log.Fatal(err)
	}
	if *dotFile != "" {
		if err := os.WriteFile(*dotFile, []byte(g.DOT("platform", targets)), 0o644); err != nil {
			log.Fatal(err)
		}
	}

	fmt.Printf("platform: %d nodes, %d edges, %d targets\n", g.NumActive(), len(g.ActiveEdges()), len(targets))

	// One evaluator runs the bounds and then the heuristics, the same
	// sequence the sweep and the planning daemon run.
	ev := steady.NewEvaluator()
	ub, err := ev.ScatterUB(p)
	if err != nil {
		log.Fatal(err)
	}
	lb, err := ev.MulticastLB(p)
	if err != nil {
		log.Fatal(err)
	}
	bc, err := ev.BroadcastEB(g, source)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-22s period %10.4f  throughput %.6f\n", "scatter (Multicast-UB)", ub.Period, ub.Throughput())
	fmt.Printf("%-22s period %10.4f  throughput %.6f\n", "bound (Multicast-LB)", lb.Period, lb.Throughput())
	fmt.Printf("%-22s period %10.4f  throughput %.6f\n", "broadcast (EB)", bc.Period, bc.Throughput())

	for _, h := range heur.AllWith(ev) {
		res, err := h.Run(p)
		if err != nil {
			log.Fatalf("%s: %v", h.Name, err)
		}
		extra := ""
		switch {
		case res.Tree != nil:
			extra = fmt.Sprintf("  (tree with %d edges)", len(res.Tree.Edges))
		case len(res.Sources) > 0:
			var names []string
			for _, s := range res.Sources {
				names = append(names, g.Name(s))
			}
			extra = "  (sources: " + strings.Join(names, ", ") + ")"
		case res.Kept != nil:
			extra = fmt.Sprintf("  (%d nodes kept)", len(res.Kept))
		}
		fmt.Printf("%-22s period %10.4f  throughput %.6f%s\n", h.Name, res.Period, res.Throughput(), extra)
	}

	if *exact {
		pk, err := tree.PackOptimal(g, source, targets)
		if err != nil {
			log.Fatalf("exact: %v", err)
		}
		fmt.Printf("%-22s period %10.4f  throughput %.6f  (%d trees)\n",
			"exact (tree packing)", pk.Period(), pk.Throughput, len(pk.Trees))
	}

	if *doWhatif {
		if err := runWhatif(p, *whatifFacts); err != nil {
			log.Fatalf("whatif: %v", err)
		}
	}
}

// runWhatif runs the resilience engine and prints the criticality
// report.
func runWhatif(p steady.Problem, factorList string) error {
	cfg := whatif.DefaultConfig()
	cfg.EdgeFactors = nil
	for _, f := range strings.Split(factorList, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		v, err := strconv.ParseFloat(f, 64)
		if err != nil || v < 0 || math.IsInf(v, 0) || math.IsNaN(v) {
			return fmt.Errorf("bad -whatif-factors entry %q", f)
		}
		cfg.EdgeFactors = append(cfg.EdgeFactors, v)
	}
	rep, err := whatif.Analyze(p, cfg)
	if err != nil {
		return err
	}
	g := p.G
	fmt.Printf("\nwhat-if: %d scenarios (baseline LB period %.4f, MCPH tree period %.4f)\n",
		len(rep.Results), rep.Baseline.LB.Period, rep.Baseline.TreePeriod)
	fmt.Printf("MCPH tree survives %d/%d scenarios\n", rep.Surviving, len(rep.Results))
	if rep.FastPathScenarios > 0 {
		fmt.Printf("tree fast path answered %d/%d scenarios\n", rep.FastPathScenarios, len(rep.Results))
	}

	const top = 5
	fmt.Println("most critical nodes (throughput delta when failed):")
	for i, rk := range rep.CriticalNodes {
		if i == top {
			break
		}
		fmt.Printf("  %-12s %+.6f%s\n", g.Name(rk.Node), rk.Delta, infTag(rk.Infeasible))
	}
	fmt.Println("most critical edges (worst throughput delta across factors):")
	for i, rk := range rep.CriticalEdges {
		if i == top {
			break
		}
		e := g.Edge(rk.Edge)
		fmt.Printf("  %s -> %-8s %+.6f%s\n", g.Name(e.From), g.Name(e.To), rk.Delta, infTag(rk.Infeasible))
	}
	if best := bestPromotion(rep.Results); best >= 0 {
		r := rep.Results[best]
		fmt.Printf("best source promotion: %s (%+.6f throughput)\n", g.Name(r.Node), r.Delta)
	}
	fmt.Printf("solver: baseline %v; scenarios %v; %d scenarios answered from the baseline optimum\n",
		rep.BaselineStats, rep.ScenarioStats, rep.DominatedScenarios)
	return nil
}

// bestPromotion returns the index of the source promotion with the
// largest throughput delta in results, or -1 if no promotion
// succeeded. Promotions whose delta is within 1e-9 of the best one,
// relative to the larger of that delta and the best promotion's
// throughput, tie: several relays often gain exactly as much, and their
// solved deltas differ only in the LP's last bits, so the first in
// scenario order (the lowest node ID) is named.
func bestPromotion(results []whatif.Result) int {
	best := -1
	for i, r := range results {
		if r.Kind == whatif.KindPromoteSource && r.Err == nil && (best < 0 || r.Delta > results[best].Delta) {
			best = i
		}
	}
	if best < 0 {
		return -1
	}
	top := results[best]
	tol := 1e-9 * math.Max(math.Abs(top.Delta), top.Throughput)
	for i, r := range results[:best] {
		if r.Kind == whatif.KindPromoteSource && r.Err == nil && r.Delta >= top.Delta-tol {
			return i
		}
	}
	return best
}

func infTag(inf bool) string {
	if inf {
		return "  (multicast infeasible)"
	}
	return ""
}

func load(file, sourceName, targetNames, tiersSize string, seed int64, density float64) (*graph.Graph, graph.NodeID, []graph.NodeID, error) {
	switch {
	case file != "":
		f, err := os.Open(file)
		if err != nil {
			return nil, 0, nil, err
		}
		defer f.Close()
		g, err := graph.Decode(f)
		if err != nil {
			return nil, 0, nil, err
		}
		source, ok := g.NodeByName(sourceName)
		if !ok {
			return nil, 0, nil, fmt.Errorf("unknown source node %q", sourceName)
		}
		if targetNames == "" {
			return nil, 0, nil, fmt.Errorf("-targets required with -platform")
		}
		var targets []graph.NodeID
		for _, name := range strings.Split(targetNames, ",") {
			t, ok := g.NodeByName(strings.TrimSpace(name))
			if !ok {
				return nil, 0, nil, fmt.Errorf("unknown target node %q", name)
			}
			targets = append(targets, t)
		}
		return g, source, targets, nil
	case tiersSize != "":
		var cfg tiers.Config
		switch tiersSize {
		case "small":
			cfg = tiers.Small(seed)
		case "big":
			cfg = tiers.Big(seed)
		default:
			return nil, 0, nil, fmt.Errorf("unknown tiers size %q", tiersSize)
		}
		pl, err := tiers.Generate(cfg)
		if err != nil {
			return nil, 0, nil, err
		}
		// Target drawing shares the sweep engine's splitmix64 seeding path,
		// so `mcast -tiers -seed N` reproduces the same target set on every
		// go version (rand.NewSource(seed) alone is version-stable too, but
		// the raw seed correlates neighbouring -seed runs; DeriveSeed
		// scrambles them the same way neighbouring sweep tasks are).
		rng := exp.NewRNG(seed, 0)
		return pl.G, pl.Source, pl.RandomTargets(rng, density), nil
	default:
		return nil, 0, nil, fmt.Errorf("need -platform or -tiers (see -help)")
	}
}
